//! The `docs` pass: the prose names only what the code has, and every
//! citation of a DESIGN.md section names a heading.
//!
//! * Every Rust-style word (snake_case with an inner `_`, or CamelCase with
//!   two capitals) in a backticked span of [`DOCS`] must be an identifier
//!   of workspace code (comments do not count, test items do), a word of a
//!   string literal outside `crates/xtask` (its lists name what the code
//!   used to have), a workspace file name, or an entry of [`ALLOWED`].
//!   Fenced blocks are commands, not names, and are not read.
//! * Every citation of a section of the design document in code,
//!   manifests, CI and [`DOCS`] must name one of its headings. A citation
//!   is the file name, then `'s` or a comma or neither, a space, and a
//!   quoted title or `§` and a number. One wrapped across comment lines is
//!   read whole.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use crate::source::{lex, TokKind};
use crate::{walk, Finding, Outcome};

/// The prose whose names are checked, relative to the root.
const DOCS: &[&str] = &[
    "DESIGN.md",
    "README.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

/// Names the prose may use with no code behind them, and why.
const ALLOWED: &[(&str, &str)] = &[
    ("CARGO_TARGET_DIR", "cargo's build-directory variable"),
    ("GLIBC_TUNABLES", "glibc's variable, for heap layout"),
    ("tcache_count", "the glibc tunable set through it"),
    ("VmRSS", "a field of /proc/<pid>/status"),
    ("voluntary_ctxt_switches", "a field of /proc/<pid>/status"),
    ("items_after_test_module", "a clippy lint"),
];

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The identifier-shaped words of `text`.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

fn rust_style(word: &str) -> bool {
    let b = word.as_bytes();
    let snake = b
        .windows(3)
        .any(|w| w[1] == b'_' && w[0].is_ascii_alphanumeric() && w[2].is_ascii_alphanumeric());
    let camel = b[0].is_ascii_uppercase()
        && b.iter().any(u8::is_ascii_lowercase)
        && b[1..].iter().any(u8::is_ascii_uppercase);
    snake || camel
}

/// A seeded fixture is a tree of its own, read only through `--root`.
fn in_fixture(rel: &Path) -> bool {
    rel.iter().any(|part| part == "fixtures")
}

/// Every name the workspace has: identifiers outside comments, the words
/// of string literals outside `crates/xtask`, and the names of files and
/// directories, with and without their extension.
fn known_names(root: &Path, files: &[PathBuf]) -> Result<BTreeSet<String>, String> {
    let mut known = BTreeSet::new();
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(path);
        for name in rel.iter().filter_map(|part| part.to_str()) {
            known.insert(name.to_string());
            known.insert(name.split('.').next().unwrap_or(name).to_string());
        }
        if in_fixture(rel) || path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let own_lists = path.starts_with(root.join("crates/xtask"));
        for tok in lex(&read(path)?) {
            match tok.kind {
                TokKind::Ident => {
                    known.insert(tok.text);
                }
                TokKind::Lit if !own_lists => known.extend(words(&tok.text).map(str::to_string)),
                _ => {}
            }
        }
    }
    Ok(known)
}

/// The backticked spans of markdown `text` outside fenced blocks, as
/// (byte offset of the opening backtick, contents). A span does not cross
/// a blank line.
fn spans(text: &str) -> (String, Vec<(usize, String)>) {
    let mut prose = String::with_capacity(text.len());
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
        }
        prose.push('\n');
    }
    let (mut out, mut at) = (Vec::new(), 0);
    while let Some(off) = prose[at..].find('`') {
        let open = at + off;
        let run = prose[open..].len() - prose[open..].trim_start_matches('`').len();
        let body = open + run;
        match prose[body..].find(&prose[open..body]) {
            Some(len) if !prose[body..body + len].contains("\n\n") => {
                out.push((open, prose[body..body + len].to_string()));
                at = body + len + run;
            }
            _ => at = body,
        }
    }
    (prose, out)
}

/// Every section citation of DESIGN.md in `text`, as (line, the quoted
/// title or `§N`). Lines are joined without their comment markers first.
fn citations(text: &str) -> Vec<(usize, String)> {
    let (mut joined, mut starts) = (String::new(), Vec::new());
    for line in text.lines() {
        starts.push(joined.len());
        let line = line.trim();
        let line = ["//!", "///", "//", "#"]
            .iter()
            .find_map(|m| line.strip_prefix(m))
            .unwrap_or(line);
        joined.push_str(line.trim());
        joined.push(' ');
    }
    let mut out = Vec::new();
    for (at, doc) in joined.match_indices("DESIGN.md") {
        let rest = &joined[at + doc.len()..];
        let rest = rest.strip_prefix("'s").unwrap_or(rest);
        let rest = rest.strip_prefix(',').unwrap_or(rest);
        let cited = rest.trim_start();
        if cited.len() == rest.len() {
            continue;
        }
        let line = starts.partition_point(|&s| s <= at);
        if let Some(n) = cited.strip_prefix('§') {
            let digits = n
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>();
            out.push((line, format!("§{digits}")));
        } else if let Some(q) = ["\\\"", "\""].into_iter().find(|q| cited.starts_with(q)) {
            let title = &cited[q.len()..];
            if let Some(end) = title.find(q) {
                out.push((line, title[..end].to_string()));
            }
        }
    }
    out
}

/// Does `cited` (a title, or `§N`) name one of `headings`?
fn names_a_heading(cited: &str, headings: &[String]) -> bool {
    headings.iter().any(|h| {
        let (number, title) = h
            .split_once(". ")
            .filter(|(n, _)| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
            .unwrap_or(("", h));
        match cited.strip_prefix('§') {
            Some(n) => n == number && !n.is_empty(),
            None => cited == title || cited == h,
        }
    })
}

/// Run the pass over the tree at `root`.
pub fn check(root: &Path) -> Result<Outcome, String> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    let known = known_names(root, &files)?;
    let (design, _) = spans(&read(&root.join("DESIGN.md"))?);
    let headings: Vec<String> = design
        .lines()
        .filter(|l| l.starts_with('#'))
        .map(|l| l.trim_start_matches('#').trim().to_string())
        .collect();
    let mut out = Outcome::default();
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path);
        let doc = DOCS.iter().any(|d| rel == Path::new(d));
        let code = path
            .extension()
            .is_some_and(|e| e == "rs" || e == "toml" || e == "yml");
        if (!doc && !code) || in_fixture(rel) {
            continue;
        }
        out.files_scanned += 1;
        let text = read(path)?;
        let mut finding = |line: usize, text: String, message: String| {
            out.findings.push(Finding {
                pass: "docs",
                file: rel.display().to_string(),
                line,
                col: 1,
                text,
                message,
            });
        };
        if doc {
            let (prose, spans) = spans(&text);
            for (open, span) in spans {
                for word in words(&span).filter(|w| rust_style(w)) {
                    if !known.contains(word) && !ALLOWED.iter().any(|(a, _)| *a == word) {
                        let line = prose[..open].matches('\n').count() + 1;
                        let message = format!("`{word}` names nothing in the workspace");
                        finding(line, span.clone(), message);
                    }
                }
            }
        }
        for (line, cited) in citations(&text) {
            if !names_a_heading(&cited, &headings) {
                let message = format!("\"{cited}\" is not a heading of the design document");
                finding(line, cited, message);
            }
        }
    }
    out.findings
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest_dir() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn the_real_docs_name_only_what_the_workspace_has() {
        let root = manifest_dir().join("../..").canonicalize().unwrap();
        let outcome = check(&root).unwrap();
        assert!(outcome.findings.is_empty(), "{:#?}", outcome.findings);
        assert!(ALLOWED.len() <= 15 && ALLOWED.iter().all(|(_, why)| !why.is_empty()));
    }

    #[test]
    fn the_stale_doc_fixture_fails_on_every_seed() {
        let outcome = check(&manifest_dir().join("fixtures/stale_doc")).unwrap();
        let flagged = |s: &str| outcome.findings.iter().any(|f| f.message.contains(s));
        // A removed type; a name only a comment holds; one only a list in
        // `crates/xtask` holds; a title and a number that are no heading.
        for stale in [
            "`DesignTheoreticRetrieval`",
            "`comment_only_name`",
            "`sealed_floor`",
            "\"Static analysis passes\"",
            "\"§9\"",
        ] {
            assert!(flagged(stale), "{stale} passed: {:#?}", outcome.findings);
        }
        // A name defined only in a `#[cfg(test)]` module resolves (the
        // design cites pinning tests by name), and so do real citations.
        for real in ["pinned_by_a_test", "Lock hierarchy", "§1"] {
            assert!(!flagged(real), "{real} flagged: {:#?}", outcome.findings);
        }
        assert_eq!(outcome.findings.len(), 5, "{:#?}", outcome.findings);
    }

    #[test]
    fn a_citation_wrapped_across_comment_lines_is_read_whole() {
        let doc = "DESIGN.md";
        let src = format!(
            "    /// take every edge ({doc}, \"Lock\n    /// hierarchy\"); a path\n\
             // {doc} §4, {doc}'s \"Ledger\", {doc}\"), {doc} for the substitution"
        );
        let cited = citations(&src);
        let expect = [(1, "Lock hierarchy"), (3, "§4"), (3, "Ledger")];
        assert_eq!(cited, expect.map(|(l, c)| (l, c.to_string())));
    }
}
