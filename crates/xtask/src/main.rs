//! Repo automation. Two subcommands, the static passes of DESIGN.md,
//! "Static analysis passes":
//!
//! ```text
//! cargo run -p xtask -- analyze|docs [--root PATH] [--format text|json]
//! ```
//!
//! `analyze` lexes every source file of `crates/server/src` and
//! `crates/cluster/src` into spanned tokens (`source::lex`), drops the
//! `#[cfg(test)]` items, and runs the atomic-ordering audit over what is
//! left: it classifies every `Ordering::*` site and flags `Relaxed` on
//! cross-thread control flags. It also counts the lint suppressions left
//! (`#[allow(…)]` and `#[expect(…)]`), which CI pins like the orderings.
//! `docs` checks that the prose names only what the workspace has and
//! cites only sections the design document has (`docs.rs`).
//! `--format json` emits the findings with their spans for CI artifacts.
//!
//! What the analyzer does not check is checked where it happens. Clippy
//! denies panic paths, std locks and wall-clock reads in the two crates
//! (their `lib.rs` and `clippy.toml`); `fqos-sync` checks lock order and
//! blocking under a lock on every acquisition, and `QosServer::finish`
//! the conservation law on its final snapshot (debug and `model-check`
//! builds; DESIGN.md, "Lock hierarchy" and "Ledger").
//!
//! With `--root` pointing at a directory that is *not* a workspace (no
//! `crates/server/src`), `analyze` reads every `.rs` file under it, and
//! `docs` treats it as the root: that mode exists for the fixtures under
//! `crates/xtask/fixtures/`, which CI uses to prove each pass still
//! catches its seeded violation.

mod atomics;
mod docs;
mod source;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One reported problem; `text` is the offending source plus any
/// pass-specific context (enclosing function).
#[derive(Debug, Clone)]
pub struct Finding {
    pub pass: &'static str,
    pub file: String,
    pub line: usize,
    pub col: usize,
    pub text: String,
    pub message: String,
}

#[derive(Default)]
pub struct Outcome {
    findings: Vec<Finding>,
    files_scanned: usize,
    /// Ordering name → use-site count.
    ordering_counts: BTreeMap<String, usize>,
    /// `#[allow(…)]` and `#[expect(…)]` attributes outside test items.
    lint_suppressions: usize,
}

/// Every file under `dir`, in order, but for build output and `.git`.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if name != "target" && name != ".git" {
                walk(&path, out)?;
            }
        } else {
            out.push(path);
        }
    }
    out.sort();
    Ok(())
}

/// Every `.rs` file under the existing ones of `dirs`, in order.
fn rust_files(root: &Path, dirs: &[&str]) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for dir in dirs {
        let dir = root.join(dir);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.retain(|f| f.extension().is_some_and(|e| e == "rs"));
    Ok(files)
}

fn analyze(root: &Path) -> Result<Outcome, String> {
    let dirs: &[&str] = if root.join("crates/server/src").is_dir() {
        &["crates/server/src", "crates/cluster/src"]
    } else {
        &[""]
    };
    let mut out = Outcome::default();
    for path in rust_files(root, dirs)? {
        out.files_scanned += 1;
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let original: Vec<String> = src.lines().map(str::to_string).collect();
        let toks = source::without_test_items(&source::lex(&src));
        atomics::audit(&path.to_string_lossy(), &toks, &original, &mut out);
        out.lint_suppressions += lint_suppressions(&toks);
    }
    out.findings
        .sort_by(|a, b| (&a.file, a.line, a.pass).cmp(&(&b.file, b.line, b.pass)));
    Ok(out)
}

/// Outer attributes among `toks` that silence a lint: `#[allow(` and
/// `#[expect(`.
fn lint_suppressions(toks: &[source::Tok]) -> usize {
    toks.windows(4)
        .filter(|w| {
            w[0].is("#")
                && w[1].is("[")
                && (w[2].is_ident("allow") || w[2].is_ident("expect"))
                && w[3].is("(")
        })
        .count()
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Hand-rolled JSON (the workspace is dependency-free by policy).
fn render_json(outcome: &Outcome) -> String {
    let findings: Vec<String> = outcome
        .findings
        .iter()
        .map(|f| {
            format!(
                "{{\"pass\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\"snippet\":\"{}\",\"message\":\"{}\"}}",
                json_escape(f.pass),
                json_escape(&f.file),
                f.line,
                f.col,
                json_escape(&f.text),
                json_escape(&f.message),
            )
        })
        .collect();
    let orderings: Vec<String> = outcome
        .ordering_counts
        .iter()
        .map(|(k, v)| format!("\"{}\":{v}", json_escape(k)))
        .collect();
    format!(
        "{{\"findings\":[{}],\"summary\":{{\
         \"files_scanned\":{},\"lint_suppressions\":{},\"ordering_counts\":{{{}}}}}}}",
        findings.join(","),
        outcome.files_scanned,
        outcome.lint_suppressions,
        orderings.join(","),
    )
}

fn render_text(pass: &str, outcome: &Outcome) {
    for f in &outcome.findings {
        eprintln!(
            "{}:{}:{}: error: [{}] {}",
            f.file, f.line, f.col, f.pass, f.message
        );
        eprintln!("    > {}", f.text);
    }
    let orderings: Vec<String> = outcome
        .ordering_counts
        .iter()
        .map(|(k, v)| format!("{k}:{v}"))
        .collect();
    let orderings = if orderings.is_empty() {
        String::new()
    } else {
        format!(", orderings {{{}}}", orderings.join(", "))
    };
    let suppressions = if pass == "analyze" {
        format!(", {} lint suppression(s)", outcome.lint_suppressions)
    } else {
        String::new()
    };
    eprintln!(
        "{pass}: {} file(s){orderings}{suppressions}, {} finding(s)",
        outcome.files_scanned,
        outcome.findings.len()
    );
}

const USAGE: &str = "usage: cargo run -p xtask -- analyze|docs [--root PATH] [--format text|json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let pass: fn(&Path) -> Result<Outcome, String> = match args.first().map(String::as_str) {
        Some("analyze") => analyze,
        Some("docs") => docs::check,
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        match (arg.as_str(), rest.next().map(String::as_str)) {
            ("--root", Some(path)) => root = Some(PathBuf::from(path)),
            ("--format", Some("text")) => json = false,
            ("--format", Some("json")) => json = true,
            _ => {
                eprintln!("unknown argument `{arg}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    // Default root: the workspace that contains this xtask.
    let root = root.unwrap_or_else(|| {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap_or_else(|_| PathBuf::from("."))
    });

    match pass(&root) {
        Ok(outcome) => {
            if json {
                println!("{}", render_json(&outcome));
            } else {
                render_text(&args[0], &outcome);
            }
            if outcome.findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{}: error: {e}", args[0]);
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest_dir() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn the_real_workspace_is_clean() {
        let root = manifest_dir().join("../..").canonicalize().unwrap();
        let outcome = analyze(&root).unwrap();
        assert!(
            outcome.findings.is_empty(),
            "expected a clean tree, got: {:#?}",
            outcome.findings
        );
        // The ordering census, pinned: every ordering stronger than
        // `Relaxed` is half of a happens-before edge somebody argued for,
        // so one more or one fewer is a reviewed decision. PR 18: AcqRel
        // 13 → 14, Acquire 22 → 23 — the registry's `epoch`, bumped by
        // `publish` and loaded by every `TenantView::resolve`.
        // PR 20: Release 13 → 12 — `submit_op` and `advance_to` raise the
        // watermark through one `raise_watermark`, one store.
        // PR 22: Acquire 23 → 24, Release 12 → 13 — the scorer's EWMA,
        // published per device by `FaultPlane::observe` and loaded by
        // `service_estimate` instead of a hold of `fault.health`.
        // Then the panic, lock and wall-clock lints moved to clippy, and a
        // handle-local watermark took the last allowlisted `Relaxed`.
        // Acquire 24 → 23: `FaultPlane::exclusion_mask`, which only tests
        // called, went with the window's per-device capacity vector.
        // Acquire 23 → 19, Release 13 → 8: the seal frontier moved under
        // `engine.dispatch`. Gone: the per-handle `watermark` store and its
        // load in `seal_target`, the `closed` flag's two stores and its two
        // loads, and `sealed_floor`'s two stores and the pump's load of it.
        // Acquire 19 → 18, Release 8 → 7: the hedge reads the scorer's
        // EWMA under `fault.health`, so the per-device copy published for
        // it (one Release store, one Acquire load) is gone.
        // Acquire 18 → 16, Release 7 → 6: the GC-pressure reserve went, and
        // with it `any_gc`'s store and the two loads that guarded the decay
        // and the reserve (its Relaxed uses, and the scorer counters', went
        // too: 94 → 81).
        let census = |ordering: &str| outcome.ordering_counts.get(ordering).copied();
        assert_eq!(
            (census("AcqRel"), census("Acquire"), census("Release")),
            (Some(14), Some(16), Some(6)),
            "{:?}",
            outcome.ordering_counts
        );
        // Lint suppressions, pinned the same way. 8 → 7: a batch became a
        // struct that carries its window, and the clippy allow for boxing
        // the `Vec` it was went with it.
        assert_eq!(outcome.lint_suppressions, 7);
    }

    #[test]
    fn lint_suppressions_count_outer_attributes_outside_tests() {
        let src = "#[allow(dead_code)] fn a() {}\n\
                   #[expect(clippy::panic, reason = \"x\")] fn b() {}\n\
                   #![allow(unused)]\n\
                   #[cfg(test)] #[allow(dead_code)] fn c() {}\n\
                   #[derive(Debug)] struct D; // #[allow(x)]\n\
                   const S: &str = \"#[allow(x)]\";";
        let toks = source::without_test_items(&source::lex(src));
        assert_eq!(lint_suppressions(&toks), 2);
    }

    #[test]
    fn the_relaxed_flag_fixture_is_caught_with_its_span() {
        let root = manifest_dir().join("fixtures/relaxed_flag");
        let outcome = analyze(&root).unwrap();
        let f = outcome
            .findings
            .iter()
            .find(|f| f.pass == "atomic-ordering")
            .unwrap_or_else(|| panic!("relaxed-flag fixture not caught: {:#?}", outcome.findings));
        assert!(f.message.contains("`shutdown`"), "{f:?}");
        assert!(f.line > 0 && f.col > 0, "{f:?}");
    }

    #[test]
    fn the_clean_fixture_passes() {
        let root = manifest_dir().join("fixtures/clean");
        let outcome = analyze(&root).unwrap();
        assert!(outcome.findings.is_empty(), "{:#?}", outcome.findings);
    }

    #[test]
    fn json_output_is_well_formed_and_spanned() {
        let root = manifest_dir().join("fixtures/relaxed_flag");
        let json = render_json(&analyze(&root).unwrap());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"pass\":\"atomic-ordering\""), "{json}");
        assert!(json.contains("\"line\":"), "{json}");
        assert!(
            json.ends_with("\"ordering_counts\":{\"Relaxed\":2}}}"),
            "{json}"
        );
        // No raw control characters or unescaped quotes in string values.
        assert!(!json.contains('\n'));
    }

    #[test]
    fn json_escape_handles_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
