//! Repo automation. One subcommand:
//!
//! ```text
//! cargo run -p xtask -- analyze [--root PATH] [--allowlist PATH] [--format text|json]
//! ```
//!
//! `analyze` is the static layer of the concurrency verification story
//! (the dynamic layer is `cargo test -p fqos-server --features
//! model-check`, see DESIGN.md "Concurrency invariants" → "Static
//! analysis passes"). It lexes every source file into spanned tokens
//! (`source::lex`), segments them into per-function statement trees and
//! basic-block CFGs (`cfg`), and runs the pass suite over
//! `crates/server/src` and `crates/cluster/src`:
//!
//! - **ledger-balance**: path-sensitive conservation-law accounting over
//!   the `admit(`/`settle(SettleKind::K` vocabulary of
//!   `crates/server/src/ledger.rs` — no path settles twice, every path
//!   that admits settles or carries a `// ledger: defer(…)` annotation,
//!   and no law term is mutated outside that module;
//! - **atomic-ordering**: classifies every `Ordering::*` site and flags
//!   `Relaxed` on cross-thread control flags;
//! - forbidden-pattern lints: `unwrap`/`expect` on lock results, panic
//!   paths in non-test server code, wall-clock reads in deterministic
//!   test code outside `tests/common`.
//!
//! Lock order and blocking under a lock are not checked here: `fqos-sync`
//! checks them where locks are taken, on every acquisition of a debug or
//! `model-check` build (DESIGN.md, "Lock hierarchy").
//!
//! Suppressions come from `crates/xtask/allowlist.txt`, where every
//! entry carries a mandatory reason and an optional `expires: PR<N>`
//! bound (expired entries fail the run). `--format json` emits the
//! full diagnostics with severity and span for CI artifacts.
//!
//! With `--root` pointing at a directory that is *not* a workspace (no
//! `crates/server/src`), every `.rs` file under it is analyzed with all
//! rule sets — that mode exists for the negative fixtures under
//! `crates/xtask/fixtures/`, which CI uses to prove each pass still
//! catches its seeded violation.

mod atomics;
mod cfg;
mod ledger;
mod lints;
mod source;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Must be fixed or allowlisted; always fails the run.
    Error,
    /// Suspicious-by-construction (e.g. blocking under an exclusive
    /// guard can be intentional backpressure); still fails the run
    /// unless allowlisted, but marked for human judgement.
    Warning,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One reported problem; `text` is the offending source snippet plus
/// any pass-specific context (enclosing function).
#[derive(Debug, Clone)]
pub struct Finding {
    pub pass: &'static str,
    pub severity: Severity,
    pub file: String,
    pub line: usize,
    pub col: usize,
    pub text: String,
    pub message: String,
}

struct Outcome {
    findings: Vec<Finding>,
    suppressed: Vec<String>,
    files_scanned: usize,
    ledger_sites: BTreeMap<String, usize>,
    ledger_kinds: Vec<String>,
    ledger_defers: usize,
    ordering_counts: BTreeMap<String, usize>,
    ledger_truncated: Vec<String>,
}

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
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    Ok(())
}

/// Highest PR number recorded in the repo's CHANGES.md (`PR <N>`
/// mentions). Roots without a CHANGES.md — the fixtures — are PR 0, so
/// `expires:` bounds never fire there.
fn current_pr(root: &Path) -> u32 {
    let Ok(text) = std::fs::read_to_string(root.join("CHANGES.md")) else {
        return 0;
    };
    let mut max = 0u32;
    let mut words = text.split_whitespace();
    while let Some(w) = words.next() {
        if w == "PR" {
            if let Some(next) = words.clone().next() {
                let digits: String = next.chars().take_while(char::is_ascii_digit).collect();
                if let Ok(n) = digits.parse::<u32>() {
                    max = max.max(n);
                }
            }
        }
    }
    max
}

fn analyze(root: &Path, allowlist_path: Option<&Path>) -> Result<Outcome, String> {
    let server_src = root.join("crates/server/src");
    let workspace_mode = server_src.is_dir();

    let allow = {
        let default = root.join("crates/xtask/allowlist.txt");
        let chosen = allowlist_path
            .map(Path::to_path_buf)
            .or_else(|| default.is_file().then_some(default));
        match chosen {
            Some(p) => {
                let text =
                    std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
                lints::parse_allowlist(&text)?
            }
            None => Vec::new(),
        }
    };
    // Expired allowlist entries are findings in their own right and are
    // themselves never suppressible.
    let expired = lints::expired_entries(&allow, current_pr(root));

    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    let mut files_scanned = 0;
    let mut units: Vec<(PathBuf, Vec<cfg::FnDef>, Vec<source::Annotation>)> = Vec::new();
    let mut vocab = ledger::Vocabulary::default();
    let mut originals: BTreeMap<String, Vec<String>> = BTreeMap::new();

    let src_files = {
        let mut v = Vec::new();
        if workspace_mode {
            walk(&server_src, &mut v)?;
            let cluster_src = root.join("crates/cluster/src");
            if cluster_src.is_dir() {
                walk(&cluster_src, &mut v)?;
            }
        } else {
            walk(root, &mut v)?;
        }
        v
    };
    for path in &src_files {
        files_scanned += 1;
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let original: Vec<String> = src.lines().map(str::to_string).collect();
        let mut stripped = source::strip(&src);
        source::blank_test_mods(&mut stripped);
        let logical = source::logical_lines(&stripped, 1);
        lints::lint_src(
            path,
            &logical,
            &original,
            &allow,
            &mut findings,
            &mut suppressed,
        );
        if !workspace_mode {
            lints::lint_test(
                path,
                &logical,
                &original,
                &allow,
                &mut findings,
                &mut suppressed,
            );
        }
        let (toks, anns) = source::lex(&src);
        vocab.learn(&toks);
        units.push((path.clone(), cfg::functions(&toks), anns));
        originals.insert(path.to_string_lossy().to_string(), original);
    }

    if workspace_mode {
        for tests_dir in ["crates/server/tests", "crates/cluster/tests"] {
            let tests_dir = root.join(tests_dir);
            if !tests_dir.is_dir() {
                continue;
            }
            let mut test_files = Vec::new();
            walk(&tests_dir, &mut test_files)?;
            for path in test_files {
                if path.components().any(|c| c.as_os_str() == "common") {
                    continue; // tests/common owns the seed/rng plumbing
                }
                files_scanned += 1;
                let src = std::fs::read_to_string(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                let original: Vec<String> = src.lines().map(str::to_string).collect();
                let stripped = source::strip(&src);
                let logical = source::logical_lines(&stripped, 1);
                lints::lint_test(
                    &path,
                    &logical,
                    &original,
                    &allow,
                    &mut findings,
                    &mut suppressed,
                );
            }
        }
    }

    let pairs: Vec<(PathBuf, Vec<cfg::FnDef>)> = units
        .iter()
        .map(|(p, f, _)| (p.clone(), f.clone()))
        .collect();

    let ledger_report = ledger::analyze(&units, &vocab);
    let atomics_report = atomics::analyze(&pairs);

    // Pass findings go through the same allowlist as the lints: the
    // needle matches against the offending source line or the message.
    for mut f in ledger_report
        .findings
        .into_iter()
        .chain(atomics_report.findings)
    {
        let src_line = originals
            .get(&f.file)
            .and_then(|lines| lines.get(f.line.wrapping_sub(1)))
            .map(|s| s.trim().to_string())
            .unwrap_or_default();
        if !src_line.is_empty() {
            f.text = if f.text.is_empty() {
                src_line.clone()
            } else {
                format!("{src_line} — {}", f.text)
            };
        }
        let haystack = format!("{src_line}\n{}", f.message);
        if let Some(entry) = lints::is_allowed(&allow, &f.file, &haystack) {
            suppressed.push(format!(
                "{}:{}: allowed ({}): {}",
                f.file, f.line, f.pass, entry.reason
            ));
        } else {
            findings.push(f);
        }
    }

    findings.extend(expired);
    findings.sort_by(|a, b| (&a.file, a.line, a.pass).cmp(&(&b.file, b.line, b.pass)));

    Ok(Outcome {
        findings,
        suppressed,
        files_scanned,
        ledger_sites: ledger_report.sites,
        ledger_kinds: vocab.kinds,
        ledger_defers: ledger_report.defers,
        ordering_counts: atomics_report.counts,
        ledger_truncated: ledger_report.truncated,
    })
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

fn json_str_map(map: &BTreeMap<String, usize>) -> String {
    let inner: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("\"{}\":{v}", json_escape(k)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

/// Hand-rolled JSON (the workspace is dependency-free by policy).
fn render_json(outcome: &Outcome) -> String {
    let findings: Vec<String> = outcome
        .findings
        .iter()
        .map(|f| {
            format!(
                "{{\"pass\":\"{}\",\"severity\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\"snippet\":\"{}\",\"message\":\"{}\"}}",
                json_escape(f.pass),
                f.severity.as_str(),
                json_escape(&f.file),
                f.line,
                f.col,
                json_escape(&f.text),
                json_escape(&f.message),
            )
        })
        .collect();
    let quoted = |items: &[String]| -> String {
        let items: Vec<String> = items
            .iter()
            .map(|s| format!("\"{}\"", json_escape(s)))
            .collect();
        items.join(",")
    };
    format!(
        "{{\"findings\":[{}],\"suppressed\":[{}],\"summary\":{{\
         \"files_scanned\":{},\"ledger_sites\":{},\"ledger_kinds\":[{}],\"ledger_defers\":{},\
         \"ordering_counts\":{},\"ledger_paths_truncated\":[{}]}}}}",
        findings.join(","),
        quoted(&outcome.suppressed),
        outcome.files_scanned,
        json_str_map(&outcome.ledger_sites),
        quoted(&outcome.ledger_kinds),
        outcome.ledger_defers,
        json_str_map(&outcome.ordering_counts),
        quoted(&outcome.ledger_truncated),
    )
}

fn render_text(outcome: &Outcome) {
    for f in &outcome.findings {
        if f.line > 0 {
            eprintln!(
                "{}:{}:{}: {}: [{}] {}",
                f.file,
                f.line,
                f.col,
                f.severity.as_str(),
                f.pass,
                f.message
            );
        } else {
            eprintln!(
                "{}: {}: [{}] {}",
                f.file,
                f.severity.as_str(),
                f.pass,
                f.message
            );
        }
        if !f.text.is_empty() {
            eprintln!("    > {}", f.text);
        }
    }
    for s in &outcome.suppressed {
        eprintln!("{s}");
    }
    for t in &outcome.ledger_truncated {
        eprintln!("note: ledger path enumeration truncated in {t}");
    }
    let orderings: Vec<String> = outcome
        .ordering_counts
        .iter()
        .map(|(k, v)| format!("{k}:{v}"))
        .collect();
    eprintln!(
        "analyze: {} file(s), {} ledger site(s) ({} deferred), orderings {{{}}}, \
         {} finding(s), {} allowlisted",
        outcome.files_scanned,
        outcome.ledger_sites.values().sum::<usize>(),
        outcome.ledger_defers,
        orderings.join(", "),
        outcome.findings.len(),
        outcome.suppressed.len()
    );
}

fn usage() -> String {
    "usage: cargo run -p xtask -- analyze [--root PATH] [--allowlist PATH] [--format text|json]"
        .to_string()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("analyze") {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    }
    let mut root: Option<PathBuf> = None;
    let mut allowlist: Option<PathBuf> = None;
    let mut format = "text".to_string();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--root" if i + 1 < args.len() => {
                root = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--allowlist" if i + 1 < args.len() => {
                allowlist = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--format" if i + 1 < args.len() => {
                format = args[i + 1].clone();
                i += 2;
            }
            other => {
                eprintln!("unknown argument `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    if format != "text" && format != "json" {
        eprintln!("unknown format `{format}`\n{}", usage());
        return ExitCode::from(2);
    }
    // Default root: the workspace that contains this xtask.
    let root = root.unwrap_or_else(|| {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap_or_else(|_| PathBuf::from("."))
    });

    match analyze(&root, allowlist.as_deref()) {
        Ok(outcome) => {
            if format == "json" {
                println!("{}", render_json(&outcome));
            } else {
                render_text(&outcome);
            }
            if outcome.findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("analyze: error: {e}");
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
        let outcome = analyze(&root, None).unwrap();
        assert!(
            outcome.findings.is_empty(),
            "expected a clean tree, got: {:#?}",
            outcome.findings
        );
        // The pass reads its kinds from `enum SettleKind`; an admission
        // and every kind must be seen at some site, or it went blind.
        assert_eq!(outcome.ledger_kinds.len(), 5, "{:?}", outcome.ledger_kinds);
        let mut expected = vec!["admit".to_string(), "settle:evacuation_lost".to_string()];
        expected.extend(outcome.ledger_kinds.iter().map(|k| format!("settle:{k}")));
        for event in expected {
            assert!(
                outcome.ledger_sites.get(&event).copied().unwrap_or(0) > 0,
                "ledger pass saw no `{event}` site: {:?}",
                outcome.ledger_sites
            );
        }
        // One settle path: the census stays small, nothing is enumerated
        // blind, and deferrals do not creep back.
        assert!(
            outcome.ledger_truncated.is_empty(),
            "{:?}",
            outcome.ledger_truncated
        );
        assert!(outcome.ledger_defers <= 6, "{}", outcome.ledger_defers);
        let sites: usize = outcome.ledger_sites.values().sum();
        assert!(
            sites <= 25,
            "{sites} ledger sites: {:?}",
            outcome.ledger_sites
        );
        // Same for the ordering census, pinned: every ordering stronger
        // than `Relaxed` is half of a happens-before edge somebody argued
        // for, so one more or one fewer is a reviewed decision. PR 18:
        // AcqRel 13 → 14, Acquire 22 → 23 — the registry's `epoch`, bumped
        // by `publish` and loaded by every `TenantView::resolve`.
        // PR 20: Release 13 → 12 — `submit_op` and `advance_to` raise the
        // watermark through one `raise_watermark`, one store.
        // PR 22: Acquire 23 → 24, Release 12 → 13 — the scorer's EWMA,
        // published per device by `FaultPlane::observe` and loaded by
        // `service_estimate` instead of a hold of `fault.health`.
        let census = |ordering: &str| outcome.ordering_counts.get(ordering).copied();
        assert_eq!(
            (census("AcqRel"), census("Acquire"), census("Release")),
            (Some(14), Some(24), Some(13)),
            "{:?}",
            outcome.ordering_counts
        );
        // The documented-invariant sites must be allowlisted, not
        // invisible: each suppression is reported with its reason.
        assert_eq!(
            outcome.suppressed.len(),
            SUPPRESSED_IN_WORKSPACE,
            "allowlist drifted from the source: {:#?}",
            outcome.suppressed
        );
    }

    /// Pinned so the allowlist can't silently grow or rot: update this
    /// count (and the allowlist) together, in review. PR 17: 23 → 25 — the
    /// 2 ms sleep in `stress.rs` that lets the workers park between windows,
    /// and `Wal::log_seal`, whose one hold of the lock now spans the seal's
    /// fsync as well as the compaction (two sites where it had one). PR 19:
    /// 25 → 24 — `chaos.rs` waits on a settled count instead of sleeping.
    /// PR 20: 24 → 23 — `stress.rs`'s sleep went with its test, which now
    /// waits on the channel's parked flag — and back to 24: a stage is
    /// drained, flush included, under its own lock (`engine.stage`).
    /// Then 24 → 5: the guard-blocking pass went, and with it the 19 sites
    /// its seven entries matched — which class may block, and why, is
    /// `fqos_sync::Class::may_block` now, checked where the wait happens.
    const SUPPRESSED_IN_WORKSPACE: usize = 5;

    #[test]
    fn the_panic_path_fixture_is_caught() {
        let root = manifest_dir().join("fixtures/panic_path");
        let outcome = analyze(&root, None).unwrap();
        let msgs: Vec<&str> = outcome
            .findings
            .iter()
            .map(|f| f.message.as_str())
            .collect();
        assert!(msgs.iter().any(|m| m.contains("lock result")), "{msgs:#?}");
        assert!(msgs.iter().any(|m| m.contains("wall-clock")), "{msgs:#?}");
    }

    #[test]
    fn the_ledger_fixture_is_caught_at_both_seeded_sites() {
        let root = manifest_dir().join("fixtures/ledger_unbalanced");
        let outcome = analyze(&root, None).unwrap();
        let find = |needle: &str| {
            outcome
                .findings
                .iter()
                .find(|f| f.pass == "ledger-balance" && f.message.contains(needle))
                .unwrap_or_else(|| panic!("`{needle}` not caught: {:#?}", outcome.findings))
        };
        let leak = find("reaches no settle");
        assert_eq!(leak.severity, Severity::Error);
        // Span check: the finding anchors to the `.admit(` call.
        assert!(leak.text.contains("ledger.admit(true)"), "{leak:?}");
        let double = find("more than once");
        assert!(
            double.text.contains("settle(SettleKind::Served)"),
            "{double:?}"
        );
    }

    #[test]
    fn the_relaxed_flag_fixture_is_caught_with_its_span() {
        let root = manifest_dir().join("fixtures/relaxed_flag");
        let outcome = analyze(&root, None).unwrap();
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
        let outcome = analyze(&root, None).unwrap();
        assert!(outcome.findings.is_empty(), "{:#?}", outcome.findings);
    }

    #[test]
    fn json_output_is_well_formed_and_spanned() {
        let root = manifest_dir().join("fixtures/relaxed_flag");
        let outcome = analyze(&root, None).unwrap();
        let json = render_json(&outcome);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"pass\":\"atomic-ordering\""), "{json}");
        assert!(json.contains("\"severity\":\"error\""), "{json}");
        assert!(json.contains("\"line\":"), "{json}");
        assert!(json.contains("\"ordering_counts\":"), "{json}");
        // No raw control characters or unescaped quotes in string values.
        assert!(!json.contains('\n'));
    }

    #[test]
    fn json_escape_handles_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn current_pr_reads_the_changelog_high_water_mark() {
        let dir = std::env::temp_dir().join(format!("xtask-pr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("CHANGES.md"),
            "- PR 1: seed\n- PR 12: later\n- PR 3: other\n",
        )
        .unwrap();
        assert_eq!(current_pr(&dir), 12);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(current_pr(Path::new("/nonexistent")), 0);
    }
}
