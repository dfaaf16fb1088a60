//! Forbidden-pattern lints for the server crate, with an allowlist for
//! documented-invariant exceptions. Three rule sets:
//!
//! 1. **lock-unwrap** (src): `unwrap()`/`expect()` chained onto a lock
//!    acquisition. The repo's locks (`fqos-sync`'s, and the `interleave`
//!    twins under `model-check`) return guards directly
//!    with poison recovery, so a lock result unwrap is always a
//!    reintroduced std-style call that will panic-poison under contention.
//! 2. **panic-path** (src): `unwrap()`, `expect(…)`, `panic!`, `todo!`,
//!    `unimplemented!` in non-test engine code. The serving hot path must
//!    degrade (reject, count, reroute) rather than unwind — a panic in a
//!    worker or under a lock turns one bad request into a stuck engine.
//!    Documented invariants use `assert!` (which the lint ignores) or an
//!    allowlist entry explaining why the invariant holds.
//! 3. **wall-clock** (tests outside `tests/common`): `Instant::now`,
//!    `SystemTime`, `thread::sleep`. The test suites are deterministic
//!    replays over simulated time (`FQOS_TEST_SEED`); wall-clock reads
//!    make failures irreproducible.
//!
//! Pattern matching runs on *stripped* logical lines (so comments and
//! string contents can't trigger a lint), but allowlist needles and the
//! reported snippet use the original source text of the covered lines.
//! Every finding cross-references DESIGN.md "Concurrency invariants".

use crate::source::LogicalLine;
use crate::{Finding, Severity};
use std::path::Path;

/// One allowlist entry: a finding is suppressed when its file path ends
/// with `path_suffix` and the flagged source text (or, for the
/// pass-level findings, the diagnostic message) contains `needle`.
#[derive(Debug)]
pub struct AllowEntry {
    pub path_suffix: String,
    pub needle: String,
    pub reason: String,
    /// Optional `expires: PR<N>` bound: once the repo reaches PR N the
    /// entry fails the run instead of suppressing — temporary exceptions
    /// can't quietly become permanent.
    pub expires: Option<u32>,
    pub line: usize,
}

/// Parse the allowlist format, one entry per line, `#` comments:
///
/// ```text
/// path-suffix | needle | reason
/// path-suffix | needle | reason | expires: PR<N>
/// ```
///
/// The reason is mandatory — an exception nobody can explain is a bug.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.splitn(4, '|').map(str::trim).collect();
        if parts.len() < 3 || parts[..3].iter().any(|p| p.is_empty()) {
            return Err(format!(
                "allowlist line {}: expected `path-suffix | needle | reason [| expires: PR<N>]`, got `{line}`",
                i + 1
            ));
        }
        let expires = match parts.get(3) {
            None => None,
            Some(f) => {
                let n = f
                    .strip_prefix("expires:")
                    .map(str::trim)
                    .and_then(|p| p.strip_prefix("PR"))
                    .and_then(|n| n.trim().parse::<u32>().ok());
                match n {
                    Some(n) => Some(n),
                    None => {
                        return Err(format!(
                            "allowlist line {}: fourth field must be `expires: PR<N>`, got `{f}`",
                            i + 1
                        ))
                    }
                }
            }
        };
        out.push(AllowEntry {
            path_suffix: parts[0].to_string(),
            needle: parts[1].to_string(),
            reason: parts[2].to_string(),
            expires,
            line: i + 1,
        });
    }
    Ok(out)
}

/// Expired entries become findings: the exception's bound has passed and
/// the underlying issue must now be fixed (or the bound consciously
/// extended in review).
pub fn expired_entries(allow: &[AllowEntry], current_pr: u32) -> Vec<Finding> {
    allow
        .iter()
        .filter(|e| e.expires.is_some_and(|n| current_pr >= n))
        .map(|e| Finding {
            pass: "allowlist",
            severity: Severity::Error,
            file: "crates/xtask/allowlist.txt".to_string(),
            line: e.line,
            col: 0,
            text: format!("{} | {}", e.path_suffix, e.needle),
            message: format!(
                "allowlist entry expired at PR {} (repo is at PR {current_pr}): \
                 fix the underlying finding or consciously extend the bound \
                 — reason was: {}",
                e.expires.unwrap_or(0),
                e.reason
            ),
        })
        .collect()
}

pub fn is_allowed<'a>(
    allow: &'a [AllowEntry],
    file: &str,
    source_text: &str,
) -> Option<&'a AllowEntry> {
    allow
        .iter()
        .find(|e| file.ends_with(&e.path_suffix) && source_text.contains(&e.needle))
}

const LOCK_UNWRAP: &[&str] = &[
    ".lock().unwrap(",
    ".lock().expect(",
    ".try_lock().unwrap(",
    ".read().unwrap(",
    ".read().expect(",
    ".write().unwrap(",
    ".write().expect(",
];

const PANIC_PATH: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "todo!(",
    "unimplemented!(",
];

const WALL_CLOCK: &[&str] = &["Instant::now(", "SystemTime::now(", "thread::sleep("];

/// The original source text covered by a logical line: from its starting
/// physical line up to (exclusive) the next logical line's start.
fn covered_source(l: &LogicalLine, next_start: Option<usize>, original: &[String]) -> String {
    let from = l.line.saturating_sub(1);
    let to = next_start
        .map(|n| n.saturating_sub(1))
        .unwrap_or(original.len())
        .max(from + 1)
        .min(original.len());
    original[from..to]
        .iter()
        .map(|s| s.trim())
        .collect::<Vec<_>>()
        .join(" ")
}

#[allow(clippy::too_many_arguments)] // flat plumbing shared by all three rule sets
fn scan(
    path: &Path,
    logical: &[LogicalLine],
    original: &[String],
    needles: &[&str],
    pass: &'static str,
    what: &str,
    allow: &[AllowEntry],
    findings: &mut Vec<Finding>,
    suppressed: &mut Vec<String>,
) {
    let file = path.to_string_lossy().to_string();
    for (i, l) in logical.iter().enumerate() {
        for needle in needles {
            if l.text.contains(needle) {
                let source = covered_source(l, logical.get(i + 1).map(|n| n.line), original);
                if let Some(entry) = is_allowed(allow, &file, &source) {
                    suppressed.push(format!("{file}:{}: allowed: {}", l.line, entry.reason));
                } else {
                    findings.push(Finding {
                        pass,
                        severity: Severity::Error,
                        file: file.clone(),
                        line: l.line,
                        col: 0,
                        text: source,
                        message: format!(
                            "{what}: `{}` is forbidden here; handle the failure, use `assert!` \
                             for a documented invariant, or add an allowlist entry with a reason \
                             (see DESIGN.md \"Concurrency invariants\")",
                            needle.trim_end_matches('(')
                        ),
                    });
                }
                break; // one finding per logical line is enough
            }
        }
    }
}

/// Lint non-test `src` code: lock-result unwraps and panic paths.
pub fn lint_src(
    path: &Path,
    logical: &[LogicalLine],
    original: &[String],
    allow: &[AllowEntry],
    findings: &mut Vec<Finding>,
    suppressed: &mut Vec<String>,
) {
    scan(
        path,
        logical,
        original,
        LOCK_UNWRAP,
        "lint-lock-unwrap",
        "unwrap/expect on a lock result in the server hot path",
        allow,
        findings,
        suppressed,
    );
    // Don't double-report a lock-unwrap line under panic-path.
    let flagged: Vec<usize> = findings
        .iter()
        .filter(|f| f.file == path.to_string_lossy())
        .map(|f| f.line)
        .collect();
    let remaining: Vec<LogicalLine> = logical
        .iter()
        .filter(|l| !flagged.contains(&l.line))
        .cloned()
        .collect();
    scan(
        path,
        &remaining,
        original,
        PANIC_PATH,
        "lint-panic-path",
        "panic path in server code",
        allow,
        findings,
        suppressed,
    );
}

/// Lint deterministic test code (everything under `tests/` except
/// `tests/common`): wall-clock reads and sleeps.
pub fn lint_test(
    path: &Path,
    logical: &[LogicalLine],
    original: &[String],
    allow: &[AllowEntry],
    findings: &mut Vec<Finding>,
    suppressed: &mut Vec<String>,
) {
    scan(
        path,
        logical,
        original,
        WALL_CLOCK,
        "lint-wall-clock",
        "wall-clock in deterministic test code",
        allow,
        findings,
        suppressed,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{logical_lines, strip};
    use std::path::PathBuf;

    fn prep(src: &str) -> (Vec<LogicalLine>, Vec<String>) {
        let original: Vec<String> = src.lines().map(str::to_string).collect();
        (logical_lines(&strip(src), 1), original)
    }

    #[test]
    fn flags_lock_unwrap_and_panic_paths() {
        let (logical, original) =
            prep("let g = m.lock().unwrap();\nlet v = x.take().expect(\"set\");");
        let mut findings = Vec::new();
        let mut supp = Vec::new();
        lint_src(
            &PathBuf::from("engine.rs"),
            &logical,
            &original,
            &[],
            &mut findings,
            &mut supp,
        );
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].message.contains("lock result"));
        assert!(findings[1].message.contains("panic path"));
    }

    #[test]
    fn multi_line_chains_are_still_caught() {
        let (logical, original) = prep("let g = m\n    .lock()\n    .unwrap();");
        let mut findings = Vec::new();
        let mut supp = Vec::new();
        lint_src(
            &PathBuf::from("engine.rs"),
            &logical,
            &original,
            &[],
            &mut findings,
            &mut supp,
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn comments_and_strings_do_not_trigger() {
        let (logical, original) =
            prep("// m.lock().unwrap()\nlet s = \"panic!(boom)\";\nlet ok = 1;");
        let mut findings = Vec::new();
        let mut supp = Vec::new();
        lint_src(
            &PathBuf::from("engine.rs"),
            &logical,
            &original,
            &[],
            &mut findings,
            &mut supp,
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn allowlist_suppresses_with_reason() {
        let allow = parse_allowlist(
            "window.rs | expect(\"flow mode\") | slot state is mode-checked at reset\n",
        )
        .unwrap();
        let (logical, original) = prep("let f = s.flow.as_mut().expect(\"flow mode\");");
        let mut findings = Vec::new();
        let mut supp = Vec::new();
        lint_src(
            &PathBuf::from("crates/server/src/window.rs"),
            &logical,
            &original,
            &allow,
            &mut findings,
            &mut supp,
        );
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(supp.len(), 1, "{supp:?}");
        assert!(supp[0].contains("mode-checked at reset"), "{supp:?}");
    }

    #[test]
    fn allowlist_rejects_entries_without_a_reason() {
        assert!(parse_allowlist("window.rs | expect(\"flow mode\")").is_err());
    }

    #[test]
    fn allowlist_parses_an_expires_bound() {
        let allow = parse_allowlist("window.rs | needle | reason | expires: PR12\n").unwrap();
        assert_eq!(allow[0].expires, Some(12));
        assert!(expired_entries(&allow, 11).is_empty());
        let expired = expired_entries(&allow, 12);
        assert_eq!(expired.len(), 1);
        assert!(expired[0].message.contains("expired at PR 12"));
    }

    #[test]
    fn allowlist_rejects_a_malformed_expires_field() {
        assert!(parse_allowlist("window.rs | needle | reason | expires: someday").is_err());
        assert!(parse_allowlist("window.rs | needle | reason | until: PR12").is_err());
    }

    #[test]
    fn entries_without_expires_never_expire() {
        let allow = parse_allowlist("window.rs | needle | reason\n").unwrap();
        assert!(expired_entries(&allow, 9999).is_empty());
    }

    #[test]
    fn wall_clock_in_tests_is_flagged() {
        let (logical, original) = prep("let t0 = Instant::now();");
        let mut findings = Vec::new();
        let mut supp = Vec::new();
        lint_test(
            &PathBuf::from("tests/stress.rs"),
            &logical,
            &original,
            &[],
            &mut findings,
            &mut supp,
        );
        assert_eq!(findings.len(), 1);
    }
}
