//! Forbidden-pattern lints for the server and cluster crates. Three rule
//! sets:
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
//! A pattern is a run of tokens (`source::lex`), so comments, string
//! contents and line breaks inside a chain change nothing. The source an
//! allowlist needle is matched against runs from the pattern's line to
//! the line of its closing `)`, which keeps a multi-line `panic!` message
//! matchable. Every finding cross-references DESIGN.md "Concurrency
//! invariants".

use crate::source::{matching, spells, Tok};
use crate::{AllowEntry, Finding, Outcome};

/// One rule set: the pass it reports under and the token runs it forbids.
pub struct Rules {
    pass: &'static str,
    what: &'static str,
    needles: &'static [&'static [&'static str]],
}

const LOCK_UNWRAP: Rules = Rules {
    pass: "lint-lock-unwrap",
    what: "unwrap/expect on a lock result in the server hot path",
    needles: &[
        &[".", "lock", "(", ")", ".", "unwrap", "("],
        &[".", "lock", "(", ")", ".", "expect", "("],
        &[".", "try_lock", "(", ")", ".", "unwrap", "("],
        &[".", "read", "(", ")", ".", "unwrap", "("],
        &[".", "read", "(", ")", ".", "expect", "("],
        &[".", "write", "(", ")", ".", "unwrap", "("],
        &[".", "write", "(", ")", ".", "expect", "("],
    ],
};

const PANIC_PATH: Rules = Rules {
    pass: "lint-panic-path",
    what: "panic path in server code",
    needles: &[
        &[".", "unwrap", "(", ")"],
        &[".", "expect", "("],
        &["panic", "!", "("],
        &["todo", "!", "("],
        &["unimplemented", "!", "("],
    ],
};

const WALL_CLOCK: Rules = Rules {
    pass: "lint-wall-clock",
    what: "wall-clock in deterministic test code",
    needles: &[
        &["Instant", "::", "now", "("],
        &["SystemTime", "::", "now", "("],
        &["thread", "::", "sleep", "("],
    ],
};

/// Non-test `src` code. Lock-result unwraps come first, so that such a
/// chain is not reported a second time as a panic path.
pub const SRC: &[Rules] = &[LOCK_UNWRAP, PANIC_PATH];

/// Deterministic test code: everything under `tests/` but `tests/common`.
pub const TESTS: &[Rules] = &[WALL_CLOCK];

/// Report every forbidden token run of `rules` in `toks`, one per line.
pub fn lint(
    file: &str,
    toks: &[Tok],
    original: &[String],
    rules: &[Rules],
    allow: &[AllowEntry],
    out: &mut Outcome,
) {
    let mut last_line = 0;
    let mut i = 0;
    while i < toks.len() {
        let hit = rules.iter().find_map(|r| {
            let needle = r.needles.iter().find(|n| spells(toks, i, n))?;
            Some((r, *needle))
        });
        let Some((rule, needle)) = hit else {
            i += 1;
            continue;
        };
        let at = &toks[i];
        if at.line != last_line {
            last_line = at.line;
            let open = i + needle.iter().rposition(|t| *t == "(").unwrap_or(0);
            let close = &toks[matching(toks, open).min(toks.len() - 1)];
            let covered = original[at.line - 1..close.line.min(original.len())]
                .iter()
                .map(|s| s.trim())
                .collect::<Vec<_>>()
                .join(" ");
            let finding = Finding {
                pass: rule.pass,
                file: file.to_string(),
                line: at.line,
                col: at.col,
                text: covered.clone(),
                message: format!(
                    "{}: `{}` is forbidden here; handle the failure, use `assert!` \
                     for a documented invariant, or add an allowlist entry with a reason \
                     (see DESIGN.md \"Concurrency invariants\")",
                    rule.what,
                    needle.concat().trim_end_matches('(')
                ),
            };
            out.report(allow, finding, &covered);
        }
        i += needle.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_allowlist;
    use crate::source::lex;

    fn run(src: &str, rules: &[Rules], allow: &[AllowEntry]) -> Outcome {
        let original: Vec<String> = src.lines().map(str::to_string).collect();
        let mut out = Outcome::default();
        lint(
            "crates/server/src/window.rs",
            &lex(src),
            &original,
            rules,
            allow,
            &mut out,
        );
        out
    }

    #[test]
    fn flags_lock_unwrap_and_panic_paths_once_each() {
        let out = run(
            "let g = m.lock().unwrap();\nlet v = x.take().expect(\"set\");",
            SRC,
            &[],
        );
        let passes: Vec<_> = out
            .findings
            .iter()
            .map(|f| (f.pass, f.line, f.col))
            .collect();
        assert_eq!(
            passes,
            [("lint-lock-unwrap", 1, 10), ("lint-panic-path", 2, 17)]
        );
        assert!(out.findings[1].message.contains("`.expect`"));
    }

    #[test]
    fn multi_line_chains_are_still_caught() {
        let out = run("let g = m\n    .lock()\n    .unwrap();", SRC, &[]);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert_eq!(out.findings[0].pass, "lint-lock-unwrap");
    }

    #[test]
    fn comments_and_strings_do_not_trigger() {
        let out = run(
            "// m.lock().unwrap()\nlet s = \"panic!(boom)\";\nlet ok = v.unwrap_or(1);",
            SRC,
            &[],
        );
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn allowlist_matches_a_multi_line_panic_message() {
        let allow = parse_allowlist(
            "window.rs | admission into window | the watermark protocol forbids it\n",
        )
        .unwrap();
        let out = run(
            "assert!(ok);\npanic!(\n    \"admission into window {w} after its seal\",\n    s.window\n);",
            SRC,
            &allow,
        );
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(
            out.suppressed,
            ["crates/server/src/window.rs:2: allowed (lint-panic-path): the watermark protocol forbids it"]
        );
    }

    #[test]
    fn wall_clock_in_tests_is_flagged() {
        let out = run("let t0 = std::time::Instant::now();", TESTS, &[]);
        assert_eq!(out.findings.len(), 1);
        assert!(run("let t0 = std::time::Instant::now();", SRC, &[])
            .findings
            .is_empty());
    }
}
