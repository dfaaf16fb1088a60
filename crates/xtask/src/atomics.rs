//! Atomic-ordering audit: classify every `Ordering::*` use site and
//! flag `Relaxed` on flags that gate cross-thread control decisions.
//!
//! The rule: a *control flag* — one whose loaded value decides whether
//! another thread's writes are observed (`shutdown`, `closed`, tenant
//! `live`, fail-slow `live_slow`, router `epoch`, WAL `sealed_floor`,
//! dispatch `watermark`) — must publish with Release and observe with
//! Acquire (AcqRel for RMWs). `Relaxed` on a control flag orders nothing:
//! the flag flip can become visible before the writes it is supposed to
//! publish.
//!
//! Pure statistics counters (the `GlobalStats` tallies, per-tenant
//! served/lost counts) are deliberately Relaxed — they carry no
//! ordering obligation, only totals, and the audit leaves them alone.
//! There are no exceptions: a thread that needs its own last store of a
//! flag keeps a plain copy of it (`SubmitterHandle::watermark`).

use crate::source::{matching, Tok, TokKind};
use crate::{Finding, Outcome};

/// Flags gating cross-thread control decisions.
const CONTROL_FLAGS: &[&str] = &[
    "shutdown",
    "closed",
    "live",
    "live_slow",
    "epoch",
    "sealed_floor",
    "watermark",
];

const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Every function with a body, as its name and the token run between its
/// braces. A signature ends at the first `{` or `;` outside its brackets,
/// so `[u8; 32]` in a parameter list does not end it, and a trait method
/// declaration (`;` first) has no body.
fn functions(toks: &[Tok]) -> Vec<(&str, &[Tok])> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        let name = &toks[i + 1];
        if !toks[i].is_ident("fn") || name.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let mut depth = 0i32;
        i += 2;
        while let Some(t) = toks.get(i) {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    let close = matching(toks, i);
                    out.push((name.text.as_str(), &toks[i + 1..close.min(toks.len())]));
                    i = close;
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            i += 1;
        }
    }
    out
}

/// The atomic access governing the `Ordering::` token at `at`: the
/// nearest preceding `recv.method(` with an atomic method name, within
/// the statement or match arm (a `;`, brace or `=>` ends the search).
fn governing_access(toks: &[Tok], at: usize) -> Option<(&str, &str)> {
    for j in (1..at).rev() {
        let t = &toks[j];
        if matches!(t.text.as_str(), ";" | "{" | "}" | "=>") && t.kind == TokKind::Punct {
            return None;
        }
        if t.kind == TokKind::Ident
            && ATOMIC_METHODS.contains(&t.text.as_str())
            && toks[j - 1].is(".")
            && toks[j + 1].is("(")
        {
            let flag = toks
                .get(j.wrapping_sub(2))
                .filter(|f| f.kind == TokKind::Ident)
                .map_or("", |f| f.text.as_str());
            return Some((flag, &t.text));
        }
    }
    None
}

/// Count every ordering in the file's functions and report each `Relaxed`
/// access to a control flag.
pub fn audit(file: &str, toks: &[Tok], original: &[String], out: &mut Outcome) {
    for (name, body) in functions(toks) {
        for k in 0..body.len() {
            if !body[k].is_ident("Ordering") || !body.get(k + 1).is_some_and(|t| t.is("::")) {
                continue;
            }
            let Some(ord) = body.get(k + 2).filter(|t| t.kind == TokKind::Ident) else {
                continue;
            };
            *out.ordering_counts.entry(ord.text.clone()).or_insert(0) += 1;
            if ord.text != "Relaxed" {
                continue;
            }
            let Some((flag, method)) = governing_access(body, k) else {
                continue;
            };
            if !CONTROL_FLAGS.contains(&flag) {
                continue;
            }
            let src_line = original.get(ord.line - 1).map_or("", |s| s.trim());
            out.findings.push(Finding {
                pass: "atomic-ordering",
                file: file.to_string(),
                line: ord.line,
                col: ord.col,
                text: format!("{src_line} — in fn {name}"),
                message: format!(
                    "Relaxed ordering on control flag `{flag}` ({method}): \
                     this flag gates a cross-thread control decision and \
                     must publish with Release / observe with Acquire \
                     (AcqRel for RMWs)"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::lex;

    fn run(src: &str) -> Outcome {
        let original: Vec<String> = src.lines().map(str::to_string).collect();
        let mut out = Outcome::default();
        audit("engine.rs", &lex(src), &original, &mut out);
        out
    }

    #[test]
    fn segments_methods_free_functions_and_multi_line_signatures() {
        let toks = lex(
            "impl W {\n fn digest(\n  &self,\n  buf: [u8; 32],\n ) -> u64 {\n  g.sum()\n }\n}\n\
             trait T { fn decl(&self) -> u64; fn with_default(&self) { d(); } }\nfn free() { y(); }",
        );
        let names: Vec<&str> = functions(&toks).iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["digest", "with_default", "free"]);
    }

    #[test]
    fn classifies_every_ordering_site() {
        let r = run(
            "fn f(a: &A) {\n a.shutdown.store(true, Ordering::Release);\n let v = a.shutdown.load(Ordering::Acquire);\n a.admitted.fetch_add(1, Ordering::Relaxed);\n}",
        );
        assert_eq!(r.ordering_counts.get("Release"), Some(&1));
        assert_eq!(r.ordering_counts.get("Acquire"), Some(&1));
        assert_eq!(r.ordering_counts.get("Relaxed"), Some(&1));
    }

    #[test]
    fn relaxed_on_a_shutdown_flag_is_flagged_with_span() {
        let r = run("fn f(a: &A) {\n a.shutdown.store(true, Ordering::Relaxed);\n}");
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!((r.findings[0].line, r.findings[0].col), (2, 35));
        assert!(r.findings[0].message.contains("`shutdown` (store)"));
        assert!(r.findings[0].text.ends_with("— in fn f"));
    }

    #[test]
    fn relaxed_on_a_pure_statistics_counter_is_fine() {
        let r = run("fn f(a: &A) {\n a.admitted.fetch_add(1, Ordering::Relaxed);\n a.served.fetch_add(1, Ordering::Relaxed);\n}");
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn the_search_stops_at_the_statement() {
        let r = run("fn f(a: &A) {\n a.live.store(true, Ordering::Release);\n let o = Ordering::Relaxed;\n}");
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn acquire_release_on_control_flags_is_clean() {
        let r = run(
            "fn f(a: &A) {\n a.live_slow.store(true, Ordering::Release);\n if a.epoch.load(Ordering::Acquire) > e { return; }\n a.live.fetch_and(false, Ordering::AcqRel);\n}",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.ordering_counts.len(), 3);
    }

    #[test]
    fn compare_exchange_failure_ordering_is_audited_too() {
        let r = run(
            "fn f(a: &A) {\n a.epoch.compare_exchange(e, e + 1, Ordering::AcqRel, Ordering::Relaxed);\n}",
        );
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert!(r.findings[0].message.contains("`epoch`"));
    }
}
