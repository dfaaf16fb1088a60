//! Ledger-balance pass: path-sensitive conservation-law accounting.
//!
//! The workspace's correctness story rests on one conservation law,
//! written once in `crates/server/src/ledger.rs` (`Ledger::conserved`):
//! every admitted request settles exactly once. This pass takes its
//! vocabulary from that file as lexed — the fields of `struct Ledger` are
//! the law's *terms*, the variants of `enum SettleKind` its settle
//! *kinds* — and treats two call shapes elsewhere as the events:
//!
//! - `….admit(…)` counts one admission;
//! - `….settle(… SettleKind::K …)` settles one as kind `K` (a kind passed
//!   through in a variable is the single kind `*`).
//!
//! Per function it walks every acyclic entry→exit path of the CFG and
//! checks that
//!
//! - no path settles under two different kinds (a double settle), and
//! - a path that admits either reaches a settle, or carries a
//!   `// ledger: defer(<reason>)` annotation on or directly above the
//!   admitting statement — the documented way to say "settlement happens
//!   later, in <reason>" (the seal/worker pipeline settles admissions
//!   from an earlier submit call, for example).
//!
//! Outside `ledger.rs` no code may add to or subtract from a law term
//! directly: the arithmetic lives in that one module (covered by its own
//! unit and property tests, and exempt here).
//!
//! The cluster tier keeps three counters of its own, tracked by name:
//! `evacuation_lost` settles stranded admissions in bulk, and the WAL
//! recovery pair `recovered_admissions`/`recovered_lost` must be restored
//! together on every path — restoring one side only is precisely the
//! crash-recovery bug class PR 7 guarded against. `migrated_in_flight` is
//! a cross-function transit counter (incremented when an evacuation
//! starts, drained when it lands), so it is enumerated in the site census
//! but exempt from the per-path rule.
//!
//! Path enumeration is capped; functions that hit the cap are reported
//! in `truncated` and surfaced in the summary — never silently
//! under-checked.

use crate::cfg::{matching, Cfg, FnDef, Stmt};
use crate::source::{Annotation, Tok, TokKind};
use crate::{Finding, Severity};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Cluster-tier counter that settles stranded admissions in bulk.
const BULK_SETTLE: &str = "evacuation_lost";

/// Transit counter: moves admissions between arrays, settled elsewhere.
const TRANSIT: &str = "migrated_in_flight";

/// WAL recovery pair: must move together.
const PAIR: (&str, &str) = ("recovered_admissions", "recovered_lost");

/// What `ledger.rs` declares, as lexed: the terms of `struct Ledger` and
/// the variants of `enum SettleKind`.
#[derive(Debug, Default)]
pub struct Vocabulary {
    pub terms: Vec<String>,
    pub kinds: Vec<String>,
}

impl Vocabulary {
    /// Pick the declarations out of one file's tokens (a no-op for files
    /// that declare neither).
    pub fn learn(&mut self, toks: &[Tok]) {
        for k in 0..toks.len().saturating_sub(2) {
            if !toks[k + 2].is("{") {
                continue;
            }
            if toks[k].is_ident("struct") && toks[k + 1].is_ident("Ledger") {
                // Fields: an identifier directly followed by `:`.
                self.terms = braced_idents(toks, k + 2, ":");
            } else if toks[k].is_ident("enum") && toks[k + 1].is_ident("SettleKind") {
                // Variants: an identifier directly followed by `=` or `,`.
                let mut kinds = braced_idents(toks, k + 2, "=");
                kinds.extend(braced_idents(toks, k + 2, ","));
                self.kinds = kinds;
            }
        }
    }
}

/// Depth-1 identifiers of the braced block opening at `open` that are
/// directly followed by `after`, skipping `#[…]` attributes.
fn braced_idents(toks: &[Tok], open: usize, after: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    for k in open..matching(toks, open) {
        match toks[k].text.as_str() {
            "{" | "[" | "(" => depth += 1,
            "}" | "]" | ")" => depth -= 1,
            _ if depth == 1
                && toks[k].kind == TokKind::Ident
                && toks.get(k + 1).is_some_and(|n| n.is(after)) =>
            {
                out.push(toks[k].text.clone());
            }
            _ => {}
        }
    }
    out
}

/// One ledger event inside a statement.
#[derive(Debug, Clone)]
struct Event {
    what: What,
    line: usize,
    col: usize,
}

#[derive(Debug, Clone, PartialEq)]
enum What {
    /// `.admit(` call.
    Admit,
    /// `.settle(` call (kind literal, or `*` when passed through), or a
    /// raw bump of [`BULK_SETTLE`].
    Settle(String),
    /// `+=`/`-=`/`fetch_add`/`fetch_sub` on a `Ledger` term by name.
    RawTerm(String),
    /// Any mutation of a [`PAIR`] member or the [`TRANSIT`] counter.
    Tracked(String),
}

impl What {
    /// Census key.
    fn key(&self) -> String {
        match self {
            What::Admit => "admit".to_string(),
            What::Settle(k) => format!("settle:{k}"),
            What::RawTerm(t) | What::Tracked(t) => t.clone(),
        }
    }
}

/// Find the ledger events in one statement. Reads (`.load(…)`),
/// struct-literal field inits (`term: …`) and `fn admit(`/`fn settle(`
/// definitions are not events.
fn events(toks: &[Tok], vocab: &Vocabulary) -> Vec<Event> {
    let mut out = Vec::new();
    for k in 0..toks.len() {
        let t = &toks[k];
        if t.kind != TokKind::Ident {
            continue;
        }
        let method_call =
            k > 0 && toks[k - 1].is(".") && toks.get(k + 1).is_some_and(|n| n.is("("));
        let mutation = match (toks.get(k + 1), toks.get(k + 2), toks.get(k + 3)) {
            (Some(dot), Some(m), Some(open)) if dot.is(".") && open.is("(") => {
                matches!(m.text.as_str(), "fetch_add" | "fetch_sub")
                    || (m.is("store") && (t.is(PAIR.0) || t.is(PAIR.1)))
            }
            (Some(assign), _, _) => assign.is("+=") || assign.is("-="),
            _ => false,
        };
        let what = match t.text.as_str() {
            "admit" if method_call => What::Admit,
            "settle" if method_call => {
                let args = &toks[k + 2..matching(toks, k + 1)];
                let kind = args
                    .windows(3)
                    .find(|w| w[0].is_ident("SettleKind") && w[1].is("::"))
                    .map_or("*", |w| w[2].text.as_str());
                What::Settle(kind.to_string())
            }
            name if mutation && name == BULK_SETTLE => What::Settle(name.to_string()),
            name if mutation && (name == TRANSIT || name == PAIR.0 || name == PAIR.1) => {
                What::Tracked(name.to_string())
            }
            name if mutation && vocab.terms.iter().any(|f| f == name) => {
                What::RawTerm(name.to_string())
            }
            _ => continue,
        };
        out.push(Event {
            what,
            line: t.line,
            col: t.col,
        });
    }
    out
}

/// Does a `// ledger: defer(…)` annotation attach to this statement —
/// i.e. sit on the line directly above its first token, or on any line
/// the statement spans?
fn annotated(stmt: &Stmt, anns: &[Annotation]) -> bool {
    let first = stmt.toks.first().map_or(0, |t| t.line);
    let last = stmt.toks.last().map_or(first, |t| t.line);
    anns.iter()
        .any(|a| a.line + 1 >= first && a.line <= last && a.text.contains("defer("))
}

pub struct LedgerReport {
    pub findings: Vec<Finding>,
    /// Event census: `admit`, `settle:<kind>` and the cluster counters →
    /// number of sites.
    pub sites: BTreeMap<String, usize>,
    /// `// ledger: defer(…)` annotations in the analyzed files.
    pub defers: usize,
    /// Functions whose path enumeration hit the cap (reported, never
    /// silently under-checked).
    pub truncated: Vec<String>,
}

const PATH_CAP: usize = 4096;

/// `ledger.rs` is the law's definition: its term arithmetic is what every
/// event elsewhere calls into.
fn defines_the_law(path: &Path) -> bool {
    path.file_name().is_some_and(|n| n == "ledger.rs")
}

pub fn analyze(
    files: &[(PathBuf, Vec<FnDef>, Vec<Annotation>)],
    vocab: &Vocabulary,
) -> LedgerReport {
    let mut findings = Vec::new();
    let mut sites: BTreeMap<String, usize> = BTreeMap::new();
    let mut truncated = Vec::new();
    let mut defers = 0;

    for (path, fns, anns) in files {
        if defines_the_law(path) {
            continue;
        }
        defers += anns.iter().filter(|a| a.text.contains("defer(")).count();
        let file = path.to_string_lossy().to_string();
        let finding = |line: usize, col: usize, f: &FnDef, message: String| Finding {
            pass: "ledger-balance",
            severity: Severity::Error,
            file: file.clone(),
            line,
            col,
            text: format!("in fn {}", f.name),
            message,
        };
        for f in fns {
            let mut stmts = Vec::new();
            crate::cfg::all_stmts(&f.nodes, &mut stmts);
            let mut touches_law = false;
            for s in &stmts {
                for e in events(&s.toks, vocab) {
                    *sites.entry(e.what.key()).or_insert(0) += 1;
                    touches_law = true;
                    if let What::RawTerm(term) = &e.what {
                        findings.push(finding(
                            e.line,
                            e.col,
                            f,
                            format!(
                                "law term `{term}` is mutated outside ledger.rs; go through \
                                 `Ledger::admit`/`Ledger::settle` (or their atomic twins) so \
                                 the conservation law stays written once"
                            ),
                        ));
                    }
                }
            }
            if !touches_law {
                continue;
            }

            let cfg = Cfg::build(&f.nodes);
            let (paths, was_truncated) = cfg.paths(PATH_CAP);
            if was_truncated {
                truncated.push(format!(
                    "{file}: fn {} at line {} (cap {PATH_CAP})",
                    f.name, f.line
                ));
            }

            // Deduplicate: many paths share the same offending statement.
            let mut reported: BTreeSet<(usize, &'static str)> = BTreeSet::new();
            for path_stmts in &paths {
                let mut admit: Option<Event> = None;
                let mut admit_annotated = true;
                let mut kinds: BTreeMap<String, Event> = BTreeMap::new();
                let mut pair_a = 0usize;
                let mut pair_b = 0usize;
                let mut pair_line = 0usize;
                for s in path_stmts {
                    for e in events(&s.toks, vocab) {
                        match &e.what {
                            What::Admit => {
                                if !annotated(s, anns) {
                                    admit_annotated = false;
                                }
                                admit.get_or_insert(e);
                            }
                            What::Settle(kind) => {
                                kinds.entry(kind.clone()).or_insert(e);
                            }
                            What::Tracked(name) if name == PAIR.0 => {
                                pair_a += 1;
                                pair_line = e.line;
                            }
                            What::Tracked(name) if name == PAIR.1 => {
                                pair_b += 1;
                                pair_line = e.line;
                            }
                            What::Tracked(_) | What::RawTerm(_) => {}
                        }
                    }
                }
                if (pair_a > 0) != (pair_b > 0) && reported.insert((pair_line, "pair")) {
                    findings.push(finding(
                        pair_line,
                        0,
                        f,
                        format!(
                            "WAL recovery pair split: a path touches `{}` without `{}` \
                             (they must be restored together or the conservation audit \
                             diverges after crash recovery)",
                            if pair_a > 0 { PAIR.0 } else { PAIR.1 },
                            if pair_a > 0 { PAIR.1 } else { PAIR.0 },
                        ),
                    ));
                }
                if kinds.len() > 1 {
                    let second = kinds.values().max_by_key(|e| e.line).expect("two kinds");
                    if reported.insert((second.line, "double")) {
                        let names: Vec<&str> = kinds.keys().map(String::as_str).collect();
                        findings.push(finding(
                            second.line,
                            second.col,
                            f,
                            format!(
                                "path settles a single admission more than once \
                                 ({}); each admitted request must settle exactly once",
                                names.join(" and ")
                            ),
                        ));
                    }
                }
                let Some(adm) = admit else { continue };
                if !admit_annotated && kinds.is_empty() && reported.insert((adm.line, "leak")) {
                    findings.push(finding(
                        adm.line,
                        adm.col,
                        f,
                        "path admits (`.admit(`) but reaches no settle; settle on every \
                         path or annotate the admission with \
                         `// ledger: defer(<where it settles>)`"
                            .to_string(),
                    ));
                }
            }
        }
    }

    LedgerReport {
        findings,
        sites,
        defers,
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::functions;
    use crate::source::lex;

    /// The vocabulary the real `ledger.rs` declares, in miniature.
    const LAW: &str = "pub enum SettleKind {\n Served = 0,\n HedgeWin = 1,\n Lost = 2,\n}\npub struct Ledger {\n pub admitted: u64,\n pub served: u64,\n pub lost: u64,\n}\n";

    fn run(src: &str) -> LedgerReport {
        let mut vocab = Vocabulary::default();
        vocab.learn(&lex(LAW).0);
        let (toks, anns) = lex(src);
        let fns = functions(&toks);
        analyze(&[(PathBuf::from("engine.rs"), fns, anns)], &vocab)
    }

    #[test]
    fn vocabulary_is_read_from_the_declarations() {
        let mut vocab = Vocabulary::default();
        vocab.learn(&lex(LAW).0);
        assert_eq!(vocab.terms, ["admitted", "served", "lost"]);
        assert_eq!(vocab.kinds, ["Served", "HedgeWin", "Lost"]);
    }

    #[test]
    fn balanced_admit_and_settle_on_every_arm_is_clean() {
        let r = run(
            "impl E {\n fn go(&self, ok: bool) {\n  self.ledger.admit(true);\n  if ok {\n   self.ledger.settle(SettleKind::Served);\n  } else {\n   self.ledger.settle(SettleKind::Lost);\n  }\n }\n}",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.sites.get("admit"), Some(&1));
        assert_eq!(r.sites.get("settle:Served"), Some(&1));
        assert_eq!(r.sites.get("settle:Lost"), Some(&1));
    }

    #[test]
    fn unbalanced_arm_is_flagged_at_the_admit_site() {
        let r = run(
            "impl E {\n fn go(&self, ok: bool) {\n  self.ledger.admit(true);\n  if ok {\n   self.ledger.settle(SettleKind::Served);\n  }\n }\n}",
        );
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].line, 3);
        assert!(r.findings[0].message.contains("reaches no settle"));
    }

    #[test]
    fn deferral_annotation_silences_the_admit_and_is_counted() {
        let r = run(
            "impl E {\n fn admit_one(&self) {\n  // ledger: defer(settled by seal/drain)\n  self.ledger.admit(true);\n }\n}",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.defers, 1);
    }

    #[test]
    fn non_defer_ledger_comment_does_not_silence() {
        let r = run(
            "impl E {\n fn admit_one(&self) {\n  // ledger: note to self\n  self.ledger.admit(true);\n }\n}",
        );
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.defers, 0);
    }

    #[test]
    fn array_and_tenant_ledgers_of_one_kind_settle_once() {
        // The array's and the tenant's ledger both move for one logical
        // settlement; a passed-through kind is one kind too.
        let r = run(
            "impl E {\n fn settle(&self, kind: SettleKind) {\n  self.ledger.settle(kind);\n  t.counters.ledger.settle(kind);\n }\n fn lose(&self) {\n  self.ledger.settle(SettleKind::Lost);\n  t.counters.ledger.settle(SettleKind::Lost);\n }\n}",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.sites.get("settle:*"), Some(&2));
    }

    #[test]
    fn two_distinct_settle_kinds_on_one_path_is_a_double_settle() {
        // No admission on the path is needed: a worker that settles the
        // same dispatch as served *and* as a hedge win is the bug.
        let r = run(
            "impl E {\n fn go(&self) {\n  item.settle(engine, SettleKind::Served, fin);\n  item.settle(engine, SettleKind::HedgeWin, fin);\n }\n}",
        );
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert!(r.findings[0].message.contains("more than once"));
        assert_eq!(r.findings[0].line, 4);
    }

    #[test]
    fn try_operator_leaks_an_unsettled_admission() {
        // The `?` early exit creates a path where the admission never
        // settles — the crash-recovery bug class, caught statically.
        let r = run(
            "impl E {\n fn go(&self) -> Result<(), E> {\n  self.ledger.admit(true);\n  self.wal.log_admit()?;\n  self.ledger.settle(SettleKind::Served);\n  Ok(())\n }\n}",
        );
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].line, 3);
    }

    #[test]
    fn a_law_term_bumped_outside_ledger_rs_is_flagged() {
        let src = "impl E {\n fn go(&self) {\n  self.stats.served.fetch_add(1, O::Relaxed);\n  t.lost += 1;\n }\n}";
        let r = run(src);
        assert_eq!(r.findings.len(), 2, "{:?}", r.findings);
        assert!(r.findings[0].message.contains("outside ledger.rs"));
        // The same text inside ledger.rs is the definition itself.
        let mut vocab = Vocabulary::default();
        vocab.learn(&lex(LAW).0);
        let (toks, anns) = lex(src);
        let fns = functions(&toks);
        let r = analyze(&[(PathBuf::from("src/ledger.rs"), fns, anns)], &vocab);
        assert!(r.findings.is_empty() && r.sites.is_empty());
    }

    #[test]
    fn recovery_pair_split_is_flagged() {
        let r = run(
            "impl W {\n fn recover(&self, ok: bool) {\n  self.stats.recovered_admissions.store(n, O::Relaxed);\n  if ok {\n   self.stats.recovered_lost.store(m, O::Relaxed);\n  }\n }\n}",
        );
        assert!(
            r.findings.iter().any(|f| f.message.contains("pair split")),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn transit_counter_is_censused_but_exempt_from_the_path_rule() {
        let r = run(
            "impl C {\n fn evacuate(&self) {\n  self.metrics.migrated_in_flight.fetch_add(n, O::Relaxed);\n }\n}",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.sites.get("migrated_in_flight"), Some(&1));
    }

    #[test]
    fn loads_field_inits_and_definitions_are_not_events() {
        let r = run(
            "impl E {\n fn snap(&self) -> S {\n  let a = self.ledger.snapshot().admitted;\n  S { admitted: a, served: 0 }\n }\n fn admit(&self) {}\n fn settle(&self) {}\n}",
        );
        assert!(r.findings.is_empty());
        assert!(r.sites.is_empty(), "{:?}", r.sites);
    }
}
