//! Lock-order and guard-across-blocking analysis over the per-function
//! statement trees (`cfg.rs`) — see DESIGN.md, "Concurrency invariants".
//!
//! The pass extracts every lock-acquisition site per function, builds
//! the may-hold-while-acquiring graph (direct nesting plus calls into
//! functions that acquire, as a call-graph fixpoint) and checks it
//! against the documented hierarchy. Guard lifetimes follow the tree:
//!
//! - a `let`-bound guard is held until its enclosing block ends or an
//!   explicit `drop(name)` appears;
//! - a guard acquired in an `if`/`match`/`while`/`for` head is held
//!   through that construct's branches;
//! - any other acquisition is a temporary held to the end of its
//!   statement;
//! - `spawn(move || …)` closure bodies are detached functions — guards
//!   held at the spawn site are not held inside them (cfg.rs cuts them
//!   out before this pass runs).
//!
//! Call resolution is owner-aware: `Type::name(…)` and `self.name(…)`
//! resolve against that type's methods only, and a receiver-hint table
//! maps well-known binding names (`router`, `registry`, `wal`, …) to
//! their types. Unhinted receivers and bare names still merge every
//! same-name function (over-approximate, the safe direction), except a
//! short documented never-resolve list where merging fabricated edges.
//!
//! The same guard simulation feeds **guard-across-blocking**: an
//! *exclusive* guard (mutex or write lock) live across a blocking
//! operation — fsync, channel send/recv, thread join, sleep, condvar
//! wait, subprocess I/O — stalls every contender for the duration, so
//! each such site must be restructured or allowlisted with a reason.
//! Shared (`read()`) guards are exempt: readers don't serialize
//! readers, and the submit path holds `engine.quiesce` read-side for
//! its whole duration by design.

use crate::cfg::{all_stmts, FnDef, Node, Stmt};
use crate::source::{Tok, TokKind};
use crate::{Finding, Severity};
use std::collections::{BTreeMap, BTreeSet};

/// The documented lock hierarchy, outermost first. An edge `A -> B`
/// (B acquired while A is held) is legal iff A appears strictly before B
/// here. Keep this table in sync with DESIGN.md "Concurrency invariants".
pub const HIERARCHY: &[(&str, &str)] = &[
    (
        "cluster.ctrl",
        "global control-loop state (fqos-cluster cluster.rs Shared::ctrl) \
         — held across a whole control tick, above every engine class",
    ),
    (
        "cluster.router",
        "tenant placement ring (fqos-cluster cluster.rs Shared::router)",
    ),
    (
        "cluster.arrays",
        "array slot table (fqos-cluster cluster.rs Shared::arrays, RwLock) \
         — kill/restore/add take the write lock, submit paths the read lock",
    ),
    (
        "cluster.health",
        "array liveness scorer (fqos-cluster cluster.rs Shared::liveness) \
         — probed under the slot table, below every cluster class",
    ),
    (
        "engine.quiesce",
        "submission quiesce gate (engine.rs Engine::quiesce, RwLock) \
         — every submit holds the read side for its full duration; halt \
         passes through the write side once after setting shutdown",
    ),
    (
        "engine.dispatch",
        "seal/dispatch state (engine.rs Engine::dispatch)",
    ),
    (
        "registry.admission",
        "aggregate S(M) admission (registry.rs TenantRegistry::admission)",
    ),
    (
        "engine.handles",
        "open submitter-handle list (engine.rs Engine::handles)",
    ),
    (
        "engine.stat_counters",
        "statistical admission counters (engine.rs StatState::counters)",
    ),
    (
        "window.slot",
        "per-window ring slot (window.rs WindowRing::slots[_])",
    ),
    (
        "registry.shard",
        "tenant lookup shard (registry.rs TenantRegistry::shards[_])",
    ),
    (
        "fault.inner",
        "fault-plane event log (fault.rs FaultPlane::inner)",
    ),
    (
        "fault.health",
        "device health scorer (fault.rs FaultPlane::health)",
    ),
    (
        "engine.hedge",
        "hedge frontiers (engine.rs Engine::hedge) — no lock other than \
         `engine.stage` and `engine.wal` may be acquired under it",
    ),
    (
        "engine.stage",
        "one thread's staged WAL records (wal.rs Stage::staged) — taken by \
         its owner per record and by cold paths that drain every stage, \
         one at a time; the thread that seals holds several at once (its \
         handle's, then every worker's in index order), only ever under \
         `engine.dispatch`, so no two threads do — same-class nesting is \
         not an edge of this graph, the order is wal.rs's to keep; only \
         `engine.wal` may be acquired under it",
    ),
    (
        "engine.wal",
        "write-ahead log inner state (wal.rs Wal::wal) — leaf: no lock may \
         be acquired under it",
    ),
];

pub fn class_name(class: usize) -> &'static str {
    HIERARCHY[class].0
}

fn class_index(name: &str) -> usize {
    HIERARCHY
        .iter()
        .position(|(n, _)| *n == name)
        .expect("class name in HIERARCHY")
}

/// Binding names whose receiver type is known. A hinted receiver
/// resolves *only* against the named types — the collision killer: a
/// method name shared with an unrelated type no longer merges their
/// acquisition sets through hinted call sites.
const RECEIVER_HINTS: &[(&str, &[&str])] = &[
    ("router", &["Router"]),
    ("registry", &["TenantRegistry"]),
    ("wal", &["Wal", "WalInner", "WalState"]),
    ("stage", &["Stage"]),
    ("fault", &["FaultPlane"]),
    ("engine", &["Engine"]),
    ("liveness", &["HealthPlane"]),
    ("health", &["HealthBoard", "HealthPlane"]),
    ("ring", &["WindowRing"]),
    ("cluster", &["QosCluster"]),
    ("server", &["QosServer"]),
    ("srv", &["QosServer"]),
    ("handle", &["ClusterHandle", "SubmitterHandle"]),
    ("inner", &["PlaneInner", "WalInner"]),
    // `admit`/`settle` are one vocabulary across the ledger, the WAL's
    // materialized state, a dispatched item and the engine; only the
    // engine's take locks.
    ("ledger", &["Ledger", "AtomicLedger"]),
    ("state", &["WalState"]),
    ("item", &["WorkItem"]),
];

/// Names never resolved through bare/unhinted forms: merging them
/// across same-name functions fabricated edges. `new` would alias every
/// `Arc::new`/`Vec::new` onto crate constructors; `submit` the flashsim
/// device twin onto `SubmitterHandle::submit`; `recover` the pure
/// `FaultSchedule::recover` builder onto `QosServer::recover`; `metrics`
/// `QosServer::metrics` onto `QosCluster::metrics`; `get` every
/// `HashMap::get`; `drop` would alias `std::mem::drop` (every
/// guard-release site) onto `Drop` impls, which are never invoked as a
/// bare call. Qualified (`Type::name`), `self.`, and hinted forms still
/// resolve these precisely.
const NEVER_RESOLVE_BARE: &[&str] = &["new", "submit", "recover", "metrics", "get", "drop"];

/// One lock-acquisition event inside a statement.
#[derive(Debug, Clone, Copy)]
pub struct Acq {
    pub class: usize,
    pub exclusive: bool,
    /// Token index of the acquiring method (`lock`/`read`/`write`).
    pub idx: usize,
    pub line: usize,
    pub col: usize,
}

fn matching(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

/// Classify every lock acquisition in a statement's tokens.
pub fn acquisitions(file_name: &str, toks: &[Tok]) -> Vec<Acq> {
    // (field, method, class, exclusive)
    const TABLE: &[(&str, &str, &str, bool)] = &[
        ("ctrl", "lock", "cluster.ctrl", true),
        ("router", "lock", "cluster.router", true),
        ("arrays", "read", "cluster.arrays", false),
        ("arrays", "write", "cluster.arrays", true),
        ("liveness", "lock", "cluster.health", true),
        ("quiesce", "read", "engine.quiesce", false),
        ("quiesce", "write", "engine.quiesce", true),
        ("dispatch", "lock", "engine.dispatch", true),
        ("admission", "lock", "registry.admission", true),
        ("handles", "lock", "engine.handles", true),
        ("counters", "lock", "engine.stat_counters", true),
        ("inner", "lock", "fault.inner", true),
        ("health", "lock", "fault.health", true),
        ("hedge", "lock", "engine.hedge", true),
        ("staged", "lock", "engine.stage", true),
        ("wal", "lock", "engine.wal", true),
    ];
    let mut out: Vec<Acq> = Vec::new();
    let mut push = |class: &str, exclusive: bool, idx: usize, t: &Tok| {
        if !out.iter().any(|a| a.idx == idx) {
            out.push(Acq {
                class: class_index(class),
                exclusive,
                idx,
                line: t.line,
                col: t.col,
            });
        }
    };
    let has_shard_recv = toks
        .iter()
        .zip(toks.iter().skip(1))
        .any(|(a, b)| a.is_ident("shard") && b.is("("));
    for k in 0..toks.len() {
        let field = &toks[k];
        if field.kind != TokKind::Ident {
            continue;
        }
        if let (Some(dot), Some(method), Some(open)) =
            (toks.get(k + 1), toks.get(k + 2), toks.get(k + 3))
        {
            if dot.is(".") && method.kind == TokKind::Ident && open.is("(") {
                for (f, m, class, excl) in TABLE {
                    if field.text == *f && method.text == *m {
                        // RwLock read()/write() take no arguments; requiring
                        // the empty call keeps `file.read(buf)` out.
                        let rw = *m != "lock";
                        if !rw || toks.get(k + 4).is_some_and(|t| t.is(")")) {
                            push(class, *excl, k + 2, method);
                        }
                    }
                }
            }
        }
        // Registry shard RwLock: any bare `.read()`/`.write()` inside
        // registry.rs (the shard vec is its only RwLock), or in a
        // statement that calls `shard(…)`. The receiver is usually a call
        // expression (`self.shard(t).write()`), so this matches on the
        // method token rather than a field identifier; acquisitions the
        // field table already claimed are deduplicated by token index.
        if (file_name.ends_with("registry.rs") || has_shard_recv)
            && (field.is_ident("read") || field.is_ident("write"))
            && k > 0
            && toks[k - 1].is(".")
            && toks.get(k + 1).is_some_and(|t| t.is("("))
            && toks.get(k + 2).is_some_and(|t| t.is(")"))
        {
            push("registry.shard", field.is_ident("write"), k, field);
        }
        // Ring slot: `slot(…).lock()`.
        if field.is_ident("slot") && toks.get(k + 1).is_some_and(|t| t.is("(")) {
            let close = matching(toks, k + 1);
            if toks.get(close + 1).is_some_and(|t| t.is("."))
                && toks.get(close + 2).is_some_and(|t| t.is_ident("lock"))
                && toks.get(close + 3).is_some_and(|t| t.is("("))
            {
                let m = &toks[close + 2];
                push("window.slot", true, close + 2, m);
            }
        }
    }
    out.sort_by_key(|a| a.idx);
    out
}

/// One blocking operation inside a statement.
#[derive(Debug, Clone)]
struct BlockingOp {
    idx: usize,
    what: String,
    line: usize,
    col: usize,
}

/// Direct blocking primitives: fsync, channel send/recv, thread join,
/// sleep, condvar wait, subprocess I/O.
fn blocking_ops(toks: &[Tok]) -> Vec<BlockingOp> {
    let mut out = Vec::new();
    let has_command = toks.iter().any(|t| t.is_ident("Command"));
    for k in 0..toks.len() {
        let t = &toks[k];
        if t.kind != TokKind::Ident {
            continue;
        }
        let method_call =
            k > 0 && toks[k - 1].is(".") && toks.get(k + 1).is_some_and(|n| n.is("("));
        let bare_call = toks.get(k + 1).is_some_and(|n| n.is("("));
        let what: Option<&str> = match t.text.as_str() {
            "sync_all" | "sync_data" if method_call => Some("fsync"),
            "send" | "recv" | "recv_idle" | "recv_timeout" | "recv_deadline" if method_call => {
                Some("channel send/recv")
            }
            "join" if method_call && toks.get(k + 2).is_some_and(|n| n.is(")")) => {
                Some("thread join")
            }
            "sleep" if bare_call => Some("sleep"),
            "wait" | "wait_timeout" if method_call => Some("blocking wait"),
            "output" | "status" if method_call && has_command => Some("subprocess I/O"),
            _ => None,
        };
        if let Some(w) = what {
            out.push(BlockingOp {
                idx: k,
                what: w.to_string(),
                line: t.line,
                col: t.col,
            });
        }
    }
    out
}

/// How a call site names its target.
#[derive(Debug, Clone)]
enum CallForm {
    /// `Type::name(…)`
    Qualified(String),
    /// `recv.name(…)`
    Receiver(String),
    /// `expr….name(…)` — receiver unknowable
    Chain,
    /// `name(…)`
    Bare,
}

#[derive(Debug, Clone)]
struct CallSite {
    name: String,
    form: CallForm,
    idx: usize,
}

/// Extract call sites (ident directly followed by `(`), skipping token
/// indexes already claimed by acquisition events.
fn call_sites(toks: &[Tok], skip: &BTreeSet<usize>) -> Vec<CallSite> {
    let mut out = Vec::new();
    for k in 0..toks.len() {
        if toks[k].kind != TokKind::Ident
            || !toks.get(k + 1).is_some_and(|n| n.is("("))
            || skip.contains(&k)
        {
            continue;
        }
        let form = if k >= 2 && toks[k - 1].is("::") && toks[k - 2].kind == TokKind::Ident {
            CallForm::Qualified(toks[k - 2].text.clone())
        } else if k >= 1 && toks[k - 1].is(".") {
            match toks.get(k.wrapping_sub(2)) {
                Some(r) if r.kind == TokKind::Ident => CallForm::Receiver(r.text.clone()),
                _ => CallForm::Chain,
            }
        } else {
            CallForm::Bare
        };
        out.push(CallSite {
            name: toks[k].text.clone(),
            form,
            idx: k,
        });
    }
    out
}

fn fn_key(owner: Option<&str>, name: &str) -> String {
    match owner {
        Some(o) => format!("{o}::{name}"),
        None => name.to_string(),
    }
}

#[derive(Default, Clone)]
struct Facts {
    /// Classes acquired directly anywhere in the body.
    direct: BTreeSet<usize>,
    /// Keys of crate functions called anywhere in the body.
    calls: BTreeSet<String>,
    /// Guard this function returns, if its signature returns one.
    returns_guard: Option<(usize, bool)>,
    /// Contains a direct blocking primitive.
    blocks_directly: Option<String>,
}

#[derive(Debug, Clone)]
pub struct Edge {
    pub from: usize,
    pub to: usize,
    pub file: String,
    pub line: usize,
    pub col: usize,
    pub function: String,
}

pub struct LockReport {
    pub edges: Vec<Edge>,
    pub findings: Vec<Finding>,
    pub functions_analyzed: usize,
}

struct Resolver {
    /// fn name -> [(owner, key)]
    by_name: BTreeMap<String, Vec<(Option<String>, String)>>,
}

impl Resolver {
    fn resolve(&self, site: &CallSite, cur_owner: Option<&str>, caller_name: &str) -> Vec<String> {
        if site.name == caller_name {
            // Same-name call sites inside a function are treated as
            // self-recursion, never as a call into the name's merged set
            // (e.g. `router.add_array(..)` inside `QosCluster::add_array`).
            return Vec::new();
        }
        let Some(defs) = self.by_name.get(&site.name) else {
            return Vec::new();
        };
        let only_owner = |owners: &[&str]| -> Vec<String> {
            defs.iter()
                .filter(|(o, _)| o.as_deref().is_some_and(|o| owners.contains(&o)))
                .map(|(_, k)| k.clone())
                .collect()
        };
        match &site.form {
            CallForm::Qualified(t) => only_owner(&[t.as_str()]),
            CallForm::Receiver(r) if r == "self" => {
                let own: Vec<String> = cur_owner.map(|o| only_owner(&[o])).unwrap_or_default();
                if !own.is_empty() {
                    own
                } else {
                    self.merged(&site.name, defs)
                }
            }
            CallForm::Receiver(r) => {
                if let Some((_, owners)) = RECEIVER_HINTS.iter().find(|(n, _)| n == r) {
                    only_owner(owners)
                } else {
                    self.merged(&site.name, defs)
                }
            }
            CallForm::Chain | CallForm::Bare => self.merged(&site.name, defs),
        }
    }

    fn merged(&self, name: &str, defs: &[(Option<String>, String)]) -> Vec<String> {
        if NEVER_RESOLVE_BARE.contains(&name) {
            return Vec::new();
        }
        defs.iter().map(|(_, k)| k.clone()).collect()
    }
}

/// Run the lock-order and guard-across-blocking passes.
pub fn analyze(files: &[(std::path::PathBuf, Vec<FnDef>)]) -> LockReport {
    // Function table.
    let mut by_name: BTreeMap<String, Vec<(Option<String>, String)>> = BTreeMap::new();
    for (_, fns) in files {
        for f in fns {
            let key = fn_key(f.owner.as_deref(), &f.name);
            let entry = by_name.entry(f.name.clone()).or_default();
            if !entry.iter().any(|(_, k)| *k == key) {
                entry.push((f.owner.clone(), key));
            }
        }
    }
    let resolver = Resolver { by_name };

    // Pass 1: per-function facts.
    let mut facts: BTreeMap<String, Facts> = BTreeMap::new();
    for (path, fns) in files {
        let file_name = path.to_string_lossy().to_string();
        for f in fns {
            let key = fn_key(f.owner.as_deref(), &f.name);
            let entry = facts.entry(key).or_default();
            let mut stmts = Vec::new();
            all_stmts(&f.nodes, &mut stmts);
            if let Some(exclusive) = returns_guard_sig(&f.sig) {
                let by_payload = GUARD_PAYLOADS
                    .iter()
                    .find(|(ty, _)| f.sig.iter().any(|t| t.is_ident(ty)))
                    .map(|(_, class)| (class_index(class), exclusive));
                let first_acquired = || {
                    let first = |s: &&Stmt| acquisitions(&file_name, &s.toks).first().copied();
                    stmts.iter().find_map(first).map(|a| (a.class, a.exclusive))
                };
                entry.returns_guard = by_payload.or_else(first_acquired);
            }
            for s in &stmts {
                let acqs = acquisitions(&file_name, &s.toks);
                let skip: BTreeSet<usize> = acqs.iter().map(|a| a.idx).collect();
                for a in &acqs {
                    entry.direct.insert(a.class);
                }
                if entry.blocks_directly.is_none() {
                    if let Some(b) = blocking_ops(&s.toks).first() {
                        entry.blocks_directly = Some(b.what.clone());
                    }
                }
                for site in call_sites(&s.toks, &skip) {
                    for key in resolver.resolve(&site, f.owner.as_deref(), &f.name) {
                        entry.calls.insert(key);
                    }
                }
            }
        }
    }

    // Fixpoint: transitive acquisition sets and blocking reachability.
    let mut acquires: BTreeMap<String, BTreeSet<usize>> = facts
        .iter()
        .map(|(n, f)| (n.clone(), f.direct.clone()))
        .collect();
    let mut blocks: BTreeMap<String, Option<String>> = facts
        .iter()
        .map(|(n, f)| (n.clone(), f.blocks_directly.clone()))
        .collect();
    loop {
        let mut changed = false;
        for (name, f) in &facts {
            let mut merged = acquires[name].clone();
            let mut blocked = blocks[name].clone();
            for callee in &f.calls {
                if let Some(set) = acquires.get(callee) {
                    for c in set.clone() {
                        merged.insert(c);
                    }
                }
                if let Some(cf) = facts.get(callee) {
                    if let Some((g, _)) = cf.returns_guard {
                        merged.insert(g);
                    }
                }
                if blocked.is_none() {
                    if let Some(Some(why)) = blocks.get(callee) {
                        blocked = Some(format!("{why}, via `{callee}`"));
                    }
                }
            }
            if merged.len() > acquires[name].len() {
                acquires.insert(name.clone(), merged);
                changed = true;
            }
            if blocked.is_some() && blocks[name].is_none() {
                blocks.insert(name.clone(), blocked);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Pass 2: guard simulation over each function's statement tree.
    let mut sim = Sim {
        resolver: &resolver,
        facts: &facts,
        acquires: &acquires,
        blocks: &blocks,
        edges: Vec::new(),
        findings: Vec::new(),
        file: String::new(),
        fn_name: String::new(),
        owner: None,
        functions_analyzed: 0,
    };
    for (path, fns) in files {
        sim.file = path.to_string_lossy().to_string();
        for f in fns {
            sim.functions_analyzed += 1;
            sim.fn_name = f.name.clone();
            sim.owner = f.owner.clone();
            sim.walk_nodes(&f.nodes, &[]);
        }
    }

    // Check the edge set: every edge must go strictly down the documented
    // hierarchy, and the graph must be acyclic.
    let mut findings = sim.findings;
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for e in &sim.edges {
        if !seen.insert((e.from, e.to)) {
            continue;
        }
        if e.from >= e.to {
            findings.push(Finding {
                pass: "lock-order",
                severity: Severity::Error,
                file: e.file.clone(),
                line: e.line,
                col: e.col,
                text: format!("in fn {}", e.function),
                message: format!(
                    "lock-order inversion: `{}` acquired while `{}` is held \
                     (hierarchy rank {} must not precede rank {}); \
                     see DESIGN.md \"Concurrency invariants\" for the documented order",
                    class_name(e.to),
                    class_name(e.from),
                    e.from + 1,
                    e.to + 1,
                ),
            });
        }
    }
    if let Some(cycle) = find_cycle(&seen) {
        let names: Vec<&str> = cycle.iter().map(|c| class_name(*c)).collect();
        findings.push(Finding {
            pass: "lock-order",
            severity: Severity::Error,
            file: "(lock-order graph)".to_string(),
            line: 0,
            col: 0,
            text: String::new(),
            message: format!(
                "lock-order cycle: {} -> (back to start); \
                 see DESIGN.md \"Concurrency invariants\"",
                names.join(" -> ")
            ),
        });
    }

    LockReport {
        edges: sim.edges,
        findings,
        functions_analyzed: sim.functions_analyzed,
    }
}

/// Guard payload types that name their lock class. A function that returns
/// a guard is otherwise taken to return the first class it acquires, which
/// is wrong for one that locks something else on the way (wal.rs
/// `Wal::lock_behind_workers`: worker stages first, then the log it
/// returns).
const GUARD_PAYLOADS: &[(&str, &str)] = &[("WalInner", "engine.wal")];

fn returns_guard_sig(sig: &[Tok]) -> Option<bool> {
    let arrow = sig.iter().position(|t| t.is("->"))?;
    for t in &sig[arrow..] {
        match t.text.as_str() {
            "MutexGuard" | "RwLockWriteGuard" => return Some(true),
            "RwLockReadGuard" => return Some(false),
            _ => {}
        }
    }
    None
}

#[derive(Debug, Clone)]
struct Held {
    class: usize,
    exclusive: bool,
    name: Option<String>,
}

struct Sim<'a> {
    resolver: &'a Resolver,
    facts: &'a BTreeMap<String, Facts>,
    acquires: &'a BTreeMap<String, BTreeSet<usize>>,
    blocks: &'a BTreeMap<String, Option<String>>,
    edges: Vec<Edge>,
    findings: Vec<Finding>,
    file: String,
    fn_name: String,
    owner: Option<String>,
    functions_analyzed: usize,
}

/// Does the guard value produced at `open` (a `(` token) escape into the
/// statement's `let` binding — i.e. is nothing but `;`/`?` left after
/// its call parens close? `let v = g.lock().field;` binds a *derived*
/// value, not the guard.
fn escapes_into_let(toks: &[Tok], open: usize) -> bool {
    let close = matching(toks, open);
    toks[close.saturating_add(1).min(toks.len())..]
        .iter()
        .all(|t| t.is(";") || t.is("?"))
}

fn let_binding_name(toks: &[Tok]) -> Option<String> {
    if !toks.first().is_some_and(|t| t.is_ident("let")) {
        return None;
    }
    let mut k = 1;
    if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
        k += 1;
    }
    toks.get(k)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
}

enum Ev {
    Acq(Acq),
    Call {
        idx: usize,
        keys: Vec<String>,
        line: usize,
        col: usize,
    },
    Blocking(BlockingOp),
}

impl Ev {
    fn idx(&self) -> usize {
        match self {
            Ev::Acq(a) => a.idx,
            Ev::Call { idx, .. } => *idx,
            Ev::Blocking(b) => b.idx,
        }
    }
}

impl Sim<'_> {
    fn walk_nodes(&mut self, nodes: &[Node], held0: &[Held]) {
        let mut held: Vec<Held> = held0.to_vec();
        for n in nodes {
            match n {
                Node::Stmt(s) => self.do_stmt(s, &mut held, false),
                Node::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let mut hc = held.clone();
                    self.do_stmt(cond, &mut hc, true);
                    self.walk_nodes(then_branch, &hc);
                    if let Some(e) = else_branch {
                        self.walk_nodes(e, &hc);
                    }
                }
                Node::Match { head, arms } => {
                    let mut hc = held.clone();
                    self.do_stmt(head, &mut hc, true);
                    for a in arms {
                        self.walk_nodes(&a.body, &hc);
                    }
                }
                Node::Loop { head, body } => {
                    let mut hc = held.clone();
                    self.do_stmt(head, &mut hc, true);
                    self.walk_nodes(body, &hc);
                }
                Node::Block(b) | Node::Else(b) => self.walk_nodes(b, &held),
            }
        }
    }

    fn do_stmt(&mut self, s: &Stmt, held: &mut Vec<Held>, head_mode: bool) {
        // Explicit `drop(name)` releases the named guard.
        for k in 0..s.toks.len() {
            if s.toks[k].is_ident("drop")
                && s.toks.get(k + 1).is_some_and(|t| t.is("("))
                && s.toks.get(k + 3).is_some_and(|t| t.is(")"))
            {
                if let Some(n) = s.toks.get(k + 2).filter(|t| t.kind == TokKind::Ident) {
                    held.retain(|g| g.name.as_deref() != Some(&n.text));
                }
            }
        }

        let acqs = acquisitions(&self.file, &s.toks);
        let skip: BTreeSet<usize> = acqs.iter().map(|a| a.idx).collect();
        let mut events: Vec<Ev> = acqs.into_iter().map(Ev::Acq).collect();
        for b in blocking_ops(&s.toks) {
            events.push(Ev::Blocking(b));
        }
        for site in call_sites(&s.toks, &skip) {
            let keys = self
                .resolver
                .resolve(&site, self.owner.as_deref(), &self.fn_name);
            if !keys.is_empty() {
                let t = &s.toks[site.idx];
                events.push(Ev::Call {
                    idx: site.idx,
                    keys,
                    line: t.line,
                    col: t.col,
                });
            }
        }
        events.sort_by_key(Ev::idx);

        let let_name = let_binding_name(&s.toks);
        let mut temps: Vec<Held> = Vec::new();
        let n_events = events.len();
        for (i, ev) in events.into_iter().enumerate() {
            let last = i + 1 == n_events;
            match ev {
                Ev::Acq(a) => {
                    self.record_edges(a.class, held, &temps, a.line, a.col);
                    self.bind_guard(
                        Held {
                            class: a.class,
                            exclusive: a.exclusive,
                            name: let_name.clone(),
                        },
                        s,
                        a.idx + 1,
                        last,
                        head_mode,
                        held,
                        &mut temps,
                    );
                }
                Ev::Call {
                    idx,
                    keys,
                    line,
                    col,
                } => {
                    let mut callee_classes: BTreeSet<usize> = BTreeSet::new();
                    let mut returns: Option<(usize, bool)> = None;
                    let mut blocking_why: Option<(String, String)> = None;
                    for key in &keys {
                        if let Some(set) = self.acquires.get(key) {
                            callee_classes.extend(set.iter().copied());
                        }
                        if let Some(cf) = self.facts.get(key) {
                            if returns.is_none() {
                                returns = cf.returns_guard;
                            }
                        }
                        if blocking_why.is_none() {
                            if let Some(Some(why)) = self.blocks.get(key) {
                                blocking_why = Some((key.clone(), why.clone()));
                            }
                        }
                    }
                    for c in &callee_classes {
                        self.record_edges(*c, held, &temps, line, col);
                    }
                    if let Some((key, why)) = blocking_why {
                        self.check_blocking(held, &temps, line, col, &format!("{why} in `{key}`"));
                    }
                    if let Some((g, excl)) = returns {
                        self.bind_guard(
                            Held {
                                class: g,
                                exclusive: excl,
                                name: let_name.clone(),
                            },
                            s,
                            idx + 1,
                            last,
                            head_mode,
                            held,
                            &mut temps,
                        );
                    }
                }
                Ev::Blocking(b) => {
                    self.check_blocking(held, &temps, b.line, b.col, &b.what);
                }
            }
        }
    }

    fn record_edges(&mut self, to: usize, held: &[Held], temps: &[Held], line: usize, col: usize) {
        for g in held.iter().chain(temps.iter()) {
            if g.class != to {
                self.edges.push(Edge {
                    from: g.class,
                    to,
                    file: self.file.clone(),
                    line,
                    col,
                    function: self.fn_name.clone(),
                });
            }
        }
    }

    fn check_blocking(
        &mut self,
        held: &[Held],
        temps: &[Held],
        line: usize,
        col: usize,
        what: &str,
    ) {
        if let Some(g) = held.iter().chain(temps.iter()).find(|g| g.exclusive) {
            self.findings.push(Finding {
                pass: "guard-blocking",
                severity: Severity::Warning,
                file: self.file.clone(),
                line,
                col,
                text: format!("in fn {}", self.fn_name),
                message: format!(
                    "`{}` (exclusive) guard held across blocking op ({what}); \
                     every contender stalls for the full duration — move the \
                     operation outside the critical section or allowlist it \
                     with a reason (DESIGN.md \"Static analysis passes\")",
                    class_name(g.class),
                ),
            });
        }
    }

    #[allow(clippy::too_many_arguments)] // flat event-loop plumbing
    fn bind_guard(
        &mut self,
        g: Held,
        s: &Stmt,
        open: usize,
        last: bool,
        head_mode: bool,
        held: &mut Vec<Held>,
        temps: &mut Vec<Held>,
    ) {
        if head_mode {
            held.push(Held { name: None, ..g });
        } else if g.name.is_some() && last && escapes_into_let(&s.toks, open) {
            held.push(g);
        } else {
            temps.push(Held { name: None, ..g });
        }
    }
}

fn find_cycle(edges: &BTreeSet<(usize, usize)>) -> Option<Vec<usize>> {
    let nodes: BTreeSet<usize> = edges.iter().flat_map(|&(a, b)| [a, b]).collect();
    fn visit(
        n: usize,
        edges: &BTreeSet<(usize, usize)>,
        state: &mut BTreeMap<usize, u8>,
        path: &mut Vec<usize>,
    ) -> Option<Vec<usize>> {
        state.insert(n, 1);
        path.push(n);
        for &(a, b) in edges.iter() {
            if a == n {
                match state.get(&b) {
                    Some(1) => {
                        let start = path.iter().position(|&x| x == b).unwrap_or(0);
                        return Some(path[start..].to_vec());
                    }
                    Some(2) => {}
                    _ => {
                        if let Some(c) = visit(b, edges, state, path) {
                            return Some(c);
                        }
                    }
                }
            }
        }
        path.pop();
        state.insert(n, 2);
        None
    }
    let mut state = BTreeMap::new();
    for &n in &nodes {
        if !state.contains_key(&n) {
            if let Some(c) = visit(n, edges, &mut state, &mut Vec::new()) {
                return Some(c);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::functions;
    use crate::source::lex;
    use std::path::PathBuf;

    fn run(file: &str, src: &str) -> LockReport {
        let (toks, _) = lex(src);
        let fns = functions(&toks);
        analyze(&[(PathBuf::from(file), fns)])
    }

    fn acq(file: &str, stmt: &str) -> Vec<Acq> {
        acquisitions(file, &lex(stmt).0)
    }

    #[test]
    fn classifies_the_engine_lock_sites() {
        let a = acq("engine.rs", "let ds = self.dispatch.lock();");
        assert_eq!(a.len(), 1);
        assert_eq!(class_name(a[0].class), "engine.dispatch");
        assert!(a[0].exclusive);
        let a = acq("window.rs", "let mut s = self.slot(window).lock();");
        assert_eq!(class_name(a[0].class), "window.slot");
        let a = acq("registry.rs", "self.shard(tenant).write().insert(t, r);");
        assert_eq!(class_name(a[0].class), "registry.shard");
        assert!(a[0].exclusive);
        let a = acq("cluster.rs", "let arrays = self.shared.arrays.read();");
        assert_eq!(class_name(a[0].class), "cluster.arrays");
        assert!(!a[0].exclusive, "read side is shared");
    }

    #[test]
    fn spanned_acquisitions_carry_line_and_col() {
        let a = acq("engine.rs", "let a = 1;\nlet ds = self.dispatch.lock();");
        assert_eq!(a[0].line, 2);
        assert_eq!(a[0].col, 24);
    }

    #[test]
    fn nested_acquisition_in_hierarchy_order_passes() {
        let r = run(
            "engine.rs",
            "impl E {\n fn ok(&self) {\n  let ds = self.dispatch.lock();\n  let h = self.handles.lock();\n }\n}",
        );
        assert_eq!(r.findings.len(), 0, "{:?}", r.findings);
        assert!(r.edges.iter().any(
            |e| class_name(e.from) == "engine.dispatch" && class_name(e.to) == "engine.handles"
        ));
    }

    #[test]
    fn inverted_acquisition_is_flagged() {
        let r = run(
            "engine.rs",
            "impl E {\n fn bad(&self) {\n  let i = self.fault.inner.lock();\n  let ds = self.dispatch.lock();\n }\n}",
        );
        assert!(
            r.findings.iter().any(|f| f.message.contains("inversion")),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn dropped_guard_creates_no_edge() {
        let r = run(
            "engine.rs",
            "impl E {\n fn ok(&self) {\n  let i = self.inner.lock();\n  drop(i);\n  let ds = self.dispatch.lock();\n }\n}",
        );
        assert_eq!(r.findings.len(), 0, "{:?}", r.findings);
    }

    #[test]
    fn for_head_guard_dies_with_its_block() {
        // finish()-shape: iterate under handles, then lock dispatch after
        // the loop — must NOT produce a handles -> dispatch edge.
        let r = run(
            "engine.rs",
            "impl E {\n fn finish(&self) {\n  for h in self.handles.lock().iter() {\n   h.close();\n  }\n  let ds = self.dispatch.lock();\n }\n}",
        );
        assert!(
            !r.edges
                .iter()
                .any(|e| class_name(e.from) == "engine.handles"),
            "{:?}",
            r.edges
        );
    }

    #[test]
    fn branch_guard_dies_at_branch_end() {
        // A guard let-bound inside a then-branch must not be held after
        // the `if` — the statement tree gives this for free.
        let r = run(
            "engine.rs",
            "impl E {\n fn ok(&self, c: bool) {\n  if c {\n   let i = self.inner.lock();\n   i.log();\n  }\n  let ds = self.dispatch.lock();\n }\n}",
        );
        assert_eq!(r.findings.len(), 0, "{:?}", r.findings);
    }

    #[test]
    fn match_head_guard_is_held_through_every_arm() {
        let r = run(
            "engine.rs",
            "impl E {\n fn bad(&self, x: u8) {\n  match self.inner.lock().kind(x) {\n   0 => { let ds = self.dispatch.lock(); }\n   _ => {}\n  }\n }\n}",
        );
        assert!(
            r.findings.iter().any(|f| f.message.contains("inversion")),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn inversion_through_a_call_is_flagged() {
        let src = "impl E {\n fn helper(&self) {\n  let ds = self.dispatch.lock();\n }\n fn bad(&self) {\n  let i = self.inner.lock();\n  self.helper();\n }\n}";
        let r = run("engine.rs", src);
        assert!(
            r.findings.iter().any(|f| f.message.contains("inversion")),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn mutually_recursive_helpers_reach_a_fixpoint() {
        // a -> b -> a cycle in the call graph; b acquires dispatch. The
        // fixpoint must terminate and propagate dispatch into a, so
        // holding fault.inner while calling a is an inversion.
        let src = "impl E {\n fn a(&self, n: u64) {\n  if n > 0 { self.b(n - 1); }\n }\n fn b(&self, n: u64) {\n  let ds = self.dispatch.lock();\n  drop(ds);\n  self.a(n);\n }\n fn bad(&self) {\n  let i = self.inner.lock();\n  self.a(3);\n }\n}";
        let r = run("engine.rs", src);
        assert!(
            r.findings.iter().any(|f| f.message.contains("inversion")),
            "mutual recursion lost acquisitions: {:?}",
            r.findings
        );
    }

    #[test]
    fn guard_returning_fn_transfers_the_lock_to_its_caller() {
        let src = "impl R {\n fn locked(&self, w: u64) -> MutexGuard<'_, S> {\n  let s = self.slot(w).lock();\n  s\n }\n fn bad(&self) {\n  let s = self.locked(0);\n  let a = self.admission.lock();\n }\n}";
        let r = run("window.rs", src);
        // window.slot held while registry.admission acquired: inversion.
        assert!(
            r.findings.iter().any(|f| f.message.contains("inversion")),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn derived_let_binding_is_not_a_held_guard() {
        // `let removed = shard.write().remove(..)` binds the removed value,
        // not the guard: no lock is held on the next line.
        let r = run(
            "registry.rs",
            "impl R {\n fn ok(&self) {\n  let removed = self.shard(t).write().remove(&t);\n  let a = self.admission.lock();\n }\n}",
        );
        assert_eq!(r.findings.len(), 0, "{:?}", r.findings);
    }

    #[test]
    fn receiver_hints_disambiguate_method_name_collisions() {
        // Both Router::probe and Wal::probe exist; Wal::probe takes the
        // wal lock. A hinted `router.probe()` call under cluster.router
        // must NOT pick up Wal::probe's acquisition (which would be fine
        // here) nor merge sets; an unhinted receiver still merges.
        let src = "impl Router {\n fn probe(&self) { self.tick(); }\n}\nimpl Wal {\n fn probe(&self) {\n  let w = self.wal.lock();\n }\n}\nimpl C {\n fn hinted(&self) {\n  let mut router = self.shared.router.lock();\n  router.probe();\n }\n}";
        let r = run("cluster.rs", src);
        // Hinted resolution: no router -> wal edge.
        assert!(
            !r.edges
                .iter()
                .any(|e| class_name(e.from) == "cluster.router"
                    && class_name(e.to) == "engine.wal"),
            "hint failed, sets merged: {:?}",
            r.edges
        );
    }

    #[test]
    fn spawned_closure_does_not_inherit_the_spawn_sites_guards() {
        let src = "impl E {\n fn start(&self) {\n  let h = self.handles.lock();\n  thread::spawn(move || {\n   let ds = self.dispatch.lock();\n  });\n }\n}";
        let r = run("engine.rs", src);
        // dispatch is acquired on the new thread: no handles -> dispatch
        // edge (which would be an inversion, rank 8 before rank 6).
        assert!(
            r.findings.is_empty()
                && !r
                    .edges
                    .iter()
                    .any(|e| class_name(e.from) == "engine.handles"),
            "{:?} / {:?}",
            r.findings,
            r.edges
        );
    }

    // --- guard-across-blocking ---

    #[test]
    fn exclusive_guard_across_fsync_is_flagged() {
        let r = run(
            "wal.rs",
            "impl W {\n fn bad(&self) {\n  let w = self.wal.lock();\n  self.file.sync_all();\n }\n}",
        );
        assert!(
            r.findings
                .iter()
                .any(|f| f.pass == "guard-blocking" && f.message.contains("fsync")),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn shared_read_guard_across_blocking_is_exempt() {
        let r = run(
            "engine.rs",
            "impl E {\n fn ok(&self) {\n  let q = self.quiesce.read();\n  self.rx.recv();\n }\n}",
        );
        assert!(
            !r.findings.iter().any(|f| f.pass == "guard-blocking"),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn blocking_reached_through_a_call_is_flagged_transitively() {
        let src = "impl W {\n fn flush_inner(&self) {\n  self.file.sync_all();\n }\n fn bad(&self) {\n  let ds = self.dispatch.lock();\n  self.flush_inner();\n }\n}";
        let r = run("engine.rs", src);
        assert!(
            r.findings
                .iter()
                .any(|f| f.pass == "guard-blocking" && f.message.contains("flush_inner")),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn blocking_after_guard_dropped_is_clean() {
        let r = run(
            "engine.rs",
            "impl E {\n fn ok(&self) {\n  let ds = self.dispatch.lock();\n  drop(ds);\n  self.rx.recv();\n }\n}",
        );
        assert!(
            !r.findings.iter().any(|f| f.pass == "guard-blocking"),
            "{:?}",
            r.findings
        );
    }
}
