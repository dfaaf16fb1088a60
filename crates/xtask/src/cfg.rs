//! Function segmentation and per-function control-flow skeletons over
//! the spanned token stream (`source::lex`).
//!
//! Two views are built for every function:
//!
//! - a **statement tree** (`Node`): statements plus structured
//!   `if`/`else`, `match` arms, loops and bare blocks, which the
//!   whole-function passes flatten (`all_stmts`).
//! - a **basic-block CFG** (`Cfg`): the tree flattened into blocks with
//!   successor edges — `if` forks, every `match` arm forks, loop bodies
//!   run zero-or-once, `?` and `return` edge to the exit block. The
//!   ledger pass enumerates acyclic entry→exit paths over it (back
//!   edges are intentionally not emitted, so enumeration terminates;
//!   executing a loop body once is enough to observe its counter
//!   mutations).
//!
//! The parser is defensive: it never panics on unbalanced or exotic
//! input, it just degrades to flat statements.

use crate::source::{Tok, TokKind};

/// One statement (or condition / match head / arm pattern): a flat,
/// span-carrying token run.
#[derive(Debug, Clone)]
pub struct Stmt {
    pub toks: Vec<Tok>,
    /// Contains a `?` operator (an early-exit edge in the CFG).
    pub has_try: bool,
    /// Starts with / contains a top-level `return`.
    pub returns: bool,
}

impl Stmt {
    fn new(toks: Vec<Tok>) -> Self {
        let mut depth = 0i32;
        let mut has_try = false;
        let mut returns = false;
        for t in &toks {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "?" if t.kind == TokKind::Punct => has_try = true,
                "return" if t.kind == TokKind::Ident && depth == 0 => returns = true,
                _ => {}
            }
        }
        Stmt {
            toks,
            has_try,
            returns,
        }
    }

    /// Compact statement text — test scaffolding for span assertions.
    #[cfg(test)]
    pub fn text(&self) -> String {
        crate::source::text_of(&self.toks)
    }
}

/// One `match` arm: its pattern (with any `if` guard) and body.
#[derive(Debug, Clone)]
pub struct Arm {
    pub pat: Stmt,
    pub body: Vec<Node>,
}

/// Structured statement-tree node.
#[derive(Debug, Clone)]
pub enum Node {
    Stmt(Stmt),
    If {
        cond: Stmt,
        then_branch: Vec<Node>,
        else_branch: Option<Vec<Node>>,
    },
    Match {
        head: Stmt,
        arms: Vec<Arm>,
    },
    Loop {
        head: Stmt,
        body: Vec<Node>,
    },
    Block(Vec<Node>),
    /// A `let … else { … }` divergence block: entered only when the
    /// pattern fails, so the CFG forks around it (unlike `Block`, which
    /// executes unconditionally and lowers inline).
    Else(Vec<Node>),
}

/// One segmented function.
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    pub line: usize,
    pub nodes: Vec<Node>,
}

fn depth_delta(text: &str) -> i32 {
    match text {
        "(" | "[" | "{" => 1,
        ")" | "]" | "}" => -1,
        _ => 0,
    }
}

/// Find the index of the brace that closes `toks[open]` (which must be
/// `{`/`(`/`[`). Returns `toks.len()` when unbalanced.
pub fn matching(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        depth += depth_delta(&t.text);
        if depth == 0 {
            return k;
        }
    }
    toks.len()
}

/// Segment a lexed file into functions. Skips `#[cfg(test)]` items, and
/// terminates signatures only at a *bracket-balanced* `{` or `;` — a
/// multi-line signature containing `[u8; 32]` is a function definition,
/// not a trait method declaration (the historical line-based scanner
/// dropped those).
pub fn functions(toks: &[Tok]) -> Vec<FnDef> {
    let mut out = Vec::new();
    let mut skip_next_item = false;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        // Attribute: consume `#[…]` / `#![…]`, remember cfg(test).
        if t.is("#") {
            let mut j = i + 1;
            if j < toks.len() && toks[j].is("!") {
                j += 1;
            }
            if j < toks.len() && toks[j].is("[") {
                let close = matching(toks, j);
                let inner = &toks[j..close.min(toks.len())];
                if inner.iter().any(|t| t.is_ident("cfg"))
                    && inner.iter().any(|t| t.is_ident("test"))
                {
                    skip_next_item = true;
                }
                i = close + 1;
                continue;
            }
        }
        // A cfg(test)-gated item: skip it wholesale — to `;`, to the `,`
        // that ends a struct field, through its balanced braces, or up to
        // the close of the item it is the last member of.
        if skip_next_item && !t.is("#") {
            skip_next_item = false;
            let mut d = 0i32;
            while i < toks.len() {
                match toks[i].text.as_str() {
                    "{" | "(" | "[" => d += 1,
                    "}" | ")" | "]" if d == 0 => break,
                    "}" | ")" | "]" => {
                        d -= 1;
                        if d == 0 && toks[i].is("}") {
                            i += 1;
                            break;
                        }
                    }
                    ";" | "," if d == 0 => {
                        i += 1;
                        break;
                    }
                    _ => {}
                }
                i += 1;
            }
            continue;
        }
        if !t.is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        // Scan the signature for `{` or `;` at bracket depth 0.
        let mut j = i + 2;
        let mut d = 0i32;
        let mut body_open = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" | "[" => d += 1,
                ")" | "]" => d -= 1,
                "{" if d == 0 => {
                    body_open = Some(j);
                    break;
                }
                ";" if d == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body_open else {
            i = j + 1; // declaration only (trait method)
            continue;
        };
        let close = matching(toks, open);
        out.push(FnDef {
            name: name_tok.text.clone(),
            line: name_tok.line,
            nodes: parse_nodes(&toks[open + 1..close.min(toks.len())]),
        });
        i = close + 1;
    }
    out
}

/// Keywords that open a control construct usable in expression
/// position; meeting one mid-statement splits the statement.
fn is_ctl(t: &Tok) -> bool {
    t.kind == TokKind::Ident && matches!(t.text.as_str(), "if" | "match" | "loop")
}

fn is_loop_head(t: &Tok) -> bool {
    t.kind == TokKind::Ident && matches!(t.text.as_str(), "loop" | "while" | "for")
}

/// Parse a token run into a statement tree. Never panics; unparsable
/// tails degrade to flat statements.
pub fn parse_nodes(toks: &[Tok]) -> Vec<Node> {
    let mut nodes = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_ident("if") {
            let (node, next) = parse_if(toks, i);
            nodes.push(node);
            i = next;
        } else if t.is_ident("match") {
            let (node, next) = parse_match(toks, i);
            nodes.push(node);
            i = next;
        } else if is_loop_head(t) {
            let (node, next) = parse_loop(toks, i);
            nodes.push(node);
            i = next;
        } else if t.kind == TokKind::Lifetime
            && toks.get(i + 1).is_some_and(|n| n.is(":"))
            && toks.get(i + 2).is_some_and(is_loop_head)
        {
            let (node, next) = parse_loop(toks, i + 2);
            nodes.push(node);
            i = next;
        } else if t.is_ident("else") && toks.get(i + 1).is_some_and(|n| n.is("{")) {
            // `let … else { … }`: the flat-statement scan below splits at
            // the `else`, so the divergent block parses as its own scope —
            // temporaries acquired before it must not appear live inside,
            // and its `return` must not swallow the fallthrough path.
            let close = matching(toks, i + 1);
            nodes.push(Node::Else(parse_nodes(&toks[i + 2..close.min(toks.len())])));
            i = close + 1;
        } else if t.is_ident("unsafe") && toks.get(i + 1).is_some_and(|n| n.is("{")) {
            let close = matching(toks, i + 1);
            nodes.push(Node::Block(parse_nodes(
                &toks[i + 2..close.min(toks.len())],
            )));
            i = close + 1;
        } else if t.is("{") {
            let close = matching(toks, i);
            nodes.push(Node::Block(parse_nodes(
                &toks[i + 1..close.min(toks.len())],
            )));
            i = close + 1;
        } else if t.is(";") {
            i += 1;
        } else {
            // Flat statement: run to `;` at depth 0. A control keyword at
            // depth 0 splits the statement so its branches stay visible
            // (`let x = match e { … };` → prefix stmt + Match node + tail).
            let start = i;
            let mut d = 0i32;
            let mut end = None;
            while i < toks.len() {
                let c = &toks[i];
                if d == 0 && i > start && (is_ctl(c) || c.is_ident("else")) {
                    break;
                }
                match c.text.as_str() {
                    "(" | "[" | "{" => d += 1,
                    ")" | "]" | "}" => d -= 1,
                    ";" if d == 0 => {
                        end = Some(i);
                        break;
                    }
                    _ => {}
                }
                i += 1;
            }
            let upto = end.map_or(i, |e| e + 1);
            if upto > start {
                nodes.push(Node::Stmt(Stmt::new(toks[start..upto].to_vec())));
            }
            if let Some(e) = end {
                i = e + 1;
            }
            // else: stopped at a control keyword (or ran out); loop
            // re-enters and parses the construct.
        }
    }
    nodes
}

/// Condition / head scan: to the `{` at paren/bracket depth 0.
fn head_end(toks: &[Tok], from: usize) -> usize {
    let mut d = 0i32;
    let mut j = from;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" | "[" => d += 1,
            ")" | "]" => d -= 1,
            "{" if d == 0 => return j,
            _ => {}
        }
        j += 1;
    }
    j
}

fn parse_if(toks: &[Tok], i: usize) -> (Node, usize) {
    let open = head_end(toks, i + 1);
    let cond = Stmt::new(toks[i..open.min(toks.len())].to_vec());
    if open >= toks.len() {
        return (Node::Stmt(cond), toks.len());
    }
    let close = matching(toks, open);
    let then_branch = parse_nodes(&toks[open + 1..close.min(toks.len())]);
    let mut next = close + 1;
    let mut else_branch = None;
    if toks.get(next).is_some_and(|t| t.is_ident("else")) {
        if toks.get(next + 1).is_some_and(|t| t.is_ident("if")) {
            let (nested, after) = parse_if(toks, next + 1);
            else_branch = Some(vec![nested]);
            next = after;
        } else if toks.get(next + 1).is_some_and(|t| t.is("{")) {
            let eclose = matching(toks, next + 1);
            else_branch = Some(parse_nodes(&toks[next + 2..eclose.min(toks.len())]));
            next = eclose + 1;
        }
    }
    (
        Node::If {
            cond,
            then_branch,
            else_branch,
        },
        next,
    )
}

fn parse_match(toks: &[Tok], i: usize) -> (Node, usize) {
    let open = head_end(toks, i + 1);
    let head = Stmt::new(toks[i..open.min(toks.len())].to_vec());
    if open >= toks.len() {
        return (Node::Stmt(head), toks.len());
    }
    let close = matching(toks, open);
    let inner = &toks[open + 1..close.min(toks.len())];
    let mut arms = Vec::new();
    let mut j = 0;
    while j < inner.len() {
        if inner[j].is(",") {
            j += 1;
            continue;
        }
        // Pattern (with optional `if` guard) to `=>` at depth 0.
        let pstart = j;
        let mut d = 0i32;
        while j < inner.len() {
            match inner[j].text.as_str() {
                "(" | "[" | "{" => d += 1,
                ")" | "]" | "}" => d -= 1,
                "=>" if d == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= inner.len() {
            // Trailing tokens with no arrow: keep them visible as a
            // pattern-only arm.
            if j > pstart {
                arms.push(Arm {
                    pat: Stmt::new(inner[pstart..].to_vec()),
                    body: Vec::new(),
                });
            }
            break;
        }
        let pat = Stmt::new(inner[pstart..j].to_vec());
        j += 1; // past `=>`
        let body = if inner.get(j).is_some_and(|t| t.is("{")) {
            let bclose = matching(inner, j);
            let body = parse_nodes(&inner[j + 1..bclose.min(inner.len())]);
            j = bclose + 1;
            body
        } else {
            // Expression arm: to `,` at depth 0 (or end of match).
            let estart = j;
            let mut d = 0i32;
            while j < inner.len() {
                match inner[j].text.as_str() {
                    "(" | "[" | "{" => d += 1,
                    ")" | "]" | "}" => d -= 1,
                    "," if d == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            parse_nodes(&inner[estart..j])
        };
        arms.push(Arm { pat, body });
    }
    (Node::Match { head, arms }, close + 1)
}

fn parse_loop(toks: &[Tok], i: usize) -> (Node, usize) {
    let open = head_end(toks, i + 1);
    let head = Stmt::new(toks[i..open.min(toks.len())].to_vec());
    if open >= toks.len() {
        return (Node::Stmt(head), toks.len());
    }
    let close = matching(toks, open);
    let body = parse_nodes(&toks[open + 1..close.min(toks.len())]);
    (Node::Loop { head, body }, close + 1)
}

/// Collect every statement in a tree (statements, conditions, heads and
/// arm patterns), in source order. Used by the whole-function fact
/// passes that don't care about branching.
pub fn all_stmts<'a>(nodes: &'a [Node], out: &mut Vec<&'a Stmt>) {
    for n in nodes {
        match n {
            Node::Stmt(s) => out.push(s),
            Node::If {
                cond,
                then_branch,
                else_branch,
            } => {
                out.push(cond);
                all_stmts(then_branch, out);
                if let Some(e) = else_branch {
                    all_stmts(e, out);
                }
            }
            Node::Match { head, arms } => {
                out.push(head);
                for a in arms {
                    out.push(&a.pat);
                    all_stmts(&a.body, out);
                }
            }
            Node::Loop { head, body } => {
                out.push(head);
                all_stmts(body, out);
            }
            Node::Block(b) | Node::Else(b) => all_stmts(b, out),
        }
    }
}

// ---------------------------------------------------------------------------
// Basic-block CFG.
// ---------------------------------------------------------------------------

/// Flattened control-flow graph: `blocks[i]` is a straight-line run of
/// statements, `succ[i]` its successors. Block 0 is the entry;
/// `exit` is a distinguished empty block. Acyclic by construction
/// (loop bodies run zero-or-once, no back edges).
pub struct Cfg {
    pub blocks: Vec<Vec<Stmt>>,
    pub succ: Vec<Vec<usize>>,
    pub exit: usize,
}

impl Cfg {
    pub fn build(nodes: &[Node]) -> Cfg {
        let mut cfg = Cfg {
            blocks: vec![Vec::new(), Vec::new()],
            succ: vec![Vec::new(), Vec::new()],
            exit: 1,
        };
        let last = cfg.lower(nodes, 0);
        if last != cfg.exit {
            cfg.succ[last].push(cfg.exit);
        }
        cfg
    }

    fn new_block(&mut self) -> usize {
        self.blocks.push(Vec::new());
        self.succ.push(Vec::new());
        self.blocks.len() - 1
    }

    fn lower(&mut self, nodes: &[Node], mut cur: usize) -> usize {
        for n in nodes {
            match n {
                Node::Stmt(s) => {
                    self.blocks[cur].push(s.clone());
                    if s.returns {
                        self.succ[cur].push(self.exit);
                        cur = self.new_block(); // unreachable continuation
                    } else if s.has_try {
                        let next = self.new_block();
                        self.succ[cur].push(next);
                        self.succ[cur].push(self.exit);
                        cur = next;
                    }
                }
                Node::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    self.blocks[cur].push(cond.clone());
                    let join = self.new_block();
                    let t_entry = self.new_block();
                    self.succ[cur].push(t_entry);
                    let t_exit = self.lower(then_branch, t_entry);
                    self.succ[t_exit].push(join);
                    match else_branch {
                        Some(e) => {
                            let e_entry = self.new_block();
                            self.succ[cur].push(e_entry);
                            let e_exit = self.lower(e, e_entry);
                            self.succ[e_exit].push(join);
                        }
                        None => self.succ[cur].push(join),
                    }
                    cur = join;
                }
                Node::Match { head, arms } => {
                    self.blocks[cur].push(head.clone());
                    let join = self.new_block();
                    if arms.is_empty() {
                        self.succ[cur].push(join);
                    }
                    for a in arms {
                        let entry = self.new_block();
                        self.succ[cur].push(entry);
                        self.blocks[entry].push(a.pat.clone());
                        let exit = self.lower(&a.body, entry);
                        self.succ[exit].push(join);
                    }
                    cur = join;
                }
                Node::Loop { head, body } => {
                    self.blocks[cur].push(head.clone());
                    let join = self.new_block();
                    let entry = self.new_block();
                    self.succ[cur].push(entry); // one iteration
                    self.succ[cur].push(join); // zero iterations
                    let exit = self.lower(body, entry);
                    self.succ[exit].push(join);
                    cur = join;
                }
                Node::Block(b) => {
                    cur = self.lower(b, cur);
                }
                Node::Else(b) => {
                    // Pattern-failure fork: the divergent block runs (and
                    // almost always returns), or the pattern matched and
                    // control falls straight through.
                    let join = self.new_block();
                    let entry = self.new_block();
                    self.succ[cur].push(entry);
                    self.succ[cur].push(join);
                    let exit = self.lower(b, entry);
                    self.succ[exit].push(join);
                    cur = join;
                }
            }
        }
        cur
    }

    /// Enumerate entry→exit statement paths, capped. Returns the paths
    /// and whether the cap truncated enumeration (callers must report
    /// truncation rather than silently under-checking).
    pub fn paths(&self, cap: usize) -> (Vec<Vec<&Stmt>>, bool) {
        let mut paths = Vec::new();
        let mut truncated = false;
        let mut stack: Vec<(usize, Vec<&Stmt>)> = vec![(0, Vec::new())];
        while let Some((b, mut acc)) = stack.pop() {
            if paths.len() >= cap {
                truncated = true;
                break;
            }
            acc.extend(self.blocks[b].iter());
            if b == self.exit || self.succ[b].is_empty() {
                paths.push(acc);
                continue;
            }
            for &s in &self.succ[b] {
                stack.push((s, acc.clone()));
            }
        }
        (paths, truncated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::lex;

    fn fns(src: &str) -> Vec<FnDef> {
        functions(&lex(src).0)
    }

    #[test]
    fn segments_impl_methods_and_free_functions() {
        let f = fns("impl Engine { fn seal(&self) { x(); } }\nfn free() { y(); }");
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].name, "seal");
        assert_eq!(f[1].name, "free");
    }

    #[test]
    fn a_cfg_test_field_hides_itself_and_not_the_impl_that_follows() {
        let f = fns(
            "struct W { wal: Mutex<I>, #[cfg(test)] tally: Mutex<Map<String, u64>>, }\n\
             struct V { #[cfg(test)] last: u8 }\n\
             impl W { fn locked(&self) { self.wal.lock(); } #[cfg(test)] fn t(&self, a: A) { x(); } }",
        );
        assert_eq!(
            f.len(),
            1,
            "{:?}",
            f.iter().map(|f| &f.name).collect::<Vec<_>>()
        );
        assert_eq!(f[0].name, "locked");
    }

    #[test]
    fn multiline_signature_with_array_semicolon_is_not_dropped() {
        // Regression: `[u8; 32]` used to terminate the signature scan and
        // the whole function vanished from every pass.
        let f = fns("impl W {\n fn digest(\n  &self,\n  buf: [u8; 32],\n ) -> u64 {\n  let g = self.wal.lock();\n  g.sum()\n }\n}");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].name, "digest");
        let mut stmts = Vec::new();
        all_stmts(&f[0].nodes, &mut stmts);
        assert!(stmts.iter().any(|s| s.text().contains("wal.lock(")));
    }

    #[test]
    fn trait_method_declarations_have_no_body_and_are_skipped() {
        let f = fns("trait T { fn decl(&self) -> u64; fn with_default(&self) { d(); } }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].name, "with_default");
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        let f = fns("fn live() { a(); }\n#[cfg(test)]\nmod tests { fn t() { x.lock(); } }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].name, "live");
    }

    #[test]
    fn parses_if_else_chains() {
        let f = fns("fn f() { if a { b(); } else if c { d(); } else { e(); } }");
        let Node::If { else_branch, .. } = &f[0].nodes[0] else {
            panic!("expected If, got {:?}", f[0].nodes)
        };
        let inner = else_branch.as_ref().unwrap();
        assert!(matches!(inner[0], Node::If { .. }));
    }

    #[test]
    fn parses_match_arms_with_struct_patterns_and_guards() {
        let f = fns("fn f(x: E) { match x { E::A { n } if n > 0 => { a(); } E::A { .. } => b(), _ => {} } }");
        let Node::Match { arms, .. } = &f[0].nodes[0] else {
            panic!("expected Match, got {:?}", f[0].nodes)
        };
        assert_eq!(arms.len(), 3);
        assert!(arms[0].pat.text().contains("if n>0"));
    }

    #[test]
    fn embedded_match_in_a_let_is_split_out() {
        let f = fns("fn f() { let x = match e { A => 1, B => 2, }; g(x); }");
        // Prefix stmt (`let x =`), Match node, `;`-tail, then g(x).
        assert!(
            f[0].nodes.iter().any(|n| matches!(n, Node::Match { .. })),
            "{:?}",
            f[0].nodes
        );
    }

    #[test]
    fn cfg_paths_fork_per_branch_and_match_arm() {
        let f =
            fns("fn f() { if a { b(); } else { c(); } match d { X => x(), Y => y(), Z => z(), } }");
        let cfg = Cfg::build(&f[0].nodes);
        let (paths, truncated) = cfg.paths(64);
        assert!(!truncated);
        assert_eq!(paths.len(), 6); // 2 if-branches × 3 arms
    }

    #[test]
    fn try_operator_adds_an_early_exit_path() {
        let f = fns("fn f() -> R { a()?; b(); Ok(()) }");
        let cfg = Cfg::build(&f[0].nodes);
        let (paths, _) = cfg.paths(64);
        assert_eq!(paths.len(), 2);
        // One path stops after the `?` statement, one runs through b().
        assert!(paths
            .iter()
            .any(|p| p.iter().all(|s| !s.text().contains("b()"))));
    }

    #[test]
    fn let_else_forks_instead_of_swallowing_the_fallthrough() {
        // Regression: the divergence block's `return` must not terminate
        // every path — code after the let-else has to stay reachable, and
        // temporaries from before the `else` must not be live inside it.
        let f = fns("fn f() { let Some(x) = probe() else { log(); return; }; settle(x); }");
        assert!(
            f[0].nodes.iter().any(|n| matches!(n, Node::Else(_))),
            "{:?}",
            f[0].nodes
        );
        let cfg = Cfg::build(&f[0].nodes);
        let (paths, _) = cfg.paths(64);
        assert_eq!(paths.len(), 2);
        assert!(
            paths
                .iter()
                .any(|p| p.iter().any(|s| s.text().contains("settle"))),
            "fallthrough path lost"
        );
    }

    #[test]
    fn loops_run_zero_or_once_keeping_paths_finite() {
        let f = fns("fn f() { for i in 0..n { a(); } b(); }");
        let cfg = Cfg::build(&f[0].nodes);
        let (paths, truncated) = cfg.paths(64);
        assert!(!truncated);
        assert_eq!(paths.len(), 2);
    }
}
