//! Reference implementations the property tests compare against: the
//! brute-force pair count, and the `HashMap` matcher that
//! `fqos_fim::match_design_blocks` was before it went to sorted arrays and
//! compressed adjacency rows. Slow, allocation-heavy and obviously the
//! paper's rule — which is the point.

use fqos_fim::{FrequentPair, TransactionDb};
use std::collections::HashMap;

/// Count every pair of every transaction.
pub fn brute_force_pairs(db: &TransactionDb, min_support: u32) -> Vec<FrequentPair> {
    let mut counts: HashMap<(u32, u32), u32> = HashMap::new();
    for t in db.transactions() {
        for i in 0..t.len() {
            for j in (i + 1)..t.len() {
                *counts.entry((t[i], t[j])).or_insert(0) += 1;
            }
        }
    }
    let mut out: Vec<FrequentPair> = counts
        .into_iter()
        .filter(|&(_, c)| c >= min_support)
        .map(|((x, y), support)| {
            let (la, lb) = (db.lbn_of(x), db.lbn_of(y));
            FrequentPair {
                a: la.min(lb),
                b: la.max(lb),
                support,
            }
        })
        .collect();
    out.sort_unstable();
    out
}

/// Weighted greedy coloring over hashed adjacency lists: vertices by
/// `(Reverse(weight), lbn)`, colors by a scan of all `D` for the least
/// `(conflict, color_use, c)` — the choice the flat matcher makes from its
/// per-use color sets, and falls back to when every color conflicts.
pub fn match_design_blocks_hashed(
    pairs: &[FrequentPair],
    num_design_blocks: usize,
) -> HashMap<u64, usize> {
    let mut adj: HashMap<u64, Vec<(u64, u32)>> = HashMap::new();
    for p in pairs {
        adj.entry(p.a).or_default().push((p.b, p.support));
        adj.entry(p.b).or_default().push((p.a, p.support));
    }
    let mut order: Vec<u64> = adj.keys().copied().collect();
    let weight = |lbn: &u64| -> u64 { adj[lbn].iter().map(|&(_, s)| s as u64).sum() };
    order.sort_by_key(|lbn| (std::cmp::Reverse(weight(lbn)), *lbn));

    let mut assignment: HashMap<u64, usize> = HashMap::new();
    let mut color_use = vec![0usize; num_design_blocks];
    let mut conflict = vec![0u64; num_design_blocks];
    for lbn in order {
        conflict.iter_mut().for_each(|c| *c = 0);
        for &(nbr, support) in &adj[&lbn] {
            if let Some(&c) = assignment.get(&nbr) {
                conflict[c] += support as u64;
            }
        }
        let best = (0..num_design_blocks)
            .min_by_key(|&c| (conflict[c], color_use[c], c))
            .expect("at least one design block");
        color_use[best] += 1;
        assignment.insert(lbn, best);
    }
    assignment
}
