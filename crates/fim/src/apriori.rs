//! Apriori with low-memory pair counting.
//!
//! The classical Apriori level-wise idea specialised for set size 2 the way
//! `fim apriori-lowmem` (Rácz et al., OSDM'05) does it: first count item
//! supports and prune infrequent items (downward closure: a frequent pair
//! consists of two frequent items), then count only pairs of frequent
//! items. No candidate list is materialized — the "lowmem" trick: every
//! co-occurrence of two frequent items `a < b` among `n` items is written
//! as one key `a·n + b`, the keys are radix-sorted, and a run of equal keys
//! is a pair with its support. Memory is `O(#items + #co-occurrences)`; and
//! because [`TransactionDb`] numbers items in ascending LBN order, ascending
//! keys are ascending `(a, b)` block pairs: the output needs no second sort.

use crate::radix::radix_sort;
use crate::transaction::{FrequentPair, MiningReport, PairMiner, TransactionDb};
use std::mem::size_of;
use std::time::Instant;

/// Apriori (low-memory variant) pair miner.
#[derive(Debug, Clone, Copy, Default)]
pub struct Apriori;

/// What mining an interval works in, kept by a caller that mines again:
/// the pair count's buffers, the pairs as graph edges, and the coloring's.
#[derive(Debug, Clone, Default)]
pub(crate) struct Buffers {
    support: Vec<u32>,
    kept: Vec<u32>,
    keys: Vec<u64>,
    sorted_keys: Vec<u64>,
    /// The frequent pairs in item space, `(a, b, support)` with `a < b`,
    /// ascending by `(a, b)`.
    pub(crate) edges: Vec<(u32, u32, u32)>,
    pub(crate) row: Vec<usize>,
    pub(crate) adj: Vec<(u32, u32)>,
    pub(crate) weight: Vec<u64>,
    pub(crate) order: Vec<usize>,
    pub(crate) sorted: Vec<usize>,
    pub(crate) levels: Vec<u64>,
    pub(crate) color_use: Vec<usize>,
    pub(crate) held: Vec<u64>,
    pub(crate) conflict: Vec<u64>,
}

/// The frequent pairs of `db` in item space into `b.edges`, and the report
/// of mining them.
pub(crate) fn mine_items(db: &TransactionDb, min_support: u32, b: &mut Buffers) -> MiningReport {
    let start = Instant::now();
    let min_support = min_support.max(1);

    // Pass 1: item supports.
    b.support.clear();
    b.support.resize(db.num_items(), 0);
    for &i in &db.items {
        b.support[i as usize] += 1;
    }

    // Pass 2: one key per co-occurrence of two frequent items.
    let n = db.num_items() as u64;
    b.keys.clear();
    for t in db.transactions().filter(|t| t.len() > 1) {
        b.kept.clear();
        let frequent = |&i: &u32| b.support[i as usize] >= min_support;
        b.kept.extend(t.iter().copied().filter(frequent));
        for (i, &first) in b.kept.iter().enumerate() {
            let row = u64::from(first) * n;
            b.keys
                .extend(b.kept[i + 1..].iter().map(|&j| row + u64::from(j)));
        }
    }
    radix_sort(&mut b.keys, &mut b.sorted_keys, |&k| k);

    b.edges.clear();
    let mut rest = &b.keys[..];
    while let Some(&key) = rest.first() {
        let run = rest.iter().take_while(|&&k| k == key).count();
        rest = &rest[run..];
        if run >= min_support as usize {
            let support = u32::try_from(run).unwrap_or(u32::MAX);
            b.edges.push(((key / n) as u32, (key % n) as u32, support));
        }
    }
    MiningReport {
        seconds: start.elapsed().as_secs_f64(),
        peak_bytes: (b.keys.capacity() + b.sorted_keys.capacity()) * size_of::<u64>()
            + (b.support.capacity() + b.kept.capacity()) * size_of::<u32>(),
        pairs_found: b.edges.len(),
    }
}

impl PairMiner for Apriori {
    fn name(&self) -> &'static str {
        "apriori-lowmem"
    }

    fn mine_pairs(&self, db: &TransactionDb, min_support: u32) -> Vec<FrequentPair> {
        self.mine_pairs_with_report(db, min_support).0
    }

    fn mine_pairs_with_report(
        &self,
        db: &TransactionDb,
        min_support: u32,
    ) -> (Vec<FrequentPair>, MiningReport) {
        let mut buffers = Buffers::default();
        let report = mine_items(db, min_support, &mut buffers);
        let pair = |(a, b, support)| FrequentPair {
            a: db.lbn_of(a),
            b: db.lbn_of(b),
            support,
        };
        (buffers.edges.into_iter().map(pair).collect(), report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_pruning_reduces_output() {
        let db = TransactionDb::from_transactions(
            vec![vec![0, 1], vec![0, 1], vec![0, 1], vec![2, 3]],
            4,
        );
        assert_eq!(Apriori.mine_pairs(&db, 1).len(), 2);
        assert_eq!(Apriori.mine_pairs(&db, 2).len(), 1);
        assert_eq!(Apriori.mine_pairs(&db, 4).len(), 0);
    }

    #[test]
    fn reports_lbn_space() {
        let db = TransactionDb::from_timed_events(vec![(0, 5000), (1, 9000), (2, 5000)], 100);
        let pairs = Apriori.mine_pairs(&db, 1);
        assert_eq!(pairs.len(), 1);
        assert_eq!((pairs[0].a, pairs[0].b), (5000, 9000));
    }

    #[test]
    fn empty_db() {
        let db = TransactionDb::default();
        assert!(Apriori.mine_pairs(&db, 1).is_empty());
    }

    #[test]
    fn report_counts_the_buffers_it_held() {
        // 100 transactions of two items: 100 keys, two supports, and the
        // two items kept of a transaction.
        let db = TransactionDb::from_transactions(vec![vec![0, 1]; 100], 2);
        let (pairs, report) = Apriori.mine_pairs_with_report(&db, 1);
        assert_eq!(pairs.len(), 1);
        assert_eq!(report.pairs_found, 1);
        assert!(report.seconds >= 0.0);
        assert!(report.peak_bytes >= 100 * 8 + 2 * 4 + 2 * 4);
        // Pruned items write no key: at support 101 nothing is counted.
        let (none, pruned) = Apriori.mine_pairs_with_report(&db, 101);
        assert!(none.is_empty());
        assert!(pruned.peak_bytes < 100 * 8);
    }
}
