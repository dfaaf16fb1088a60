//! Apriori with low-memory pair counting.
//!
//! The classical Apriori level-wise idea specialised for set size 2 the way
//! `fim apriori-lowmem` (Rácz et al., OSDM'05) does it: first count item
//! supports and prune infrequent items (downward closure: a frequent pair
//! consists of two frequent items), then count only pairs of frequent
//! items. No candidate list is materialized — the "lowmem" trick: every
//! co-occurrence of two frequent items is written as one packed `u64` key
//! `(a << 32) | b`, the keys are sorted, and a run of equal keys is a pair
//! with its support. Memory is `O(#items + #co-occurrences)`; and because
//! [`TransactionDb`] numbers items in ascending LBN order, ascending keys
//! are ascending `(a, b)` block pairs: the output needs no second sort.

use crate::transaction::{FrequentPair, MiningReport, PairMiner, TransactionDb};
use std::mem::size_of;
use std::time::Instant;

/// Apriori (low-memory variant) pair miner.
#[derive(Debug, Clone, Copy, Default)]
pub struct Apriori;

/// The frequent pairs of `db` in item space, `(a, b, support)` with `a < b`
/// and ascending by `(a, b)`, and the report of mining them.
pub(crate) fn mine_items(
    db: &TransactionDb,
    min_support: u32,
) -> (Vec<(u32, u32, u32)>, MiningReport) {
    let start = Instant::now();
    let min_support = min_support.max(1);

    // Pass 1: item supports.
    let mut item_support = vec![0u32; db.num_items()];
    for t in db.transactions() {
        for &i in t {
            item_support[i as usize] += 1;
        }
    }
    let frequent: Vec<bool> = item_support.iter().map(|&s| s >= min_support).collect();

    // Pass 2: one key per co-occurrence of two frequent items.
    let mut keys: Vec<u64> = Vec::new();
    let mut kept: Vec<u32> = Vec::new();
    for t in db.transactions() {
        kept.clear();
        kept.extend(t.iter().copied().filter(|&i| frequent[i as usize]));
        for (i, &a) in kept.iter().enumerate() {
            keys.extend(
                kept[i + 1..]
                    .iter()
                    .map(|&b| u64::from(a) << 32 | u64::from(b)),
            );
        }
    }
    keys.sort_unstable();

    let mut out = Vec::new();
    let mut rest = &keys[..];
    while let Some(&key) = rest.first() {
        let run = rest.iter().take_while(|&&k| k == key).count();
        rest = &rest[run..];
        if run >= min_support as usize {
            let support = u32::try_from(run).unwrap_or(u32::MAX);
            out.push(((key >> 32) as u32, key as u32, support));
        }
    }
    let report = MiningReport {
        seconds: start.elapsed().as_secs_f64(),
        peak_bytes: keys.capacity() * size_of::<u64>()
            + (item_support.capacity() + kept.capacity()) * size_of::<u32>()
            + frequent.capacity() * size_of::<bool>(),
        pairs_found: out.len(),
    };
    (out, report)
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
        let (items, report) = mine_items(db, min_support);
        let pair = |(a, b, support)| FrequentPair {
            a: db.lbn_of(a),
            b: db.lbn_of(b),
            support,
        };
        (items.into_iter().map(pair).collect(), report)
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
        // 100 transactions of two items: 100 keys, two supports, two flags.
        let db = TransactionDb::from_transactions(vec![vec![0, 1]; 100], 2);
        let (pairs, report) = Apriori.mine_pairs_with_report(&db, 1);
        assert_eq!(pairs.len(), 1);
        assert_eq!(report.pairs_found, 1);
        assert!(report.seconds >= 0.0);
        assert!(report.peak_bytes >= 100 * 8 + 2 * 4 + 2);
        // Pruned items write no key: at support 101 nothing is counted.
        let (none, pruned) = Apriori.mine_pairs_with_report(&db, 101);
        assert!(none.is_empty());
        assert!(pruned.peak_bytes < 100 * 8);
    }
}
