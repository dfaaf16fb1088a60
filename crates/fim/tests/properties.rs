//! Property-based tests: Apriori agrees with a brute-force oracle on random
//! transaction databases, the matcher agrees with the hashed matcher it
//! replaced (whose color choice is the plain scan over every color) and
//! always produces legal assignments, and mining straight into the pair
//! graph matches the pairs the long way round.

mod oracle;

use fqos_fim::{
    match_design_blocks, mine_and_match, Apriori, FrequentPair, PairMiner, TransactionDb,
};
use oracle::{brute_force_pairs, match_design_blocks_hashed};
use proptest::prelude::*;

/// Design-block counts for the coloring: one and two colors, the paper's 36
/// and 78, and either side of one, two and three 64-bit words of colors.
const DESIGN_BLOCKS: [usize; 10] = [1, 2, 36, 63, 64, 65, 78, 128, 129, 200];

fn design_blocks() -> impl Strategy<Value = usize> {
    (0..DESIGN_BLOCKS.len()).prop_map(|i| DESIGN_BLOCKS[i])
}

/// A random graph on `n` blocks as a pair list: each pair kept with
/// probability `keep / 8` (all of them at 8), supports in
/// `1..=max_support` so weights and color uses tie often.
fn random_graph(n: u64, keep: u64, max_support: u64, seed: u64) -> Vec<FrequentPair> {
    let mut pairs = Vec::new();
    for a in 0..n {
        for b in a + 1..n {
            // SplitMix64 of the pair's index.
            let mut h = seed.wrapping_add((a * n + b).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            h ^= h >> 31;
            if h % 8 < keep {
                pairs.push(FrequentPair {
                    a: 1_000 + 3 * a,
                    b: 1_000 + 3 * b,
                    support: 1 + ((h >> 8) % max_support) as u32,
                });
            }
        }
    }
    pairs
}

/// Twenty far-apart blocks: sparse, yet few enough to co-occur and form
/// pairs. Strictly increasing in `k < 20`.
fn sparse_lbn(k: u64) -> u64 {
    k * (u64::MAX / 20) + k * k * 7_919
}

/// Timed events over 20 sparse blocks, in the order the strategy drew them
/// (arrival times are arbitrary, so the order is unsorted).
fn events_strategy() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..4_000, 0u64..20), 0..160).prop_map(|events| {
        events
            .into_iter()
            .map(|(t, k)| (t, sparse_lbn(k)))
            .collect()
    })
}

/// Databases from both constructors: dense ids handed over directly, and
/// ids assigned by `from_timed_events` to unsorted events on sparse LBNs.
fn db_strategy() -> impl Strategy<Value = TransactionDb> {
    (
        2u32..20,
        prop::collection::vec(prop::collection::vec(0u32..20, 0..8), 0..40),
        events_strategy(),
        any::<bool>(),
    )
        .prop_map(|(num_items, txs, events, timed)| {
            if timed {
                return TransactionDb::from_timed_events(events, 100);
            }
            let txs: Vec<Vec<u32>> = txs
                .into_iter()
                .map(|t| t.into_iter().map(|i| i % num_items).collect())
                .collect();
            TransactionDb::from_transactions(txs, num_items)
        })
}

/// Pair lists as no miner would hand them over: unsorted, repeated, over a
/// handful of blocks spread up to `u64::MAX`, supports from a set of four
/// so weights tie, 0 among them: a pair of support 0 is no conflict.
fn pairs_strategy() -> impl Strategy<Value = Vec<FrequentPair>> {
    let block = |k: u64| u64::MAX - sparse_lbn(k);
    prop::collection::vec((0u64..12, 0u64..12, 0u32..4), 0..60).prop_map(move |raw| {
        raw.into_iter()
            .filter(|&(x, y, _)| x != y)
            .map(|(x, y, support)| FrequentPair {
                a: block(x).min(block(y)),
                b: block(x).max(block(y)),
                support,
            })
            .collect()
    })
}

#[test]
fn brute_force_counts_supports() {
    let db = TransactionDb::from_transactions(
        vec![
            vec![0, 1, 2],
            vec![0, 1],
            vec![0, 2],
            vec![1, 2],
            vec![0, 1],
        ],
        3,
    );
    let pairs = brute_force_pairs(&db, 2);
    // (0,1): 3, (0,2): 2, (1,2): 2.
    assert_eq!(pairs.len(), 3);
    assert_eq!(
        pairs[0],
        FrequentPair {
            a: 0,
            b: 1,
            support: 3
        }
    );
    assert_eq!(brute_force_pairs(&db, 3).len(), 1);
}

#[test]
fn matches_brute_force_on_small_db() {
    let db = TransactionDb::from_transactions(
        vec![
            vec![0, 1, 2, 3],
            vec![0, 1, 2],
            vec![0, 1],
            vec![2, 3],
            vec![0, 3],
            vec![1, 2, 3],
        ],
        4,
    );
    for support in 1..=4 {
        assert_eq!(
            Apriori.mine_pairs(&db, support),
            brute_force_pairs(&db, support),
            "support {support}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn miners_agree_with_oracle(db in db_strategy(), support in 1u32..5) {
        prop_assert_eq!(Apriori.mine_pairs(&db, support), brute_force_pairs(&db, support));
    }

    #[test]
    fn event_order_does_not_change_the_database(events in events_strategy()) {
        let mut sorted = events.clone();
        sorted.sort_unstable();
        let (shuffled, sorted) = (
            TransactionDb::from_timed_events(events, 100),
            TransactionDb::from_timed_events(sorted, 100),
        );
        prop_assert_eq!(shuffled.len(), sorted.len());
        for (a, b) in shuffled.transactions().zip(sorted.transactions()) {
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(shuffled, sorted);
    }

    #[test]
    fn matcher_agrees_with_hashed_oracle(pairs in pairs_strategy(), d in 1usize..200) {
        let m = match_design_blocks(&pairs, d);
        let oracle = match_design_blocks_hashed(&pairs, d);
        prop_assert_eq!(m.matched_blocks(), oracle.len());
        for p in &pairs {
            for lbn in [p.a, p.b] {
                prop_assert!(m.is_matched(lbn));
                prop_assert_eq!(m.bucket_for(lbn), oracle[&lbn]);
            }
            // A block next to a matched one is not matched by accident.
            for lbn in [p.a.wrapping_sub(1), p.b.wrapping_add(1)] {
                prop_assert_eq!(m.is_matched(lbn), oracle.contains_key(&lbn));
                if !oracle.contains_key(&lbn) {
                    prop_assert_eq!(m.bucket_for(lbn), (lbn % d as u64) as usize);
                }
            }
        }
    }

    #[test]
    fn coloring_agrees_with_the_scan_on_dense_and_tied_graphs(
        d in design_blocks(),
        extra in 0u64..12,
        keep in 1u64..=8,
        max_support in 1u64..=3,
        seed in any::<u64>(),
    ) {
        // Up to eleven blocks more than colors: in a complete graph the
        // later blocks find every color taken and fall back to the scan.
        let n = (d as u64).saturating_sub(3) + extra;
        let pairs = random_graph(n, keep, max_support, seed);
        let m = match_design_blocks(&pairs, d);
        let oracle = match_design_blocks_hashed(&pairs, d);
        prop_assert_eq!(m.matched_blocks(), oracle.len());
        for (&lbn, &bucket) in &oracle {
            prop_assert_eq!(m.bucket_for(lbn), bucket);
        }
        if keep == 8 && n > d as u64 {
            // Two blocks of one pair share a color: the fallback ran.
            prop_assert!(m.separation_quality(&pairs) < 1.0);
        }
    }

    #[test]
    fn mining_into_the_graph_agrees_with_matching_mined_pairs(
        db in db_strategy(),
        support in 1u32..4,
        d in design_blocks(),
    ) {
        let pairs = Apriori.mine_pairs(&db, support);
        let (fused, report) = mine_and_match(&db, support, d);
        prop_assert_eq!(report.pairs_found, pairs.len());
        prop_assert_eq!(fused, match_design_blocks(&pairs, d));
    }

    #[test]
    fn support_is_monotone(db in db_strategy()) {
        // Raising min_support can only shrink the result set, and every
        // surviving pair keeps its exact support.
        let low = Apriori.mine_pairs(&db, 1);
        let high = Apriori.mine_pairs(&db, 3);
        prop_assert!(high.len() <= low.len());
        for p in &high {
            prop_assert!(p.support >= 3);
            prop_assert!(low.contains(p));
        }
    }

    #[test]
    fn matcher_assignments_are_in_range(db in db_strategy(), d in 1usize..40) {
        let pairs = Apriori.mine_pairs(&db, 1);
        let m = match_design_blocks(&pairs, d);
        for p in &pairs {
            prop_assert!(m.bucket_for(p.a) < d);
            prop_assert!(m.bucket_for(p.b) < d);
            prop_assert!(m.is_matched(p.a) && m.is_matched(p.b));
        }
        // Unseen blocks use modulo.
        prop_assert_eq!(m.bucket_for(10_000_019), (10_000_019 % d as u64) as usize);
    }

    #[test]
    fn matcher_separates_when_colors_suffice(db in db_strategy()) {
        // With more design blocks than pair-graph degree+1, a perfect
        // separation always exists, and greedy achieves it because a
        // zero-conflict color is always available.
        let pairs = Apriori.mine_pairs(&db, 1);
        let m = match_design_blocks(&pairs, 64);
        // Max degree in the pair graph is < 20 items < 64 colors.
        prop_assert_eq!(m.separation_quality(&pairs), 1.0);
    }
}
