//! Property-based tests: Apriori agrees with a brute-force oracle on random
//! transaction databases, and the matcher always produces legal assignments.

use fqos_fim::transaction::brute_force_pairs;
use fqos_fim::{match_design_blocks, Apriori, PairMiner, TransactionDb};
use proptest::prelude::*;

fn db_strategy() -> impl Strategy<Value = TransactionDb> {
    (
        2u32..20,
        prop::collection::vec(prop::collection::vec(0u32..20, 0..8), 0..40),
    )
        .prop_map(|(num_items, txs)| {
            let txs: Vec<Vec<u32>> = txs
                .into_iter()
                .map(|t| t.into_iter().map(|i| i % num_items).collect())
                .collect();
            TransactionDb::from_transactions(txs, num_items)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn miners_agree_with_oracle(db in db_strategy(), support in 1u32..5) {
        prop_assert_eq!(Apriori.mine_pairs(&db, support), brute_force_pairs(&db, support));
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
