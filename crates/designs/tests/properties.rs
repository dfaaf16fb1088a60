//! Property-based tests for the design substrate.

use fqos_designs::{design::Design, guarantee::RetrievalGuarantee, steiner::steiner_triple_system};
use proptest::prelude::*;

/// Constructible STS orders below 100 (v ≡ 3 mod 6, or prime v ≡ 1 mod 6).
fn constructible_orders() -> Vec<usize> {
    (7..100)
        .filter(|&v| steiner_triple_system(v).is_ok())
        .collect()
}

proptest! {
    #[test]
    fn constructed_sts_satisfies_all_axioms(idx in 0usize..14) {
        let orders = constructible_orders();
        let v = orders[idx % orders.len()];
        let d = steiner_triple_system(v).unwrap();
        prop_assert!(d.verify().is_ok());
        prop_assert_eq!(d.num_blocks(), v * (v - 1) / 6);
    }

    #[test]
    fn any_two_sts_blocks_share_at_most_one_point(idx in 0usize..14, seed in any::<u64>()) {
        let orders = constructible_orders();
        let v = orders[idx % orders.len()];
        let d = steiner_triple_system(v).unwrap();
        let n = d.num_blocks();
        let i = (seed as usize) % n;
        let j = (seed as usize / n) % n;
        if i != j {
            prop_assert!(d.blocks_share_at_most_lambda(i, j));
        }
    }

    #[test]
    fn guarantee_inverse_roundtrip(copies in 2usize..6, buckets in 1usize..2000) {
        let g = RetrievalGuarantee::new(16, copies);
        let m = g.accesses_for(buckets);
        // m is feasible…
        prop_assert!(g.buckets_in(m) >= buckets);
        // …and minimal.
        if m > 1 {
            prop_assert!(g.buckets_in(m - 1) < buckets);
        }
    }

    #[test]
    fn guarantee_never_beats_optimal_bound_for_supported_loads(buckets in 1usize..36) {
        // The worst-case guarantee can never promise fewer accesses than the
        // information-theoretic optimum ⌈b/N⌉.
        let g = RetrievalGuarantee::new(9, 3);
        prop_assert!(g.accesses_for(buckets) >= g.optimal_accesses(buckets));
    }
}

#[test]
fn verification_rejects_mutated_designs() {
    // Swap one point of one block of a valid STS: some pair must break.
    let d = steiner_triple_system(9).unwrap();
    let mut blocks = d.blocks().to_vec();
    let old = blocks[0][0];
    blocks[0][0] = (old + 1) % 9;
    if blocks[0].contains(&blocks[0][0]) && blocks[0][1..].contains(&blocks[0][0]) {
        // Mutation produced a repeated point — also a rejection.
    }
    let mutated = Design::new_unchecked(9, 3, 1, blocks);
    assert!(mutated.verify().is_err());
}
