//! Building a QoS deployment for *your* array: pick a design from the
//! catalog for a target device count or QoS requirement, inspect its
//! guarantees, and verify them exactly.
//!
//! Run with: `cargo run --release --example custom_design`

use flash_qos::decluster::analysis::worst_case_accesses;
use flash_qos::decluster::sampling::optimal_retrieval_probabilities;
use flash_qos::prelude::*;

fn main() {
    let catalog = DesignCatalog;

    // 1. From a device count: the smallest constructible (N,3,1) design
    //    with at least 20 devices.
    let n = catalog.next_constructible_devices(20);
    let design = catalog.find(n, 3).expect("catalog design");
    design.verify().expect("design axioms");
    let g = RetrievalGuarantee::of(&design);
    println!(
        "array of {n} devices, 3 copies: {} design blocks, {} buckets with rotations",
        design.num_blocks(),
        g.supported_buckets()
    );
    for m in 1..=4 {
        println!(
            "  any {:>3} buckets retrievable in {m} access(es)",
            g.buckets_in(m)
        );
    }

    // 2. From a QoS requirement: guarantee 14 block reads per interval in
    //    at most 2 accesses.
    let design2 = catalog.for_guarantee(14, 2).expect("feasible requirement");
    println!(
        "\nrequirement '14 blocks in 2 accesses' → ({}, 3, 1) design",
        design2.v()
    );

    // 3. Verify the guarantee exactly on the (9,3,1) paper design: the
    //    costliest set of S(2) = 14 distinct buckets, from Hall's cuts.
    let scheme = DesignTheoretic::paper_9_3_1();
    let worst = worst_case_accesses(&scheme, 14);
    let promised = scheme.guarantee().accesses_for(14);
    println!(
        "\n(9,3,1): worst cost of any 14-bucket request: {worst} accesses (guarantee: {promised})"
    );
    assert!(worst <= promised);

    // 4. And probabilistically: the P_k table that statistical QoS uses.
    let probs = optimal_retrieval_probabilities(&scheme, 10, 20_000, 1);
    println!("\noptimal-retrieval probabilities (with-replacement draws):");
    for k in 5..=10 {
        println!("  P_{k:<2} = {:.3}", probs.p_k(k));
    }
}
