//! Fig. 4 — optimal retrieval probabilities `P_k` of the (9,3,1) design.
//!
//! Reproduces §III-B1: `k` buckets drawn (with replacement) from the 36
//! rotated buckets; `P_k` = probability they are retrievable in the optimal
//! `⌈k/9⌉` accesses. Paper anchors: P_6 ≈ 0.99, P_7 ≈ 0.98, P_8 ≈ 0.95,
//! P_9 ≈ 0.75, P_10 = 1, converging to 1 as k grows.

use fqos_bench::{banner, TableBuilder};
use fqos_decluster::sampling::optimal_retrieval_probabilities;
use fqos_decluster::AllocationScheme;

fn main() {
    banner(
        "fig4",
        "Fig. 4",
        "Optimal retrieval probabilities of the (9,3,1) design (100k trials per k)",
    );
    let scheme = AllocationScheme::paper_9_3_1();
    let trials = std::env::var("FQOS_TRIALS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let probs = optimal_retrieval_probabilities(&scheme, 36, trials, 0xF164);

    let mut table = TableBuilder::new(&["k", "P_k (measured)", "paper", "optimal accesses"]);
    let paper: &[(usize, &str)] = &[
        (6, "0.99"),
        (7, "0.98"),
        (8, "0.95"),
        (9, "0.75"),
        (10, "1.00"),
    ];
    for k in 1..=36 {
        let reference = paper
            .iter()
            .find(|&&(pk, _)| pk == k)
            .map(|&(_, v)| v)
            .unwrap_or(if k <= 5 { "1.00" } else { "-" });
        table.row(&[
            k.to_string(),
            format!("{:.4}", probs.p_k(k)),
            reference.to_string(),
            k.div_ceil(9).to_string(),
        ]);
    }
    table.print();

    // The characteristic shape: dips just below multiples of N = 9.
    println!(
        "\nDips (k=9: {:.3}, k=18: {:.3}, k=27: {:.3}) — lowest near multiples of N=9, as in the paper.",
        probs.p_k(9),
        probs.p_k(18),
        probs.p_k(27)
    );
}
