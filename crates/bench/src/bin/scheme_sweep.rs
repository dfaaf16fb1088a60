//! Extension experiment — the §II-B2 scheme ranking, measured.
//!
//! The paper argues qualitatively that design-theoretic allocation beats
//! RDA (no guarantee), partitioned (bad for arbitrary queries), dependent
//! periodic (bad for arbitrary queries) and orthogonal (weaker bound).
//! This binary quantifies the claim two ways:
//!
//! 1. `P_k` — the Fig. 4 optimal-retrieval probability at the deterministic
//!    limit and around it, for every scheme;
//! 2. worst-case accesses for small request sizes, exact: the largest Hall
//!    cut over all device sets (`fqos_decluster::analysis`).
//!
//! As an extension it sets the exact guarantee of the two paper designs, the
//! largest `b` whose every `b`-set retrieves in `M` accesses, beside `S(M)`.

use fqos_bench::{banner, TableBuilder};
use fqos_decluster::analysis::worst_case_profile;
use fqos_decluster::sampling::optimal_retrieval_probabilities;
use fqos_decluster::{
    AllocationScheme, DependentPeriodic, DesignTheoretic, Orthogonal, Partitioned, Raid1Chained,
    Raid1Mirrored, RandomDuplicate,
};

fn main() {
    banner(
        "scheme_sweep",
        "§II-B2 (extension)",
        "Quantitative ranking of all declustering schemes: P_k and worst-case accesses",
    );

    let schemes: Vec<Box<dyn AllocationScheme + Sync>> = vec![
        Box::new(DesignTheoretic::paper_9_3_1()),
        Box::new(Raid1Chained::paper()),
        Box::new(Raid1Mirrored::paper()),
        Box::new(RandomDuplicate::new(9, 3, 36, 0xDA)),
        Box::new(Partitioned::new(9, 3, 36)),
        Box::new(DependentPeriodic::new(9, 3, 2, 36)),
        Box::new(Orthogonal::new(9, 36)),
    ];

    println!("P_k at and around the (9,3,1) deterministic limit (20k trials, with replacement):\n");
    let mut table = TableBuilder::new(&["scheme", "P_5", "P_7", "P_9", "P_14"]);
    for s in &schemes {
        let p = optimal_retrieval_probabilities(s.as_ref(), 14, 20_000, 0x5CE);
        table.row(&[
            s.name().to_string(),
            format!("{:.3}", p.p_k(5)),
            format!("{:.3}", p.p_k(7)),
            format!("{:.3}", p.p_k(9)),
            format!("{:.3}", p.p_k(14)),
        ]);
    }
    table.print();

    println!(
        "\nWorst-case accesses for b = 1..8 (exact: the largest Hall cut over all device sets):\n"
    );
    let mut table = TableBuilder::new(&[
        "scheme", "b=1", "b=2", "b=3", "b=4", "b=5", "b=6", "b=7", "b=8",
    ]);
    for s in &schemes {
        let profile = worst_case_profile(s.as_ref(), 8);
        let mut row = vec![s.name().to_string()];
        row.extend(profile.iter().map(std::string::ToString::to_string));
        table.row(&row);
    }
    table.print();

    println!("\nExpected ranking: design-theoretic holds worst case 1 through b = 5 (the S(1)");
    println!("guarantee) — every other scheme degrades earlier, mirrored/partitioned fastest.");

    println!(
        "\nLargest b whose every b-bucket set retrieves in M accesses (exact) against S(M):\n"
    );
    let mut table = TableBuilder::new(&["design", "", "M=1", "M=2", "M=3", "M=4", "M=5"]);
    for s in [
        DesignTheoretic::paper_9_3_1(),
        DesignTheoretic::paper_13_3_1(),
    ] {
        let profile = worst_case_profile(&s, s.num_buckets());
        let g = s.guarantee();
        let mut paper = vec![s.name().to_string(), "S(M)".to_string()];
        let mut exact = vec![String::new(), "exact".to_string()];
        for m in 1..=5 {
            paper.push(g.buckets_in(m).to_string());
            exact.push(profile.partition_point(|&w| w <= m).to_string());
        }
        table.row(&paper);
        table.row(&exact);
    }
    table.print();
    println!("\n(9,3,1) meets S(M) exactly up to its 36 buckets; (13,3,1) serves any 30 buckets");
    println!("in 3 accesses, where S(3) promises 27.");
}
