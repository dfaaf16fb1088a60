//! Table III — comparison of allocation schemes: response times (ms).
//!
//! Synthetic workloads (10 000 requests; 5 blocks / 0.133 ms, 14 / 0.266,
//! 27 / 0.399; blocks drawn from the 36-bucket pool), replayed against
//! RAID-1 mirrored, RAID-1 chained and the (9,3,1) design-theoretic QoS
//! system. Paper shape: the design meets every deadline exactly
//! (max = M × 0.132507 ms); chained misses by small factors; mirrored
//! blows up dramatically as the load grows.

use fqos_bench::{banner, ms, TableBuilder};
use fqos_core::mapping::MappingStrategy;
use fqos_core::{QosConfig, QosPipeline};
use fqos_decluster::AllocationScheme;
use fqos_flashsim::time::BASE_INTERVAL_NS;
use fqos_traces::SyntheticConfig;

fn main() {
    banner(
        "table3",
        "Table III",
        "Response times (avg / std / max, ms) of RAID-1 mirrored, RAID-1 chained and (9,3,1) design-theoretic",
    );

    let mut table = TableBuilder::new(&[
        "req size",
        "interval (ms)",
        "mirrored avg",
        "mirrored std",
        "mirrored max",
        "chained avg",
        "chained std",
        "chained max",
        "design avg",
        "design std",
        "design max",
        "guarantee met",
    ]);

    for &(blocks, m) in &[(5usize, 1usize), (14, 2), (27, 3)] {
        let interval_ns = m as u64 * BASE_INTERVAL_NS;
        let trace = SyntheticConfig::table3(blocks, interval_ns).generate();
        let pipeline = QosPipeline::new(QosConfig::paper_9_3_1().with_accesses(m))
            .with_mapping(MappingStrategy::Modulo);

        let mirrored = pipeline
            .run_interval()
            .run_baseline(&trace, &AllocationScheme::mirrored(9, 3, 36));
        let chained = pipeline
            .run_interval()
            .run_baseline(&trace, &AllocationScheme::chained(9, 3, 36));
        let design = pipeline.run_interval().run(&trace);

        let met = design.total_response.max_ns() <= interval_ns;
        table.row(&[
            blocks.to_string(),
            ms(interval_ns as f64 / 1e6),
            ms(mirrored.total_response.mean_ms()),
            ms(mirrored.total_response.std_ms()),
            ms(mirrored.total_response.max_ms()),
            ms(chained.total_response.mean_ms()),
            ms(chained.total_response.std_ms()),
            ms(chained.total_response.max_ms()),
            ms(design.total_response.mean_ms()),
            ms(design.total_response.std_ms()),
            ms(design.total_response.max_ms()),
            if met { "yes".into() } else { "NO".into() },
        ]);
    }
    table.print();

    println!("\nPaper anchors: design max = 0.132 / 0.263 / 0.393 ms (within every interval);");
    println!("chained max ≈ 0.52 / 1.18 / 2.15 ms; mirrored max up to ≈ 12.9 ms at 27 blocks.");
}
