//! Cross-crate integration tests: the full pipeline on real workload
//! models, guarantee verification, and paper-shape assertions.

use flash_qos::prelude::*;
use flash_qos::traces::models::exchange::ExchangeConfig;
use flash_qos::traces::models::tpce::TpceConfig;

fn mini_exchange() -> Trace {
    models::exchange(ExchangeConfig {
        intervals: 8,
        interval_ns: 100_000_000,
        peak_rate_per_s: 6_000.0,
        seed: 0xE8,
    })
    .generate()
}

fn mini_tpce() -> Trace {
    models::tpce(TpceConfig {
        part_ns: 100_000_000,
        rate_per_s: 15_000.0,
        seed: 0x7C,
    })
    .generate()
}

#[test]
fn deterministic_guarantee_holds_on_exchange_model() {
    let trace = mini_exchange();
    let config = QosConfig::paper_9_3_1();
    let service = config.service_ns;
    let report = QosPipeline::new(config).run_online(&trace);
    // Every single served request finished in exactly one device read.
    assert_eq!(report.completed(), trace.len() as u64);
    assert_eq!(report.total_response.max_ns(), service);
    // Overload exists and is absorbed as bounded delay.
    assert!(
        report.delayed_pct() > 0.0,
        "model should produce some contention"
    );
    assert!(
        report.delayed_pct() < 50.0,
        "delayed = {}",
        report.delayed_pct()
    );
}

#[test]
fn original_layout_violates_where_qos_does_not() {
    let trace = mini_exchange();
    let pipeline = QosPipeline::new(QosConfig::paper_9_3_1());
    let qos = pipeline.run_online(&trace);
    let orig = pipeline.run_original(&trace);
    assert!(orig.total_response.max_ns() > qos.total_response.max_ns() * 2);
    assert!(orig.total_response.mean_ns() > qos.total_response.mean_ns());
}

#[test]
fn tpce_guarantee_holds_on_13_3_1() {
    let trace = mini_tpce();
    let config = QosConfig::paper_13_3_1();
    let service = config.service_ns;
    let report = QosPipeline::new(config).run_online(&trace);
    assert_eq!(report.completed(), trace.len() as u64);
    assert_eq!(report.total_response.max_ns(), service);
}

#[test]
fn fim_rematch_contrast_between_workloads() {
    // Fig. 11 shape: TPC-E's persistent hot set re-matches far more than
    // Exchange's shifting working set.
    let ex = QosPipeline::new(QosConfig::paper_9_3_1())
        .run_online(&mini_exchange())
        .avg_matched_fraction();
    let tp = QosPipeline::new(QosConfig::paper_13_3_1())
        .run_online(&mini_tpce())
        .avg_matched_fraction();
    assert!(tp > 0.5, "tpce re-match = {tp}");
    assert!(ex < tp / 2.0, "exchange {ex} vs tpce {tp}");
}

#[test]
fn table3_shape_holds() {
    // Design meets every deadline; chained violates; mirrored is worst.
    let interval_ns = 3 * 133_000;
    let trace = SyntheticConfig {
        blocks_per_interval: 27,
        interval_ns,
        total_requests: 5_000,
        block_pool: 36,
        seed: 3,
    }
    .generate();
    let pipeline = QosPipeline::new(QosConfig::paper_9_3_1().with_accesses(3))
        .with_mapping(MappingStrategy::Modulo);

    let design = pipeline.run_interval().run(&trace);
    let chained = pipeline
        .run_interval()
        .run_baseline(&trace, &AllocationScheme::chained(9, 3, 36));
    let mirrored = pipeline
        .run_interval()
        .run_baseline(&trace, &AllocationScheme::mirrored(9, 3, 36));

    assert!(
        design.total_response.max_ns() <= interval_ns,
        "design violated"
    );
    assert!(
        chained.total_response.max_ns() > interval_ns,
        "chained should violate"
    );
    assert!(
        mirrored.total_response.max_ns() > chained.total_response.max_ns(),
        "mirrored ({}) should be worse than chained ({})",
        mirrored.total_response.max_ns(),
        chained.total_response.max_ns()
    );
    assert!(mirrored.total_response.mean_ns() > design.total_response.mean_ns());
}

#[test]
fn statistical_qos_tradeoff_direction() {
    let trace = mini_tpce();
    let det = QosPipeline::new(QosConfig::paper_13_3_1()).run_online(&trace);
    let stat = QosPipeline::new(QosConfig::paper_13_3_1().with_epsilon(0.05)).run_online(&trace);
    assert!(stat.delayed_pct() <= det.delayed_pct());
    assert!(stat.total_response.mean_ns() >= det.total_response.mean_ns());
    // Statistical mode may exceed the per-request guarantee — that is the
    // contract it sells.
    assert!(stat.total_response.max_ns() >= det.total_response.max_ns());
}

#[test]
fn online_beats_interval_alignment_on_delay() {
    // Fig. 12 / Theorem 1 shape: serving on arrival strictly reduces total
    // delay versus aligning to interval boundaries.
    let trace = mini_exchange();
    let pipeline = QosPipeline::new(QosConfig::paper_9_3_1());
    let online = pipeline.run_online(&trace);
    let aligned = pipeline.run_interval().run(&trace);
    let total_delay = |r: &QosReport| -> u128 { r.intervals.delay_sum_ns.iter().sum() };
    assert!(
        total_delay(&online) < total_delay(&aligned),
        "online {} vs aligned {}",
        total_delay(&online),
        total_delay(&aligned)
    );
}

#[test]
fn trace_roundtrip_through_disksim_ascii() {
    // Cross-crate: model → ASCII emit → parse → identical replay result.
    let trace = mini_tpce();
    let text = flash_qos::traces::ascii::emit(&trace);
    let parsed = flash_qos::traces::ascii::parse(
        &text,
        trace.name.clone(),
        trace.num_devices,
        trace.interval_ns,
    )
    .expect("emitted trace must parse");
    assert_eq!(parsed.len(), trace.len());
    let pipeline = QosPipeline::new(QosConfig::paper_13_3_1());
    let a = pipeline.run_original(&trace);
    let b = pipeline.run_original(&parsed);
    assert_eq!(a.total_response.count(), b.total_response.count());
    assert_eq!(a.total_response.max_ns(), b.total_response.max_ns());
}

#[test]
fn four_copy_design_raises_the_per_interval_limit() {
    // The paper's "adjust the copy and device count" knob: a (13,4,1)
    // design (PG(2,3), found by the difference-family search) guarantees
    // S(1) = 3·1² + 4·1 = 7 blocks per interval instead of 5.
    let design = DesignCatalog.find(13, 4).expect("(13,4,1) exists");
    let scheme = AllocationScheme::design(&design);
    assert_eq!(scheme.guarantee().map(|g| g.buckets_in(1)), Some(7));

    let mut config = QosConfig::paper_9_3_1();
    config.scheme = scheme;
    config.validate().unwrap();
    assert_eq!(config.request_limit(), 7);

    // 7 distinct buckets per window: never delayed.
    let records: Vec<TraceRecord> = (0..20u64)
        .flat_map(|w| {
            (0..7u64).map(move |i| TraceRecord {
                arrival_ns: w * 133_000,
                device: 0,
                lbn: w * 7 + i, // distinct buckets within each window
                size_bytes: 8192,
                op: flash_qos::flashsim::IoOp::Read,
            })
        })
        .collect();
    let trace = Trace::new("c4", records, 13, 10 * 133_000);
    let service = config.service_ns;
    let report = QosPipeline::new(config)
        .with_mapping(MappingStrategy::Modulo)
        .run_online(&trace);
    assert_eq!(report.delayed_pct(), 0.0);
    assert_eq!(report.total_response.max_ns(), service);
}

#[test]
fn reports_are_deterministic() {
    let trace = mini_exchange();
    let a = QosPipeline::new(QosConfig::paper_9_3_1()).run_online(&trace);
    let b = QosPipeline::new(QosConfig::paper_9_3_1()).run_online(&trace);
    assert_eq!(a.completed(), b.completed());
    assert_eq!(a.total_response.max_ns(), b.total_response.max_ns());
    assert_eq!(a.delayed_pct(), b.delayed_pct());
}
