//! Property-based tests for trace handling and generation.

use fqos_flashsim::IoOp;
use fqos_traces::models::exchange::{exchange, ExchangeConfig};
use fqos_traces::models::tpce::{tpce, TpceConfig};
use fqos_traces::{ascii, SyntheticConfig, Trace, TraceRecord};
use proptest::prelude::*;

fn record_strategy() -> impl Strategy<Value = TraceRecord> {
    (
        0u64..10_000_000,
        0u16..9,
        0u64..100_000,
        1u32..5,
        any::<bool>(),
    )
        .prop_map(|(t, dev, lbn, blocks, read)| TraceRecord {
            arrival_ns: t,
            device: dev,
            lbn,
            size_bytes: blocks * 8192,
            op: if read { IoOp::Read } else { IoOp::Write },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ASCII round-trip preserves every record (modulo millisecond arrival
    /// rounding, which the 6-decimal format keeps exact for ns values).
    #[test]
    fn ascii_roundtrip(records in prop::collection::vec(record_strategy(), 0..50)) {
        let t = Trace::new("t", records, 9, 1_000_000);
        let text = ascii::emit(&t);
        let back = ascii::parse(&text, "t", 9, 1_000_000).unwrap();
        prop_assert_eq!(t.records.len(), back.records.len());
        for (a, b) in t.records.iter().zip(&back.records) {
            prop_assert_eq!(a.device, b.device);
            prop_assert_eq!(a.lbn, b.lbn);
            prop_assert_eq!(a.size_bytes, b.size_bytes);
            prop_assert_eq!(a.op, b.op);
            // 6-decimal ms keeps nanosecond precision exactly.
            prop_assert_eq!(a.arrival_ns, b.arrival_ns);
        }
    }

    /// Interval partitioning is a true partition: every record lands in
    /// exactly one interval slice, in order.
    #[test]
    fn intervals_partition_records(
        records in prop::collection::vec(record_strategy(), 1..80),
        interval_ns in 1u64..5_000_000,
    ) {
        let t = Trace::new("t", records, 9, interval_ns);
        let total: usize = t.intervals().map(<[fqos_traces::TraceRecord]>::len).sum();
        prop_assert_eq!(total, t.len());
        for (i, slice) in t.intervals().enumerate() {
            for r in slice {
                prop_assert_eq!(t.interval_of(r), i);
            }
        }
    }

    /// Synthetic generator invariants: exact request count, distinct blocks
    /// per interval, arrivals at interval starts.
    #[test]
    fn synthetic_generator_invariants(
        blocks in 1usize..30,
        total in 1usize..2000,
        seed in any::<u64>(),
    ) {
        let cfg = SyntheticConfig {
            blocks_per_interval: blocks,
            interval_ns: 133_000,
            total_requests: total,
            block_pool: 36,
            seed,
        };
        let t = cfg.generate();
        prop_assert_eq!(t.len(), total);
        for slice in t.intervals() {
            let mut lbns: Vec<u64> = slice.iter().map(|r| r.lbn).collect();
            let n = lbns.len();
            lbns.sort_unstable();
            lbns.dedup();
            prop_assert_eq!(lbns.len(), n, "duplicate block within an interval");
            prop_assert!(n <= blocks);
        }
        for r in &t.records {
            prop_assert_eq!(r.arrival_ns % 133_000, 0);
        }
    }

    /// Workload models are deterministic per seed and honor their device
    /// counts.
    #[test]
    fn models_are_deterministic(seed in any::<u64>()) {
        let cfg = ExchangeConfig {
            intervals: 3,
            interval_ns: 20_000_000,
            peak_rate_per_s: 3_000.0,
            seed,
        };
        let a = exchange(cfg).generate();
        let b = exchange(cfg).generate();
        prop_assert!(a.records.iter().all(|r| r.device < 9));
        prop_assert_eq!(a.records, b.records);
    }
}

#[test]
fn tpce_volume_skew_creates_hotspots() {
    let t = tpce(TpceConfig {
        part_ns: 60_000_000,
        ..Default::default()
    })
    .generate();
    let mut per_device = vec![0usize; t.num_devices];
    for r in &t.records {
        per_device[usize::from(r.device)] += 1;
    }
    let max = *per_device.iter().max().unwrap();
    let min = *per_device.iter().min().unwrap();
    assert!(
        max > 2 * min.max(1),
        "device loads too uniform: {per_device:?}"
    );
}

#[test]
fn exchange_is_diurnal() {
    let t = exchange(ExchangeConfig::default()).generate();
    let sizes: Vec<usize> = t
        .intervals()
        .map(<[fqos_traces::TraceRecord]>::len)
        .collect();
    assert_eq!(sizes.len(), 96);
    // First interval (afternoon) busier than the overnight trough region.
    let peak_zone: usize = sizes[..8].iter().sum();
    let trough_zone: usize = sizes[38..46].iter().sum();
    assert!(
        peak_zone > 2 * trough_zone,
        "peak {peak_zone} vs trough {trough_zone}"
    );
}
