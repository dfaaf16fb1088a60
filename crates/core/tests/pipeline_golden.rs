//! Golden digests of `QosPipeline::run_online`, recorded at the commit
//! before the offline pass went from hashed to flat data structures
//! (`TransactionDb`, `Apriori`, `match_design_blocks`, `WindowBudgets`).
//! The rewrite's contract is a bit-identical `QosReport`; these cases walk
//! every branch of `OnlineQos::run`: immediate, delayed, rejected,
//! statistically over-admitted, joint (same-timestamp) and write.
//! `exchange_interval_aligned_fim` and `tpce_on_13_3_1` were recorded
//! later, before the matcher was fused into the miner's item space and
//! began choosing colors from per-use-level bitsets.

use fqos_core::{OverloadPolicy, QosConfig, QosPipeline, QosReport};
use fqos_decluster::AllocationScheme;
use fqos_flashsim::time::BASE_INTERVAL_NS;
use fqos_traces::models::exchange::{exchange, ExchangeConfig};
use fqos_traces::models::tpce::{tpce, TpceConfig};
use fqos_traces::rw::with_write_fraction;
use fqos_traces::{SyntheticConfig, Trace};

/// FNV-1a over the report's words. `MiningReport::seconds` is wall-clock
/// and `peak_bytes` describes the miner's buffers, not its result: neither
/// is part of the contract.
fn digest(r: &QosReport) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    word(r.completed());
    word(r.rejected);
    word(r.total_response.mean_ns().to_bits());
    word(r.total_response.std_ns().to_bits());
    word(r.total_response.max_ns());
    let iv = &r.intervals;
    word(iv.num_intervals() as u64);
    for i in 0..iv.num_intervals() {
        word(iv.requests[i]);
        word(iv.delayed[i]);
        word(u64::try_from(iv.delay_sum_ns[i]).expect("delay sum fits 64 bits"));
        word(iv.response[i].count());
        word(iv.response[i].mean_ns().to_bits());
        word(iv.response[i].max_ns());
    }
    word(r.matched_fraction.len() as u64);
    for f in &r.matched_fraction {
        word(f.to_bits());
    }
    word(r.mining.len() as u64);
    for m in &r.mining {
        word(m.pairs_found as u64);
    }
    format!("{h:016x}")
}

fn exchange_16() -> Trace {
    exchange(ExchangeConfig {
        intervals: 16,
        seed: 1,
        ..ExchangeConfig::default()
    })
    .generate()
}

/// 14 simultaneous requests per window on `(9,3,1)` at `M = 1`, a quarter
/// of them writes: joint assignment, write fan-out and overload at once.
fn synthetic_writes() -> Trace {
    let reads = SyntheticConfig {
        blocks_per_interval: 14,
        interval_ns: BASE_INTERVAL_NS,
        total_requests: 3_000,
        block_pool: 36,
        seed: 3,
    }
    .generate();
    with_write_fraction(&reads, 0.25, 9)
}

fn run(config: QosConfig, trace: &Trace) -> QosReport {
    QosPipeline::new(config).run_online(trace)
}

fn rejecting() -> QosConfig {
    let mut config = QosConfig::paper_9_3_1();
    config.policy = OverloadPolicy::Reject;
    config
}

#[test]
fn exchange_deterministic_delay() {
    let report = run(QosConfig::paper_9_3_1(), &exchange_16());
    assert!(report.delayed_pct() > 0.0, "the delay branch must run");
    assert!(report.mining.iter().any(|m| m.pairs_found > 0));
    assert_eq!(digest(&report), "7aa742e4c3748702");
}

#[test]
fn exchange_deterministic_reject() {
    let report = run(rejecting(), &exchange_16());
    assert!(report.rejected > 0, "the reject branch must run");
    assert_eq!(digest(&report), "ddfa1f058e8b1183");
}

#[test]
fn exchange_statistical() {
    let config = QosConfig::paper_9_3_1().with_epsilon(0.05);
    let service_ns = config.service_ns;
    let report = run(config, &exchange_16());
    assert!(
        report.total_response.max_ns() > service_ns,
        "an over-admitted request must have queued"
    );
    assert_eq!(digest(&report), "88d1a52ad3729d91");
}

/// The interval-aligned scheduler under FIM mapping: the Table III /
/// Fig. 12 path, which mines and matches at every reporting interval too.
#[test]
fn exchange_interval_aligned_fim() {
    let report = QosPipeline::new(QosConfig::paper_9_3_1())
        .run_interval()
        .run(&exchange_16());
    assert!(report.mining.iter().any(|m| m.pairs_found > 0));
    assert_eq!(digest(&report), "5059ce3d6a020609");
}

/// `(13,3,1)`: 78 design blocks, so the matcher's color sets span two
/// 64-bit words.
#[test]
fn tpce_on_13_3_1() {
    let config = QosConfig::paper_13_3_1();
    assert_eq!(config.scheme.num_buckets(), 78);
    let trace = tpce(TpceConfig {
        part_ns: 50_000_000,
        ..TpceConfig::default()
    })
    .generate();
    let report = run(config, &trace);
    assert!(report.mining.iter().any(|m| m.pairs_found > 0));
    assert_eq!(digest(&report), "3b6bbf05e9425d92");
}

#[test]
fn synthetic_quarter_writes() {
    let trace = synthetic_writes();
    let delayed = run(QosConfig::paper_9_3_1(), &trace);
    assert!(delayed.delayed_pct() > 0.0);
    assert_eq!(digest(&delayed), "8f3251958b29eade");
    let rejected = run(rejecting(), &trace);
    assert!(rejected.rejected > 0);
    assert_eq!(digest(&rejected), "e5ac8a0a54f38d47");
}
