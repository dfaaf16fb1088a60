//! Focused tests of the statistical QoS machinery (§III-B).

use fqos_core::admission::StatisticalCounters;
use fqos_core::config::QosConfig;
use fqos_core::mapping::{BlockMapping, MappingStrategy};
use fqos_core::scheduler::OnlineQos;
use fqos_decluster::sampling::optimal_retrieval_probabilities;
use fqos_decluster::AllocationScheme;
use fqos_flashsim::time::BASE_INTERVAL_NS;
use fqos_flashsim::{IoOp, BLOCK_SIZE_BYTES};
use fqos_traces::{Trace, TraceRecord};

fn rec(t: u64, lbn: u64) -> TraceRecord {
    TraceRecord {
        arrival_ns: t,
        device: 0,
        lbn,
        size_bytes: BLOCK_SIZE_BYTES,
        op: IoOp::Read,
    }
}

fn modulo_mapping() -> BlockMapping {
    BlockMapping::new(MappingStrategy::Modulo, 36, BASE_INTERVAL_NS, 1)
}

/// A workload with persistent 9-request bursts at window starts.
fn bursty_trace(windows: u64) -> Trace {
    let mut records = Vec::new();
    for w in 0..windows {
        for i in 0..9u64 {
            records.push(rec(w * BASE_INTERVAL_NS, (w * 3 + i) % 36));
        }
    }
    Trace::new("bursty", records, 9, 20 * BASE_INTERVAL_NS)
}

#[test]
fn q_converges_to_the_empirical_violation_rate() {
    // Feed counters a fixed size mix and check Q equals the closed form.
    let scheme = AllocationScheme::paper_9_3_1();
    let p = optimal_retrieval_probabilities(&scheme, 12, 30_000, 9);
    let mut c = StatisticalCounters::new();
    for _ in 0..60 {
        c.record_interval(3);
    }
    for _ in 0..30 {
        c.record_interval(8);
    }
    for _ in 0..10 {
        c.record_interval(9);
    }
    let q = c.violation_probability(&p);
    let expected = 0.6 * (1.0 - p.p_k(3)) + 0.3 * (1.0 - p.p_k(8)) + 0.1 * (1.0 - p.p_k(9));
    assert!(
        (q - expected).abs() < 1e-12,
        "q = {q}, expected = {expected}"
    );
    assert_eq!(c.intervals(), 100);
}

#[test]
fn epsilon_zero_matches_deterministic_exactly() {
    let trace = bursty_trace(60);
    let det = OnlineQos::new(QosConfig::paper_9_3_1());
    let stat_zero = OnlineQos::new(QosConfig::paper_9_3_1().with_epsilon(0.0));
    let a = det.run(&trace, &mut modulo_mapping());
    let b = stat_zero.run(&trace, &mut modulo_mapping());
    assert_eq!(a.delayed_pct(), b.delayed_pct());
    assert_eq!(a.total_response.max_ns(), b.total_response.max_ns());
    assert_eq!(a.total_response.mean_ns(), b.total_response.mean_ns());
}

#[test]
fn delayed_fraction_is_monotone_in_epsilon() {
    let trace = bursty_trace(80);
    let mut last = f64::INFINITY;
    for eps in [0.0, 0.05, 0.5] {
        let report = OnlineQos::new(QosConfig::paper_9_3_1().with_epsilon(eps))
            .run(&trace, &mut modulo_mapping());
        assert!(
            report.delayed_pct() <= last + 1e-9,
            "ε = {eps}: delayed {} > previous {last}",
            report.delayed_pct()
        );
        last = report.delayed_pct();
    }
}

#[test]
fn statistical_runs_are_deterministic() {
    let trace = bursty_trace(40);
    let a = OnlineQos::new(QosConfig::paper_9_3_1().with_epsilon(0.1))
        .run(&trace, &mut modulo_mapping());
    let b = OnlineQos::new(QosConfig::paper_9_3_1().with_epsilon(0.1))
        .run(&trace, &mut modulo_mapping());
    assert_eq!(a.delayed_pct(), b.delayed_pct());
    assert_eq!(a.total_response.max_ns(), b.total_response.max_ns());
    assert_eq!(a.completed(), b.completed());
}

#[test]
fn over_admitted_requests_are_still_served() {
    // Conservation holds in statistical mode: nothing is lost, the
    // trade-off only moves requests between "delayed" and "queued".
    let trace = bursty_trace(50);
    let report = OnlineQos::new(QosConfig::paper_9_3_1().with_epsilon(0.3))
        .run(&trace, &mut modulo_mapping());
    assert_eq!(report.completed(), trace.len() as u64);
    assert_eq!(report.rejected, 0);
}

#[test]
fn schedulers_at_different_epsilon_share_one_probability_table() {
    // An ε sweep samples the layout's P_k table once: every scheduler on
    // it reads the same table, bit for bit the one sampled directly.
    let cfg = QosConfig::paper_9_3_1();
    let a = OnlineQos::new(cfg.clone().with_epsilon(0.02));
    let b = OnlineQos::new(cfg.clone().with_epsilon(0.3));
    let (pa, pb) = (a.probabilities().unwrap(), b.probabilities().unwrap());
    assert!(std::ptr::eq(pa, pb), "one table per layout and sampling");
    let k_max = cfg.scheme.num_buckets().min(4 * cfg.request_limit());
    let cold = optimal_retrieval_probabilities(&cfg.scheme, k_max, 20_000, 0xF19u64);
    let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&pa.p), bits(&cold.p));
    assert!(
        OnlineQos::new(cfg).probabilities().is_none(),
        "ε = 0 samples nothing"
    );
}
