//! Focused tests of the statistical QoS machinery (§III-B).

use fqos_core::admission::StatisticalCounters;
use fqos_core::config::QosConfig;
use fqos_core::mapping::{BlockMapping, MappingStrategy};
use fqos_core::scheduler::OnlineQos;
use fqos_decluster::sampling::{optimal_retrieval_probabilities, OptimalRetrievalProbabilities};
use fqos_decluster::AllocationScheme;
use fqos_flashsim::time::BASE_INTERVAL_NS;
use fqos_flashsim::{IoOp, BLOCK_SIZE_BYTES};
use fqos_traces::{Trace, TraceRecord};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

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
    // At ε = 0 the slack is minus the weighted misses: `−N_t·Q`.
    let q = -c.slack(&p, 0.0) / c.intervals() as f64;
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

/// `Q` with a tentative interval of size `k` counted, summed term by term
/// as §III-B2 writes it: `Σ_j (1 − P_j)·N_j / (N_t + 1)` over the sizes
/// seen, the tentative one included. The reference for the closed form.
fn q_with_tentative(n_k: &[u64], k: usize, p: &OptimalRetrievalProbabilities) -> f64 {
    let n_t = (n_k.iter().sum::<u64>() + 1) as f64;
    let mut q = 0.0;
    for (size, &n) in n_k.iter().enumerate() {
        let n = n + u64::from(size == k);
        if n > 0 {
            q += (1.0 - p.p_k(size)) * (n as f64 / n_t);
        }
    }
    if n_k.len() <= k {
        q += (1.0 - p.p_k(k)) / n_t;
    }
    q
}

/// The tables the engine samples for the two paper layouts at their
/// pinned access budgets: `(9,3,1)` at `M = 2` and `(13,3,1)` at `M = 3`,
/// each up to `2·S(M) + 8` requests, 1 500 trials.
fn engine_tables() -> &'static [Arc<OptimalRetrievalProbabilities>; 2] {
    static TABLES: OnceLock<[Arc<OptimalRetrievalProbabilities>; 2]> = OnceLock::new();
    TABLES.get_or_init(|| {
        [
            QosConfig::paper_9_3_1().with_accesses(2),
            QosConfig::paper_13_3_1().with_accesses(3),
        ]
        .map(|cfg| {
            let k_max = 2 * cfg.request_limit() + 8;
            cfg.scheme.retrieval_probabilities(k_max, 1500, 0x5eed_cafe)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The closed form decides as the paper's sum does: on histories of up
    /// to 64 sizes and `10⁵` intervals, short and long, over the engine's
    /// tables, arbitrary `P ∈ [0, 1]` and `P` within `4ε` of 1 (where `Q`
    /// lands near `ε`), `would_admit` is `Q < ε` wherever `Q` is not within
    /// `10⁻⁹·ε` of `ε`, where the two roundings may part.
    #[test]
    fn the_closed_form_admits_as_the_sum_does(
        counts in prop::collection::vec(0u64..1563, 1..65),
        scale in 0usize..4,
        k in 0usize..80,
        table in 0usize..4,
        random_p in prop::collection::vec(any::<u32>(), 1..80),
        eps in 0usize..4,
    ) {
        let epsilon = [0.001, 0.01, 0.05, 0.4][eps];
        let counts: Vec<u64> = counts.iter().map(|n| n % [2, 20, 200, 1563][scale]).collect();
        let unit = |x: u32| f64::from(x) / f64::from(u32::MAX);
        let random;
        let p = match table {
            0 | 1 => &*engine_tables()[table],
            _ => {
                let miss = if table == 2 { 1.0 } else { 4.0 * epsilon };
                let p = random_p.iter().map(|&x| 1.0 - miss * unit(x)).collect();
                random = OptimalRetrievalProbabilities { p, trials: 0 };
                &random
            }
        };
        let mut c = StatisticalCounters::new();
        for (size, &n) in counts.iter().enumerate() {
            for _ in 0..n {
                c.record_interval(size);
            }
        }
        let q = q_with_tentative(&counts, k, p);
        if (q - epsilon).abs() > 1e-9 * epsilon {
            prop_assert_eq!(c.would_admit(k, p, epsilon), q < epsilon);
        }
    }
}
