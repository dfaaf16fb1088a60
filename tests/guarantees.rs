//! Property-style integration tests of the paper's central claims, spanning
//! designs + decluster + maxflow + core.

use flash_qos::decluster::analysis::worst_case_accesses;
use flash_qos::decluster::retrieval::{design_theoretic_retrieval, max_flow_retrieval};
use flash_qos::prelude::*;
use proptest::prelude::*;

/// §II-B2: the S(M) guarantee of every catalog design, exact: no set of
/// S(M) distinct buckets needs more than M accesses.
#[test]
fn catalog_designs_honor_their_guarantees() {
    for v in [7usize, 9, 13, 15] {
        let scheme = AllocationScheme::design(&DesignCatalog.find(v, 3).unwrap());
        let g = scheme.guarantee().expect("a design layout");
        for m in 1..=3 {
            let k = g.buckets_in(m).min(scheme.num_buckets());
            let worst = worst_case_accesses(&scheme, k);
            assert!(worst <= m, "({v},3,1): some {k} buckets take {worst} > {m}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// §II-B3's comparison: the design-theoretic guarantee S(M) beats the
    /// orthogonal bound ⌈√b⌉ for all loads up to 36 buckets.
    #[test]
    fn design_guarantee_beats_orthogonal_bound(b in 1usize..36) {
        let g = RetrievalGuarantee::new(9, 3);
        let orthogonal_bound = (b as f64).sqrt().ceil() as usize;
        // c = 2 design guarantee from the paper's example: 3/8/15 per 1/2/3.
        let g2 = RetrievalGuarantee::new(9, 2);
        prop_assert!(g.accesses_for(b) <= g2.accesses_for(b));
        if b >= 3 {
            prop_assert!(g2.accesses_for(b) <= orthogonal_bound + 1);
        }
        let _ = orthogonal_bound;
    }

    /// The DTR heuristic is never better than exact max-flow and both are
    /// bounded by the serial worst case, on arbitrary bucket multisets.
    #[test]
    fn retrieval_sandwich(buckets in prop::collection::vec(0usize..36, 1..40)) {
        let scheme = AllocationScheme::paper_9_3_1();
        let reqs: Vec<&[usize]> = buckets.iter().map(|&b| scheme.replicas(b)).collect();
        let fast = design_theoretic_retrieval(&reqs, 9);
        let exact = max_flow_retrieval(&reqs, 9);
        prop_assert!(exact.accesses <= fast.accesses);
        prop_assert!(fast.accesses <= reqs.len());
        prop_assert!(exact.accesses >= reqs.len().div_ceil(9));
    }

    /// End-to-end: the online pipeline's served responses equal the service
    /// time for arbitrary within-pool workloads (deterministic mode).
    #[test]
    fn online_pipeline_responses_equal_service_time(
        reqs in prop::collection::vec((0u64..20, 0u64..36), 1..60),
    ) {
        let records: Vec<TraceRecord> = reqs
            .iter()
            .map(|&(w, lbn)| TraceRecord {
                arrival_ns: w * 133_000,
                device: 0,
                lbn,
                size_bytes: 8192,
                op: flash_qos::flashsim::IoOp::Read,
            })
            .collect();
        let trace = Trace::new("p", records, 9, 10 * 133_000);
        let config = QosConfig::paper_9_3_1();
        let service = config.service_ns;
        let report = QosPipeline::new(config)
            .with_mapping(MappingStrategy::Modulo)
            .run_online(&trace);
        prop_assert_eq!(report.total_response.max_ns(), service);
        prop_assert_eq!(report.total_response.min_ns(), service);
    }
}
