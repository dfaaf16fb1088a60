//! Property-based cross-checks of the max-flow implementations.

use fqos_maxflow::{dinic, edmonds_karp, FlowNetwork, IncrementalRetrieval, RetrievalNetwork};
use proptest::prelude::*;

/// Build a random directed network from a proptest-generated edge list.
fn build(n: usize, edges: &[(usize, usize, u64)]) -> (FlowNetwork, FlowNetwork) {
    let a = {
        let mut g = FlowNetwork::new(n, 0, n - 1);
        for &(u, v, c) in edges {
            if u != v {
                g.add_edge(u % n, v % n, c % 32);
            }
        }
        g
    };
    (a.clone(), a)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dinic_equals_edmonds_karp(
        n in 2usize..12,
        edges in prop::collection::vec((0usize..12, 0usize..12, 0u64..32), 0..40),
    ) {
        let (mut g1, mut g2) = build(n, &edges);
        let f1 = dinic::max_flow(&mut g1);
        let f2 = edmonds_karp::max_flow(&mut g2);
        prop_assert_eq!(f1, f2);
        prop_assert!(g1.check_conservation());
        prop_assert!(g2.check_conservation());
        prop_assert_eq!(g1.total_flow(), f1);
    }

    #[test]
    fn schedule_is_feasible_and_minimal(
        devices in 2usize..10,
        reqs in prop::collection::vec(prop::collection::vec(0usize..10, 1..4), 1..25),
    ) {
        let reqs: Vec<Vec<usize>> = reqs
            .into_iter()
            .map(|r| {
                let mut r: Vec<usize> = r.into_iter().map(|d| d % devices).collect();
                r.sort_unstable();
                r.dedup();
                r
            })
            .collect();
        let refs: Vec<&[usize]> = reqs.iter().map(std::vec::Vec::as_slice).collect();
        let net = RetrievalNetwork::new(devices);
        let s = net.optimal_schedule(&refs);

        // Every assignment uses a true replica.
        for (i, r) in reqs.iter().enumerate() {
            prop_assert!(r.contains(&s.assignment[i]));
        }
        // The schedule respects its own access bound.
        let loads = s.device_loads(devices);
        prop_assert!(loads.iter().all(|&l| l <= s.accesses));
        // Minimality: one fewer access must be infeasible.
        if s.accesses > reqs.len().div_ceil(devices) {
            prop_assert!(net.feasible(&refs, s.accesses - 1).is_none());
        }
        // Never better than the information-theoretic lower bound.
        prop_assert!(s.accesses >= reqs.len().div_ceil(devices));
    }

    /// The batch solver is the oracle for the incremental kernel: same
    /// admit/refuse decision on every prefix, with devices failed, a skewed
    /// replica choice and a budget raise part-way through.
    #[test]
    fn incremental_agrees_with_batch(
        devices in 2usize..14,
        m in 1usize..4,
        failed in any::<u64>(),
        skew in 1usize..4,
        grow_at in 0usize..40,
        reqs in prop::collection::vec(prop::collection::vec(0usize..4096, 1..4), 1..40),
    ) {
        // Keep at least device 0 alive; fail each other device w.p. 1/4.
        let failed = failed & (failed >> 1) & ((1u64 << devices) - 2);
        let live = |r: &[usize]| -> Vec<usize> {
            r.iter().copied().filter(|&d| failed >> d & 1 == 0).collect()
        };
        let net = RetrievalNetwork::new(devices);
        let feasible = |set: &[Vec<usize>], m: usize| {
            let refs: Vec<&[usize]> = set.iter().map(Vec::as_slice).collect();
            net.feasible(&refs, m).is_some()
        };
        let mut inc = IncrementalRetrieval::with_failed(devices, m, failed);
        let mut m = m;
        // Live replica tuples of the admitted requests, in admission order.
        let mut admitted: Vec<Vec<usize>> = Vec::new();
        let mut refused: Vec<Vec<usize>> = Vec::new();
        for (i, r) in reqs.iter().enumerate() {
            if i == grow_at {
                m += 1;
                inc.grow_accesses(m);
                // The raise unlocks exactly what the batch solver says.
                for r in std::mem::take(&mut refused) {
                    let mut probe = admitted.clone();
                    probe.push(live(&r));
                    let ok = !probe.last().unwrap().is_empty() && feasible(&probe, m);
                    prop_assert_eq!(inc.try_add(&r), ok);
                    if ok {
                        admitted = probe;
                    }
                }
            }
            // Skew: higher powers of a uniform draw crowd the low devices.
            let mut r: Vec<usize> = r
                .iter()
                .map(|&u| (0..skew).fold(devices, |d, _| d * u / 4096))
                .collect();
            r.dedup();
            let mut probe = admitted.clone();
            probe.push(live(&r));
            let ok = !probe.last().unwrap().is_empty() && feasible(&probe, m);
            prop_assert_eq!(inc.try_add(&r), ok, "request {:?} on {:?}", r, admitted);
            if ok {
                admitted = probe;
            } else {
                refused.push(r);
            }
            let assign = inc.assignments();
            prop_assert_eq!(assign.len(), admitted.len());
            for (d, tuple) in assign.iter().zip(&admitted) {
                prop_assert!(tuple.contains(d), "{} not a live replica of {:?}", d, tuple);
            }
            let loads = inc.device_loads();
            prop_assert!(loads.iter().all(|&l| l <= m));
            prop_assert_eq!(loads.iter().sum::<usize>(), admitted.len());
        }
    }
}
