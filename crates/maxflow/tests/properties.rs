//! Property-based checks of the matching kernel and the batch solver built
//! on it, against an oracle that shares no code with either: Edmonds–Karp
//! over an explicitly built `source → requests → devices → sink` network.

use fqos_maxflow::{edmonds_karp, FlowNetwork, IncrementalRetrieval, RetrievalNetwork};
use proptest::prelude::*;

/// The oracle: does the max flow saturate every request when each device
/// takes `m` of them?
fn ek_saturates(devices: usize, requests: &[Vec<usize>], m: usize) -> bool {
    let b = requests.len();
    // Layout: 0 = source, 1..=b = requests, b+1..=b+N = devices, b+N+1 = sink.
    let sink = b + devices + 1;
    let mut net = FlowNetwork::new(sink + 1, 0, sink);
    for (i, replicas) in requests.iter().enumerate() {
        net.add_edge(0, 1 + i, 1);
        for &d in replicas {
            net.add_edge(1 + i, 1 + b + d, 1);
        }
    }
    for d in 0..devices {
        net.add_edge(1 + b + d, sink, m as u64);
    }
    let flow = edmonds_karp::max_flow(&mut net);
    assert!(net.check_conservation());
    flow == b as u64
}

/// Map uniform draws from `0..4096` to devices; higher powers of the draw
/// crowd the low devices.
fn skewed(draws: &[usize], devices: usize, skew: usize) -> Vec<usize> {
    let mut r: Vec<usize> = draws
        .iter()
        .map(|&u| (0..skew).fold(devices, |d, _| d * u / 4096))
        .collect();
    r.dedup();
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn optimal_schedule_matches_edmonds_karp(
        devices in 2usize..=64,
        skew in 1usize..4,
        reqs in prop::collection::vec(prop::collection::vec(0usize..4096, 1..4), 1..201),
    ) {
        let reqs: Vec<Vec<usize>> = reqs.iter().map(|r| skewed(r, devices, skew)).collect();
        let refs: Vec<&[usize]> = reqs.iter().map(Vec::as_slice).collect();
        let s = RetrievalNetwork::new(devices).optimal_schedule(&refs);

        // `accesses` is the least budget the oracle saturates (saturation is
        // monotone in the budget, so two points pin it), from `⌈b/N⌉` up.
        let lb = reqs.len().div_ceil(devices);
        prop_assert!(s.accesses >= lb);
        prop_assert!(ek_saturates(devices, &reqs, s.accesses));
        prop_assert!(!ek_saturates(devices, &reqs, s.accesses - 1));
        // Every assignment uses a listed replica, within the access bound.
        prop_assert_eq!(s.assignment.len(), reqs.len());
        for (d, r) in s.assignment.iter().zip(&reqs) {
            prop_assert!(r.contains(d), "{} not a replica of {:?}", d, r);
        }
        prop_assert!(s.device_loads(devices).iter().all(|&l| l <= s.accesses));
    }

    /// Same admit/refuse decision as the oracle on every prefix, with
    /// devices failed, a skewed replica choice and a budget raise part-way
    /// through.
    #[test]
    fn incremental_agrees_with_edmonds_karp(
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
        let mut inc = IncrementalRetrieval::with_failed(devices, m, failed);
        let mut m = m;
        // Live replica tuples of the admitted requests, in admission order.
        let mut admitted: Vec<Vec<usize>> = Vec::new();
        let mut refused: Vec<Vec<usize>> = Vec::new();
        for (i, r) in reqs.iter().enumerate() {
            if i == grow_at {
                m += 1;
                inc.grow_accesses(m);
                // The raise unlocks exactly what the oracle says.
                for r in std::mem::take(&mut refused) {
                    let mut probe = admitted.clone();
                    probe.push(live(&r));
                    let ok = ek_saturates(devices, &probe, m);
                    prop_assert_eq!(inc.try_add(&r), ok);
                    if ok {
                        admitted = probe;
                    }
                }
            }
            let r = skewed(r, devices, skew);
            let mut probe = admitted.clone();
            probe.push(live(&r));
            let ok = ek_saturates(devices, &probe, m);
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
