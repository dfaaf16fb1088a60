//! Degraded-mode retrieval: scheduling around failed devices.
//!
//! Replication is the paper's vehicle for QoS, but it is also what keeps
//! the array serving through device failures — an `(N, c, 1)` declustering
//! tolerates any `c − 1` device failures with zero data loss, and the
//! max-flow scheduler extends naturally: failed devices simply leave the
//! bipartite graph. Retrieval cost rises smoothly as survivors absorb the
//! failed devices' load.

use fqos_designs::DeviceId;
use fqos_maxflow::{IncrementalRetrieval, RetrievalSchedule};

/// Outcome of a degraded-mode schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedSchedule {
    /// The schedule over surviving replicas (assignment indices align with
    /// the *served* requests — see `lost`).
    pub schedule: RetrievalSchedule,
    /// Indices of requests whose every replica failed (data unavailable).
    pub lost: Vec<usize>,
}

/// Schedule `requests` with the devices in `failed` marked down.
///
/// Requests that still have at least one live replica are scheduled
/// optimally (exact max-flow) over the survivors; requests with no live
/// replica are reported in `lost`. The assignment vector covers the served
/// requests in their original relative order.
pub fn degraded_retrieval(
    requests: &[&[DeviceId]],
    devices: usize,
    failed: &[bool],
) -> DegradedSchedule {
    // Start from one access and raise the budget whenever a request does
    // not fit: every raise is forced by a prefix of the served set, so the
    // final budget is the minimum for all of it (0 if nothing is served).
    let mut kernel = IncrementalRetrieval::with_failed(devices, 1, failed_mask(devices, failed));
    let mut lost = Vec::new();
    for (i, replicas) in requests.iter().enumerate() {
        if replicas.iter().all(|&d| failed[d]) {
            lost.push(i);
            continue;
        }
        while !kernel.try_add(replicas) {
            kernel.grow_accesses(kernel.accesses() + 1);
        }
    }
    let schedule = RetrievalSchedule {
        accesses: if kernel.is_empty() {
            0
        } else {
            kernel.accesses()
        },
        assignment: kernel.assignments(),
    };
    DegradedSchedule { schedule, lost }
}

/// The failed set as the device bitmap the kernel takes.
fn failed_mask(devices: usize, failed: &[bool]) -> u64 {
    assert_eq!(failed.len(), devices);
    failed
        .iter()
        .enumerate()
        .fold(0u64, |m, (d, &f)| m | u64::from(f) << d)
}

/// The fault-tolerance level of an allocation scheme: the largest `f` such
/// that **any** `f` device failures leave every bucket with a live replica.
/// For a well-formed `c`-copy scheme this is `c − 1`; schemes that
/// accidentally co-locate copies score lower.
pub fn fault_tolerance<S: crate::scheme::AllocationScheme + ?Sized>(scheme: &S) -> usize {
    // Every bucket's replicas are distinct devices (validated), so any
    // bucket survives f failures iff f < number of distinct replica
    // devices. The scheme-wide tolerance is the minimum over buckets.
    (0..scheme.num_buckets())
        .map(|b| {
            let mut devs: Vec<DeviceId> = scheme.replicas(b).to_vec();
            devs.sort_unstable();
            devs.dedup();
            devs.len() - 1
        })
        .min()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::AllocationScheme;
    use crate::DesignTheoretic;

    #[test]
    fn design_tolerates_two_failures() {
        let s = DesignTheoretic::paper_9_3_1();
        assert_eq!(fault_tolerance(&s), 2);
    }

    #[test]
    fn no_failures_equals_normal_retrieval() {
        let s = DesignTheoretic::paper_9_3_1();
        let reqs: Vec<&[usize]> = (0..5).map(|b| s.replicas(b)).collect();
        let d = degraded_retrieval(&reqs, 9, &[false; 9]);
        assert!(d.lost.is_empty());
        assert_eq!(d.schedule.accesses, 1);
    }

    #[test]
    fn single_failure_preserves_availability() {
        let s = DesignTheoretic::paper_9_3_1();
        let reqs: Vec<&[usize]> = (0..s.num_buckets()).map(|b| s.replicas(b)).collect();
        for dead in 0..9 {
            let mut failed = [false; 9];
            failed[dead] = true;
            let d = degraded_retrieval(&reqs, 9, &failed);
            assert!(d.lost.is_empty(), "device {dead} failure lost data");
            // All 36 buckets over 8 survivors: at least ⌈36/8⌉ accesses.
            assert!(d.schedule.accesses >= 5);
            // Nothing scheduled on the dead device.
            assert!(d.schedule.assignment.iter().all(|&a| a != dead));
        }
    }

    #[test]
    fn double_failure_still_serves_everything() {
        let s = DesignTheoretic::paper_9_3_1();
        let reqs: Vec<&[usize]> = (0..s.num_buckets()).map(|b| s.replicas(b)).collect();
        for a in 0..9 {
            for b in (a + 1)..9 {
                let mut failed = [false; 9];
                failed[a] = true;
                failed[b] = true;
                let d = degraded_retrieval(&reqs, 9, &failed);
                assert!(d.lost.is_empty(), "failures {a},{b} lost data");
            }
        }
    }

    #[test]
    fn triple_failure_loses_exactly_the_shared_bucket_groups() {
        // Killing all three devices of one design block loses exactly that
        // block's three rotations.
        let s = DesignTheoretic::paper_9_3_1();
        let reqs: Vec<&[usize]> = (0..s.num_buckets()).map(|b| s.replicas(b)).collect();
        let mut failed = [false; 9];
        for &d in s.replicas(0) {
            failed[d] = true; // devices 0, 1, 2
        }
        let d = degraded_retrieval(&reqs, 9, &failed);
        assert_eq!(
            d.lost,
            vec![0, 1, 2],
            "the three rotations of block (0,1,2)"
        );
    }

    #[test]
    fn lost_requests_are_skipped_and_the_rest_keep_their_order() {
        // Devices 0 and 1 down: `[0, 1]` and the empty tuple have no live
        // replica; every other request has exactly one.
        let failed = [true, true, false, false];
        let reqs: Vec<&[usize]> = vec![&[2], &[0, 1], &[1, 3], &[], &[0, 2], &[3]];
        let d = degraded_retrieval(&reqs, 4, &failed);
        assert_eq!(d.lost, vec![1, 3]);
        assert_eq!(d.schedule.assignment, vec![2, 3, 2, 3]);
        assert_eq!(d.schedule.accesses, 2);
    }

    #[test]
    fn cost_degrades_gracefully() {
        // Worst case cost is monotone in the number of failures.
        let s = DesignTheoretic::paper_9_3_1();
        let reqs: Vec<&[usize]> = (0..18).map(|b| s.replicas(b)).collect();
        let mut prev = 0;
        for f in 0..3 {
            let mut failed = [false; 9];
            failed[..f].fill(true);
            let d = degraded_retrieval(&reqs, 9, &failed);
            assert!(d.schedule.accesses >= prev);
            prev = d.schedule.accesses;
        }
    }
}
