//! The optimal-retrieval question: is a set of replicated block requests
//! retrievable in `M` parallel accesses, and from which replica should each
//! block be fetched?
//!
//! Model (paper §III-C, refs \[14,15\]): `source → block_i → device_d → sink`
//! with unit capacity on the source and replica edges and capacity `M` on
//! each device→sink edge. The request set is retrievable in `M` accesses iff
//! the maximum flow saturates all `b` source edges. That flow is a bipartite
//! b-matching, and the batch solver here finds it by feeding the requests
//! one at a time to the same [`IncrementalRetrieval`] kernel the online path
//! uses.

use crate::incremental::{IncrementalRetrieval, MAX_DEVICES};

/// Device index type (re-exported from the designs crate for convenience).
pub use fqos_designs::DeviceId;

/// An optimal retrieval schedule: how many parallel accesses are required and
/// which device serves each request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetrievalSchedule {
    /// Number of parallel accesses (`max` per-device load).
    pub accesses: usize,
    /// `assignment[i]` = device that serves request `i`.
    pub assignment: Vec<DeviceId>,
}

impl RetrievalSchedule {
    /// Per-device load implied by the assignment.
    pub fn device_loads(&self, devices: usize) -> Vec<usize> {
        let mut loads = vec![0usize; devices];
        for &d in &self.assignment {
            loads[d] += 1;
        }
        loads
    }
}

/// Exact retrieval scheduling for a fixed device count.
#[derive(Debug, Clone, Copy)]
pub struct RetrievalNetwork {
    devices: usize,
}

impl RetrievalNetwork {
    /// Create a scheduler for an array of `devices` flash modules (at most
    /// [`MAX_DEVICES`], the fault plane's bound).
    pub fn new(devices: usize) -> Self {
        assert!(
            (1..=MAX_DEVICES).contains(&devices),
            "1..={MAX_DEVICES} devices supported, got {devices}"
        );
        RetrievalNetwork { devices }
    }

    /// Number of devices.
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// Find the optimal (minimal-access) retrieval schedule. Panics if a
    /// request names no replica.
    ///
    /// Starts at the lower bound `⌈b/N⌉` and raises the budget by one access
    /// whenever a request finds no augmenting path, keeping the matching
    /// built so far. The result is still minimal: the prefix that did not
    /// fit is part of the whole set, so the budget it failed under is ruled
    /// out for the whole set too.
    pub fn optimal_schedule(&self, requests: &[&[DeviceId]]) -> RetrievalSchedule {
        // A request that names no replica fits no budget: raising the budget
        // for it would never end.
        for (i, replicas) in requests.iter().enumerate() {
            assert!(!replicas.is_empty(), "request {i} names no replica");
        }
        let mut kernel =
            IncrementalRetrieval::new(self.devices, requests.len().div_ceil(self.devices));
        for replicas in requests {
            while !kernel.try_add(replicas) {
                kernel.grow_accesses(kernel.accesses() + 1);
            }
        }
        RetrievalSchedule {
            accesses: kernel.accesses(),
            assignment: kernel.assignments(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nets() -> RetrievalNetwork {
        RetrievalNetwork::new(9)
    }

    #[test]
    fn empty_request() {
        let s = nets().optimal_schedule(&[]);
        assert_eq!(s.accesses, 0);
        assert!(s.assignment.is_empty());
    }

    #[test]
    #[should_panic(expected = "request 1 names no replica")]
    fn empty_replica_tuple_is_rejected() {
        // Before the check this raised `m` without end in release builds.
        nets().optimal_schedule(&[&[0, 1], &[]]);
    }

    #[test]
    #[should_panic(expected = "devices supported")]
    fn more_devices_than_the_kernel_bitmap_is_rejected() {
        RetrievalNetwork::new(MAX_DEVICES + 1);
    }

    #[test]
    fn paper_fig3_nine_blocks_in_one_access() {
        // §III-B: these nine (9,3,1) buckets are non-conflicting and can be
        // retrieved in a single access.
        let reqs: Vec<Vec<usize>> = vec![
            vec![0, 1, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![3, 8, 1],
            vec![4, 8, 0],
            vec![5, 7, 0],
            vec![6, 0, 3],
            vec![7, 0, 5],
            vec![8, 1, 3],
        ];
        let refs: Vec<&[usize]> = reqs.iter().map(std::vec::Vec::as_slice).collect();
        let s = nets().optimal_schedule(&refs);
        assert_eq!(s.accesses, 1);
        let loads = s.device_loads(9);
        assert!(loads.iter().all(|&l| l <= 1), "{loads:?}");
    }

    #[test]
    fn conflicting_blocks_need_more_accesses() {
        // Three buckets all replicated on the same three devices: any
        // schedule puts two of them... actually 3 blocks over 3 devices fit
        // in 1 access. Make 4 blocks over 3 devices → 2 accesses.
        let reqs: Vec<Vec<usize>> =
            vec![vec![0, 1, 2], vec![1, 2, 0], vec![2, 0, 1], vec![0, 1, 2]];
        let refs: Vec<&[usize]> = reqs.iter().map(std::vec::Vec::as_slice).collect();
        let s = RetrievalNetwork::new(3).optimal_schedule(&refs);
        assert_eq!(s.accesses, 2);
    }

    #[test]
    fn assignment_only_uses_replicas() {
        let reqs: Vec<Vec<usize>> = vec![vec![0, 3, 6], vec![5, 7, 0], vec![0, 4, 8]];
        let refs: Vec<&[usize]> = reqs.iter().map(std::vec::Vec::as_slice).collect();
        let s = nets().optimal_schedule(&refs);
        for (i, req) in reqs.iter().enumerate() {
            assert!(req.contains(&s.assignment[i]));
        }
    }

    #[test]
    fn single_replica_serial_retrieval() {
        // Without replication all blocks on one device retrieve serially.
        let reqs: Vec<Vec<usize>> = (0..4).map(|_| vec![2usize]).collect();
        let refs: Vec<&[usize]> = reqs.iter().map(std::vec::Vec::as_slice).collect();
        let s = nets().optimal_schedule(&refs);
        assert_eq!(s.accesses, 4);
        assert!(s.assignment.iter().all(|&d| d == 2));
    }
}
