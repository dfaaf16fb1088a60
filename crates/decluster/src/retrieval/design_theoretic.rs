//! The paper's design-theoretic retrieval: initial first-copy mapping plus
//! remapping of conflicting blocks to alternate replicas (§III-C, Fig. 5).
//!
//! Runs in `O(b)` per pass with a bounded number of passes — the fast path
//! that handles every request within the deterministic limit `S(M)`; the
//! exact max-flow solver is only consulted when this heuristic is
//! non-optimal (see [`crate::retrieval::hybrid`]).

use fqos_designs::DeviceId;
use fqos_maxflow::RetrievalSchedule;

/// Compute a retrieval schedule by initial mapping + greedy remapping.
///
/// 1. Every block is mapped to the device of its first (primary) copy.
/// 2. While some device's load exceeds the current maximum elsewhere by ≥ 2,
///    remap one of its blocks to the replica device with the lowest load.
///
/// The result is locally optimal: no single remapping can reduce the
/// maximum load. For request sizes within the design guarantee `S(M)` the
/// achieved cost is at most `M`.
pub fn design_theoretic_retrieval(requests: &[&[DeviceId]], devices: usize) -> RetrievalSchedule {
    let b = requests.len();
    if b == 0 {
        return RetrievalSchedule {
            accesses: 0,
            assignment: Vec::new(),
        };
    }

    // Initial mapping: primary copies.
    let mut assignment: Vec<DeviceId> = requests.iter().map(|r| r[0]).collect();
    let mut loads = vec![0usize; devices];
    for &d in &assignment {
        loads[d] += 1;
    }
    // Blocks currently assigned to each device.
    let mut on_device: Vec<Vec<usize>> = vec![Vec::new(); devices];
    for (i, &d) in assignment.iter().enumerate() {
        on_device[d].push(i);
    }

    // Remapping: repeatedly move a block off the most-loaded device onto its
    // least-loaded replica when that strictly improves the balance. Each
    // move reduces Σ load² by ≥ 2, so at most O(b²) moves happen; in
    // practice a handful suffice.
    loop {
        let dmax = (0..devices).max_by_key(|&d| loads[d]).unwrap();
        let max_load = loads[dmax];
        if max_load <= 1 {
            break;
        }
        let mut best: Option<(usize, DeviceId)> = None; // (block index, target)
        for &i in &on_device[dmax] {
            for &alt in requests[i].iter() {
                if alt != dmax
                    && loads[alt] + 1 < max_load
                    && best.is_none_or(|(_, t)| loads[alt] < loads[t])
                {
                    best = Some((i, alt));
                }
            }
        }
        match best {
            Some((i, target)) => {
                on_device[dmax].retain(|&x| x != i);
                on_device[target].push(i);
                loads[dmax] -= 1;
                loads[target] += 1;
                assignment[i] = target;
            }
            None => break,
        }
    }

    let accesses = loads.iter().copied().max().unwrap_or(0);
    RetrievalSchedule {
        accesses,
        assignment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::AllocationScheme;

    fn refs(reqs: &[Vec<usize>]) -> Vec<&[usize]> {
        reqs.iter().map(std::vec::Vec::as_slice).collect()
    }

    #[test]
    fn empty_request() {
        let s = design_theoretic_retrieval(&[], 9);
        assert_eq!(s.accesses, 0);
    }

    #[test]
    fn paper_fig5_t0_t2_need_one_access() {
        // Periods T0–T2 of Table I: initial mapping needs 1 access.
        let t0 = vec![vec![0, 3, 6], vec![5, 7, 0]];
        let s = design_theoretic_retrieval(&refs(&t0), 9);
        assert_eq!(s.accesses, 1);

        let t1 = vec![
            vec![0, 3, 6],
            vec![5, 7, 0],
            vec![0, 4, 8],
            vec![8, 0, 4],
            vec![7, 0, 5],
        ];
        // T1 carries Application 1's two blocks plus its (0,4,8) and App 2's
        // pair; primaries are 0,5,0,8,7 → device 0 conflicts, remapping
        // resolves it within 1 access.
        let s = design_theoretic_retrieval(&refs(&t1), 9);
        assert_eq!(s.accesses, 1);

        let t2 = vec![vec![1, 2, 0], vec![6, 0, 3]];
        let s = design_theoretic_retrieval(&refs(&t2), 9);
        assert_eq!(s.accesses, 1);
    }

    #[test]
    fn paper_fig5_t3_remapping() {
        // Period T3: blocks (1,4,7), (1,3,8), (0,5,7), (0,1,2). Initial
        // mapping has device 1 twice and device 0 twice; the paper remaps
        // (0,1,2)→2 and (1,3,8)→3 to reach 1 access... with 4 blocks the
        // optimal is 1 access.
        let t3 = vec![vec![1, 4, 7], vec![1, 3, 8], vec![0, 5, 7], vec![0, 1, 2]];
        let s = design_theoretic_retrieval(&refs(&t3), 9);
        assert_eq!(s.accesses, 1);
        // Assignment only uses true replicas.
        let reqs = t3;
        for (i, r) in reqs.iter().enumerate() {
            assert!(r.contains(&s.assignment[i]));
        }
    }

    #[test]
    fn guarantee_holds_for_any_5_buckets_of_9_3_1() {
        // Exhaustively spot-check: any 5 of the 36 buckets retrieve in 1
        // access (the S(1) = 5 deterministic guarantee), sampled densely.
        let scheme = AllocationScheme::paper_9_3_1();
        let mut checked = 0;
        for a in 0..36 {
            for b in (a + 1)..36 {
                // deterministic sub-sampling to keep the test quick
                if (a * 31 + b * 17) % 11 != 0 {
                    continue;
                }
                for c in (b + 1)..36 {
                    let (d, e) = ((c + 7) % 36, (c + 19) % 36);
                    let set = [a, b, c, d, e];
                    let mut uniq: Vec<_> = set.to_vec();
                    uniq.sort_unstable();
                    uniq.dedup();
                    if uniq.len() < 5 {
                        continue;
                    }
                    let reqs: Vec<&[usize]> = set.iter().map(|&x| scheme.replicas(x)).collect();
                    let s = design_theoretic_retrieval(&reqs, 9);
                    assert!(s.accesses <= 1, "set {set:?} took {} accesses", s.accesses);
                    checked += 1;
                }
            }
        }
        assert!(checked > 500, "only {checked} sets checked");
    }

    #[test]
    fn serial_case_without_alternatives() {
        let reqs = vec![vec![2usize], vec![2], vec![2]];
        let s = design_theoretic_retrieval(&refs(&reqs), 9);
        assert_eq!(s.accesses, 3);
    }

    #[test]
    fn never_below_information_bound() {
        let reqs: Vec<Vec<usize>> = (0..20).map(|i| vec![i % 4, (i + 1) % 4]).collect();
        let s = design_theoretic_retrieval(&refs(&reqs), 4);
        assert!(s.accesses >= 5); // 20 blocks / 4 devices
    }
}
