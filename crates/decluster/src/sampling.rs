//! Monte-Carlo estimation of optimal-retrieval probabilities (Fig. 4).
//!
//! `P_k` is the probability that `k` buckets drawn uniformly from the
//! scheme's rotation-expanded bucket space are retrievable in the optimal
//! `⌈k/N⌉` accesses.
//!
//! The paper samples **with replacement** ("the same design block is
//! allowed to be chosen multiple times for fair results", §III-B1) and
//! treats every draw as a separate request needing its own device slot.
//! That reproduces the paper's reported values — `P_6 ≈ 0.99`,
//! `P_7 ≈ 0.98`, `P_8 ≈ 0.95`, `P_9 ≈ 0.75` (the dominant `P_9` failure
//! mode is nine draws not covering all nine devices:
//! `1 − 9·(2/3)⁹ ≈ 0.76`) — at the cost of making `P_k` for `k ≤ S(1)`
//! land slightly below 1 (duplicate draws of one bucket can exceed its
//! replica count, something a real system would coalesce). Fig. 4 plots
//! these as 1 at its resolution.

use crate::scheme::AllocationScheme;
use fqos_maxflow::IncrementalRetrieval;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Estimated `P_k` table for `k = 1..=k_max`.
#[derive(Debug, Clone)]
pub struct OptimalRetrievalProbabilities {
    /// `p[k-1]` = estimated `P_k`.
    pub p: Vec<f64>,
    /// Trials used per request size.
    pub trials: usize,
}

impl OptimalRetrievalProbabilities {
    /// `P_k` (1-based `k`); sizes beyond the table return 1.0 — by the time
    /// `k` is large the optimum `⌈k/N⌉` is loose enough that retrieval is
    /// essentially always optimal (Fig. 4 converges to 1).
    pub fn p_k(&self, k: usize) -> f64 {
        if k == 0 {
            return 1.0;
        }
        self.p.get(k - 1).copied().unwrap_or(1.0)
    }
}

/// Estimate `P_k` for `k = 1..=k_max` with `trials` samples each. Each `k`
/// gets its own deterministic RNG stream, so one size's estimate does not
/// depend on which other sizes were computed.
pub fn optimal_retrieval_probabilities(
    scheme: &AllocationScheme,
    k_max: usize,
    trials: usize,
    seed: u64,
) -> OptimalRetrievalProbabilities {
    assert!(trials > 0);
    let devices = scheme.devices();
    let n = scheme.num_buckets();
    // One kernel and one sample buffer for the whole table: no allocation
    // per `k` or per trial.
    //
    // `reqs` has room for 512 requests, several times any `k_max` in use,
    // on purpose. The engine builds this table during set-up, and what the
    // build leaves on the heap decides where the process's later buffers
    // land: with no buffer, or one small enough for the allocator's
    // per-thread cache (≤ 64 requests), the benchmark's `stat_overflow`
    // peaks at 25–33 MiB instead of 19.5 (DESIGN.md, "Rejected
    // alternatives"; CHANGES.md, PR 16).
    let mut kernel = IncrementalRetrieval::new(devices, 0);
    let mut reqs: Vec<&[usize]> = Vec::with_capacity(512);
    let p: Vec<f64> = (1..=k_max)
        .map(|k| {
            let mut rng = StdRng::seed_from_u64(seed ^ (k as u64).wrapping_mul(0x9E3779B97F4A7C15));
            let mut optimal = 0usize;
            for _ in 0..trials {
                reqs.clear();
                for _ in 0..k {
                    reqs.push(scheme.replicas(rng.gen_range(0..n)));
                }
                kernel.reset(k.div_ceil(devices), 0);
                if reqs.iter().all(|replicas| kernel.try_add(replicas)) {
                    optimal += 1;
                }
            }
            optimal as f64 / trials as f64
        })
        .collect();
    OptimalRetrievalProbabilities { p, trials }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fig4_values_for_9_3_1() {
        // Fig. 4 / §III-B1: P_6 ≈ 0.99, P_7 ≈ 0.98, P_8 ≈ 0.95, P_9 ≈ 0.75,
        // P_10 = 1 (the optimum becomes 2 accesses); P_1..P_5 plot as 1.
        let scheme = AllocationScheme::paper_9_3_1();
        let probs = optimal_retrieval_probabilities(&scheme, 10, 20_000, 42);
        for k in 1..=5 {
            assert!(
                probs.p_k(k) > 0.995,
                "P_{k} = {} must plot as 1",
                probs.p_k(k)
            );
        }
        assert!((probs.p_k(6) - 0.99).abs() < 0.01, "P_6 = {}", probs.p_k(6));
        assert!(
            (probs.p_k(7) - 0.98).abs() < 0.015,
            "P_7 = {}",
            probs.p_k(7)
        );
        assert!((probs.p_k(8) - 0.95).abs() < 0.02, "P_8 = {}", probs.p_k(8));
        assert!((probs.p_k(9) - 0.75).abs() < 0.05, "P_9 = {}", probs.p_k(9));
        assert!(
            probs.p_k(10) > 0.999,
            "P_10: ⌈10/9⌉ = 2 accesses is near-always reachable"
        );
    }

    #[test]
    fn out_of_table_sizes_default_to_one() {
        let scheme = AllocationScheme::paper_9_3_1();
        let probs = optimal_retrieval_probabilities(&scheme, 3, 100, 1);
        assert_eq!(probs.p_k(0), 1.0);
        assert_eq!(probs.p_k(99), 1.0);
    }

    #[test]
    fn design_theoretic_dominates_mirrored() {
        // The qualitative ranking of §II-B2: at k = 5 the design scheme is
        // (essentially) always optimal while mirrored often is not — five
        // random blocks can land 4+ in one 3-device mirror group.
        let dt = AllocationScheme::paper_9_3_1();
        let mir = AllocationScheme::mirrored(9, 3, 36);
        let p_dt = optimal_retrieval_probabilities(&dt, 5, 4_000, 7);
        let p_mir = optimal_retrieval_probabilities(&mir, 5, 4_000, 7);
        assert!(p_dt.p_k(5) > 0.99);
        assert!(p_mir.p_k(5) < 0.9, "mirrored P_5 = {}", p_mir.p_k(5));
    }

    #[test]
    fn deterministic_across_runs() {
        let scheme = AllocationScheme::paper_9_3_1();
        let a = optimal_retrieval_probabilities(&scheme, 6, 500, 5);
        let b = optimal_retrieval_probabilities(&scheme, 6, 500, 5);
        assert_eq!(a.p, b.p);
    }
}
