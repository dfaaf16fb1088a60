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
//! these as 1 at its resolution. [`Sampling::DistinctBuckets`] is the
//! coalesced alternative where the `S(M)` guarantees hold exactly.

use crate::scheme::AllocationScheme;
use fqos_maxflow::IncrementalRetrieval;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How request sets are drawn for the `P_k` estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sampling {
    /// The paper's method: draws with replacement, duplicates kept.
    #[default]
    WithReplacement,
    /// Draw `k` distinct buckets (duplicate requests coalesced); under this
    /// mode `P_k = 1` exactly for `k ≤ S(1)`.
    DistinctBuckets,
}

/// Estimated `P_k` table for `k = 1..=k_max`.
#[derive(Debug, Clone)]
pub struct OptimalRetrievalProbabilities {
    /// `p[k-1]` = estimated `P_k`.
    pub p: Vec<f64>,
    /// Trials used per request size.
    pub trials: usize,
    /// Sampling mode used.
    pub sampling: Sampling,
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

/// Estimate `P_k` for `k = 1..=k_max` with `trials` samples each, using the
/// paper's with-replacement sampling. See [`optimal_retrieval_probabilities_with`]
/// to choose the sampling mode.
pub fn optimal_retrieval_probabilities<S: AllocationScheme + Sync + ?Sized>(
    scheme: &S,
    k_max: usize,
    trials: usize,
    seed: u64,
) -> OptimalRetrievalProbabilities {
    optimal_retrieval_probabilities_with(scheme, k_max, trials, seed, Sampling::WithReplacement)
}

/// Estimate `P_k` under an explicit sampling mode. Each `k` gets its own
/// deterministic RNG stream, so one size's estimate does not depend on
/// which other sizes were computed.
pub fn optimal_retrieval_probabilities_with<S: AllocationScheme + Sync + ?Sized>(
    scheme: &S,
    k_max: usize,
    trials: usize,
    seed: u64,
    sampling: Sampling,
) -> OptimalRetrievalProbabilities {
    assert!(trials > 0);
    if sampling == Sampling::DistinctBuckets {
        assert!(
            k_max <= scheme.num_buckets(),
            "cannot draw more distinct buckets than the scheme supports"
        );
    }
    let devices = scheme.devices();
    let n = scheme.num_buckets();
    // One kernel, one pool and one sample buffer for the whole table: no
    // allocation per `k` or per trial.
    //
    // `reqs` has room for 512 requests, several times any `k_max` in use,
    // on purpose. The engine builds this table during set-up, and what the
    // build leaves on the heap decides where the process's later buffers
    // land: with no buffer, or one small enough for the allocator's
    // per-thread cache (≤ 64 requests), the benchmark's `stat_overflow`
    // peaks at 25–33 MiB instead of 19.5 (DESIGN.md, "One matcher").
    let mut kernel = IncrementalRetrieval::new(devices, 0);
    let mut pool: Vec<usize> = Vec::with_capacity(n);
    let mut reqs: Vec<&[usize]> = Vec::with_capacity(512);
    let p: Vec<f64> = (1..=k_max)
        .map(|k| {
            let mut rng = StdRng::seed_from_u64(seed ^ (k as u64).wrapping_mul(0x9E3779B97F4A7C15));
            let mut optimal = 0usize;
            pool.clear();
            pool.extend(0..n);
            for _ in 0..trials {
                reqs.clear();
                match sampling {
                    Sampling::WithReplacement => {
                        for _ in 0..k {
                            reqs.push(scheme.replicas(rng.gen_range(0..n)));
                        }
                    }
                    Sampling::DistinctBuckets => {
                        // Partial Fisher–Yates: first k entries are the sample.
                        for i in 0..k {
                            let j = rng.gen_range(i..n);
                            pool.swap(i, j);
                            reqs.push(scheme.replicas(pool[i]));
                        }
                    }
                }
                kernel.reset(k.div_ceil(devices), 0);
                if reqs.iter().all(|replicas| kernel.try_add(replicas)) {
                    optimal += 1;
                }
            }
            optimal as f64 / trials as f64
        })
        .collect();
    OptimalRetrievalProbabilities {
        p,
        trials,
        sampling,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DesignTheoretic, Raid1Mirrored};

    #[test]
    fn paper_fig4_values_for_9_3_1() {
        // Fig. 4 / §III-B1: P_6 ≈ 0.99, P_7 ≈ 0.98, P_8 ≈ 0.95, P_9 ≈ 0.75,
        // P_10 = 1 (the optimum becomes 2 accesses); P_1..P_5 plot as 1.
        let scheme = DesignTheoretic::paper_9_3_1();
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
    fn distinct_sampling_respects_deterministic_guarantee() {
        // With coalesced (distinct) sampling, the S(1) = 5 guarantee is
        // exact: P_k = 1 for k ≤ 5.
        let scheme = DesignTheoretic::paper_9_3_1();
        let probs =
            optimal_retrieval_probabilities_with(&scheme, 6, 5_000, 11, Sampling::DistinctBuckets);
        for k in 1..=5 {
            assert_eq!(probs.p_k(k), 1.0, "P_{k} under distinct sampling");
        }
    }

    #[test]
    fn out_of_table_sizes_default_to_one() {
        let scheme = DesignTheoretic::paper_9_3_1();
        let probs = optimal_retrieval_probabilities(&scheme, 3, 100, 1);
        assert_eq!(probs.p_k(0), 1.0);
        assert_eq!(probs.p_k(99), 1.0);
    }

    #[test]
    fn design_theoretic_dominates_mirrored() {
        // The qualitative ranking of §II-B2: at k = 5 the design scheme is
        // (essentially) always optimal while mirrored often is not — five
        // random blocks can land 4+ in one 3-device mirror group.
        let dt = DesignTheoretic::paper_9_3_1();
        let mir = Raid1Mirrored::paper();
        let p_dt = optimal_retrieval_probabilities(&dt, 5, 4_000, 7);
        let p_mir = optimal_retrieval_probabilities(&mir, 5, 4_000, 7);
        assert!(p_dt.p_k(5) > 0.99);
        assert!(p_mir.p_k(5) < 0.9, "mirrored P_5 = {}", p_mir.p_k(5));
    }

    #[test]
    fn deterministic_across_runs() {
        let scheme = DesignTheoretic::paper_9_3_1();
        let a = optimal_retrieval_probabilities(&scheme, 6, 500, 5);
        let b = optimal_retrieval_probabilities(&scheme, 6, 500, 5);
        assert_eq!(a.p, b.p);
    }
}
