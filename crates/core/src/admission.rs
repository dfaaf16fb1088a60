//! Admission control (§III-A, §III-B).

use fqos_decluster::sampling::OptimalRetrievalProbabilities;
use std::collections::HashMap;

/// Application-level admission (§III-A, the Table I walk-through):
/// applications declare a per-interval request size and are admitted while
/// the aggregate stays within `S(M)`.
#[derive(Debug, Clone)]
pub struct AppAdmission {
    limit: usize,
    total: usize,
    apps: HashMap<u64, usize>,
}

impl AppAdmission {
    /// Create a controller with per-interval request limit `S(M)`.
    pub fn new(limit: usize) -> Self {
        AppAdmission {
            limit,
            total: 0,
            apps: HashMap::new(),
        }
    }

    /// The configured limit.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Currently admitted aggregate request size.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Request admission for application `app` with `request_size` block
    /// requests per interval. Returns `true` iff admitted. Re-registering
    /// an admitted application updates its size (admitting the change only
    /// if the new aggregate fits).
    pub fn register(&mut self, app: u64, request_size: usize) -> bool {
        let current = self.apps.get(&app).copied().unwrap_or(0);
        let new_total = self.total - current + request_size;
        if new_total > self.limit {
            return false;
        }
        self.apps.insert(app, request_size);
        self.total = new_total;
        true
    }

    /// Remove an application, freeing its capacity.
    pub fn deregister(&mut self, app: u64) {
        if let Some(size) = self.apps.remove(&app) {
            self.total -= size;
        }
    }

    /// Remaining admittable request size.
    pub fn headroom(&self) -> usize {
        self.limit - self.total
    }
}

/// The statistical QoS state (§III-B2): per-request-size interval counters.
///
/// `N_k` counts intervals that carried `k` requests, `N_t` the total
/// intervals. `R_k = N_k / N_t` estimates the request-size distribution and
/// `Q = Σ_k (1 − P_k) · R_k` the probability that an interval cannot be
/// retrieved optimally. Requests beyond the deterministic limit are admitted
/// while `Q < ε`.
#[derive(Debug, Clone, Default)]
pub struct StatisticalCounters {
    n_k: Vec<u64>,
    n_t: u64,
}

impl StatisticalCounters {
    /// Fresh counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a completed interval that carried `k` requests.
    pub fn record_interval(&mut self, k: usize) {
        if self.n_k.len() <= k {
            self.n_k.resize(k + 1, 0);
        }
        self.n_k[k] += 1;
        self.n_t += 1;
    }

    /// Total intervals observed.
    pub fn intervals(&self) -> u64 {
        self.n_t
    }

    /// `Q = Σ_k (1 − P_k) · R_k` over the recorded history.
    pub fn violation_probability(&self, p: &OptimalRetrievalProbabilities) -> f64 {
        if self.n_t == 0 {
            return 0.0;
        }
        self.n_k
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(k, &n)| (1.0 - p.p_k(k)) * (n as f64 / self.n_t as f64))
            .sum()
    }

    /// Would admitting an interval of size `k` keep `Q < ε`? Evaluates `Q`
    /// with the tentative interval counted (§III-B2: "Admission control
    /// algorithm admits the requests of the current interval if Q … is
    /// smaller than ε").
    pub fn would_admit(&self, k: usize, p: &OptimalRetrievalProbabilities, epsilon: f64) -> bool {
        let n_t = (self.n_t + 1) as f64;
        let mut q = 0.0;
        for (size, &n) in self.n_k.iter().enumerate() {
            let n = n + u64::from(size == k);
            if n > 0 {
                q += (1.0 - p.p_k(size)) * (n as f64 / n_t);
            }
        }
        if self.n_k.len() <= k {
            // Tentative interval size beyond the recorded table.
            q += (1.0 - p.p_k(k)) / n_t;
        }
        q < epsilon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fqos_decluster::sampling::optimal_retrieval_probabilities;
    use fqos_decluster::AllocationScheme;

    #[test]
    fn table1_walkthrough() {
        // §III-A: S = 5. App 1 (size 2) joins at T0, app 2 (size 2) at T1,
        // app 3 (size 1) at T2 — all admitted, limit reached; app 4 rejected.
        let mut ac = AppAdmission::new(5);
        assert!(ac.register(1, 2));
        assert!(ac.register(2, 2));
        assert!(ac.register(3, 1));
        assert_eq!(ac.total(), 5);
        assert_eq!(ac.headroom(), 0);
        assert!(!ac.register(4, 1));
        // One app leaves; capacity frees up.
        ac.deregister(2);
        assert!(ac.register(4, 2));
    }

    #[test]
    fn reregistration_updates_size() {
        let mut ac = AppAdmission::new(5);
        assert!(ac.register(1, 3));
        assert!(ac.register(1, 5)); // grow within limit
        assert_eq!(ac.total(), 5);
        assert!(!ac.register(1, 6)); // too big
        assert_eq!(ac.total(), 5); // unchanged after rejection
    }

    fn p931() -> OptimalRetrievalProbabilities {
        optimal_retrieval_probabilities(&AllocationScheme::paper_9_3_1(), 12, 4000, 3)
    }

    #[test]
    fn q_is_zero_for_small_intervals() {
        let p = p931();
        let mut c = StatisticalCounters::new();
        for _ in 0..100 {
            c.record_interval(3);
        }
        // P_3 ≈ 1 → Q ≈ 0.
        assert!(c.violation_probability(&p) < 0.01);
    }

    #[test]
    fn q_grows_with_oversized_intervals() {
        let p = p931();
        let mut c = StatisticalCounters::new();
        for _ in 0..50 {
            c.record_interval(3);
        }
        let q_before = c.violation_probability(&p);
        for _ in 0..50 {
            c.record_interval(9); // P_9 ≈ 0.75 → each adds ~0.25 weight
        }
        let q_after = c.violation_probability(&p);
        assert!(q_after > q_before + 0.05, "{q_before} → {q_after}");
        // Roughly (1 - 0.75) × 0.5 ≈ 0.125.
        assert!((q_after - 0.125).abs() < 0.05, "{q_after}");
    }

    #[test]
    fn would_admit_respects_epsilon() {
        let p = p931();
        let mut c = StatisticalCounters::new();
        for _ in 0..99 {
            c.record_interval(2);
        }
        // One interval of 9 among 100: Q ≈ 0.25/100 = 0.0025.
        assert!(c.would_admit(9, &p, 0.01));
        assert!(!c.would_admit(9, &p, 0.001));
        // Deterministic (ε = 0) never admits anything via Q.
        assert!(!c.would_admit(2, &p, 0.0));
    }

    #[test]
    fn empty_history_bases_q_on_single_interval() {
        let p = p931();
        let c = StatisticalCounters::new();
        // First interval of size 9: Q = 1 − P_9 ≈ 0.25.
        assert!(c.would_admit(9, &p, 0.5));
        assert!(!c.would_admit(9, &p, 0.1));
    }
}
