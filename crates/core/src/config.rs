//! QoS framework configuration.

use fqos_decluster::analysis::{buckets_within, MAX_CUT_DEVICES};
use fqos_decluster::AllocationScheme;
use fqos_flashsim::time::{BASE_INTERVAL_NS, BLOCK_READ_NS};
use fqos_flashsim::Duration;

/// What to do with requests that would violate the guarantee (§III-A: "it
/// can either be rejected or delayed to the next available interval"; the
/// paper's experiments use Delay "since canceling the requests may effect
/// the running state of applications").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Push the request to the next interval with capacity.
    #[default]
    Delay,
    /// Drop the request (counted in the report).
    Reject,
}

/// Configuration of one QoS deployment.
#[derive(Debug, Clone)]
pub struct QosConfig {
    /// The allocation in use: the paper's design-theoretic layout, or any
    /// other whose request limit the cut table can compute.
    pub scheme: AllocationScheme,
    /// Access budget `M` per device per interval.
    pub accesses: usize,
    /// Interval length `T` in nanoseconds.
    pub interval_ns: Duration,
    /// Violation budget `ε` for statistical QoS; `0.0` = deterministic.
    pub epsilon: f64,
    /// Overload handling.
    pub policy: OverloadPolicy,
    /// Per-8-KiB-block device service time (the calibrated 0.132507 ms).
    pub service_ns: Duration,
}

impl QosConfig {
    /// The paper's base configuration: `(9,3,1)` design, `M = 1`,
    /// `T = 0.133 ms`, deterministic, delay policy.
    pub fn paper_9_3_1() -> Self {
        QosConfig {
            scheme: AllocationScheme::paper_9_3_1(),
            accesses: 1,
            interval_ns: BASE_INTERVAL_NS,
            epsilon: 0.0,
            policy: OverloadPolicy::Delay,
            service_ns: BLOCK_READ_NS,
        }
    }

    /// The TPC-E configuration: `(13,3,1)` design, otherwise as above.
    pub fn paper_13_3_1() -> Self {
        QosConfig {
            scheme: AllocationScheme::paper_13_3_1(),
            ..Self::paper_9_3_1()
        }
    }

    /// Set the access budget `M` and scale the interval to `M · 0.133 ms`
    /// (the Table III pattern: 14 blocks / 0.266 ms, 27 / 0.399 ms).
    pub fn with_accesses(mut self, m: usize) -> Self {
        assert!(m >= 1);
        self.accesses = m;
        self.interval_ns = m as u64 * BASE_INTERVAL_NS;
        self
    }

    /// Set the statistical violation budget.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        assert!((0.0..=1.0).contains(&epsilon));
        self.epsilon = epsilon;
        self
    }

    /// The per-interval request limit: `S(M) = (c−1)M² + cM` for a design
    /// layout; for any other, the exact `b*(M)`, the most buckets of which
    /// any set fits in `M` accesses ([`buckets_within`]). A design keeps
    /// `S(M)` even where `b*(M)` is larger (30 against 27 on `(13,3,1)` at
    /// `M = 3`), so its admissions stay the paper's.
    pub fn request_limit(&self) -> usize {
        match self.scheme.guarantee() {
            Some(g) => g.buckets_in(self.accesses),
            None => buckets_within(&self.scheme, self.accesses),
        }
    }

    /// Number of devices.
    pub fn devices(&self) -> usize {
        self.scheme.devices()
    }

    /// Sanity-check: `M` must be at least one access, and `M` accesses must
    /// fit in the interval, or no guarantee can ever be met; a layout
    /// without a design needs a cut table for its request limit.
    pub fn validate(&self) -> Result<(), String> {
        if self.accesses == 0 {
            return Err("M = 0 accesses: at least one access per interval".into());
        }
        if self.scheme.guarantee().is_none() && self.devices() > MAX_CUT_DEVICES {
            return Err(format!(
                "{}: a layout without a design serves at most {MAX_CUT_DEVICES} devices",
                self.scheme.name()
            ));
        }
        let needed = self.accesses as u64 * self.service_ns;
        if needed > self.interval_ns {
            return Err(format!(
                "M = {} accesses need {} ns but the interval is {} ns",
                self.accesses, needed, self.interval_ns
            ));
        }
        if !(0.0..=1.0).contains(&self.epsilon) {
            return Err(format!("epsilon {} outside [0,1]", self.epsilon));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_limits() {
        let c = QosConfig::paper_9_3_1();
        c.validate().unwrap();
        assert_eq!(c.request_limit(), 5);
        assert_eq!(c.clone().with_accesses(2).request_limit(), 14);
        assert_eq!(c.clone().with_accesses(3).request_limit(), 27);
        assert_eq!(c.with_accesses(3).interval_ns, 399_000);
    }

    /// `QosConfig` on `scheme` at `M = 1..=3`.
    fn limits(scheme: AllocationScheme) -> Vec<usize> {
        let c = QosConfig {
            scheme,
            ..QosConfig::paper_9_3_1()
        };
        (1..=3)
            .map(|m| c.clone().with_accesses(m).request_limit())
            .collect()
    }

    #[test]
    fn baselines_serve_their_exact_limit() {
        assert_eq!(limits(AllocationScheme::chained(9, 3, 36)), [3, 10, 27]);
        assert_eq!(limits(AllocationScheme::mirrored(9, 3, 36)), [3, 6, 9]);
        // A design keeps S(M): 27 at M = 3 on (13,3,1), not its exact 30.
        assert_eq!(limits(AllocationScheme::paper_13_3_1())[2], 27);
    }

    #[test]
    fn validation_rejects_a_baseline_past_the_cut_table() {
        let mut c = QosConfig::paper_9_3_1();
        c.scheme = AllocationScheme::chained(17, 3, 34);
        assert!(c.validate().unwrap_err().contains("at most 16 devices"));
        c.scheme = AllocationScheme::chained(16, 3, 32);
        assert!(c.validate().is_ok());
        // A design needs no cut table.
        c.scheme = AllocationScheme::design(&fqos_designs::DesignCatalog.find(19, 3).unwrap());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_impossible_intervals() {
        let mut c = QosConfig::paper_9_3_1();
        c.accesses = 2; // 2 × 0.1325 ms > 0.133 ms
        assert!(c.validate().is_err());
        assert!(QosConfig::paper_9_3_1().with_accesses(2).validate().is_ok());
    }

    #[test]
    fn validation_rejects_zero_accesses() {
        let mut c = QosConfig::paper_9_3_1();
        c.accesses = 0;
        assert!(c.validate().unwrap_err().contains("M = 0"));
    }

    #[test]
    fn epsilon_bounds() {
        assert!(QosConfig::paper_9_3_1()
            .with_epsilon(0.2)
            .validate()
            .is_ok());
        let mut c = QosConfig::paper_9_3_1();
        c.epsilon = 1.5;
        assert!(c.validate().is_err());
    }
}
