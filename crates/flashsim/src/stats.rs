//! Streaming response-time statistics.
//!
//! [`ResponseStats`] produces exactly the columns of the paper's Table III
//! (average, standard deviation, maximum) plus percentiles; [`IntervalStats`]
//! aggregates per trace interval for the Fig. 8/9 time-series plots.

use crate::time::{ns_to_ms, Duration};

/// Streaming statistics over response times (Welford's online algorithm for
/// numerically stable mean/variance), with optional sample retention for
/// percentile queries.
#[derive(Debug, Clone)]
pub struct ResponseStats {
    count: u64,
    mean: f64,
    m2: f64,
    max: Duration,
    min: Duration,
    /// Boxed: an [`IntervalStats`] holds one of these per interval and never
    /// retains samples, so the empty case is one word, not a `Vec`'s three.
    #[allow(clippy::box_collection)]
    samples: Option<Box<Vec<Duration>>>,
}

impl Default for ResponseStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ResponseStats {
    /// Statistics without sample retention (O(1) memory).
    pub fn new() -> Self {
        ResponseStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            max: 0,
            min: Duration::MAX,
            samples: None,
        }
    }

    /// Statistics that additionally retain every sample so percentiles can
    /// be queried.
    pub fn with_samples() -> Self {
        ResponseStats {
            samples: Some(Box::default()),
            ..Self::new()
        }
    }

    /// Record one response time (nanoseconds).
    pub fn record(&mut self, ns: Duration) {
        self.count += 1;
        let x = ns as f64;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.max = self.max.max(ns);
        self.min = self.min.min(ns);
        if let Some(s) = &mut self.samples {
            s.push(ns);
        }
    }

    /// Merge another statistics object into this one (parallel reduction).
    pub fn merge(&mut self, other: &ResponseStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
        if let (Some(a), Some(b)) = (&mut self.samples, &other.samples) {
            a.extend_from_slice(b);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation in nanoseconds.
    pub fn std_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Maximum in nanoseconds (0 when empty).
    pub fn max_ns(&self) -> Duration {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Minimum in nanoseconds (0 when empty).
    pub fn min_ns(&self) -> Duration {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Mean in milliseconds — the unit of Table III.
    pub fn mean_ms(&self) -> f64 {
        self.mean / 1e6
    }

    /// Standard deviation in milliseconds.
    pub fn std_ms(&self) -> f64 {
        self.std_ns() / 1e6
    }

    /// Maximum in milliseconds.
    pub fn max_ms(&self) -> f64 {
        ns_to_ms(self.max_ns())
    }

    /// `p`-th percentile (0.0–1.0) in nanoseconds. Requires sample
    /// retention; returns `None` otherwise.
    pub fn percentile_ns(&self, p: f64) -> Option<Duration> {
        let s = self.samples.as_ref()?;
        if s.is_empty() {
            return None;
        }
        let mut sorted = s.clone();
        sorted.sort_unstable();
        let idx = ((p.clamp(0.0, 1.0)) * (sorted.len() - 1) as f64).round() as usize;
        Some(sorted[idx])
    }
}

/// Per-interval aggregation used by the real-workload experiments: each
/// trace interval gets its own [`ResponseStats`] plus delay accounting.
#[derive(Debug, Clone, Default)]
pub struct IntervalStats {
    /// Response stats per interval index.
    pub response: Vec<ResponseStats>,
    /// Total requests per interval.
    pub requests: Vec<u64>,
    /// Requests delayed by admission control per interval.
    pub delayed: Vec<u64>,
    /// Sum of delay amounts (ns) per interval.
    pub delay_sum_ns: Vec<u128>,
}

impl IntervalStats {
    /// New aggregation over `intervals` intervals.
    pub fn new(intervals: usize) -> Self {
        IntervalStats {
            response: (0..intervals).map(|_| ResponseStats::new()).collect(),
            requests: vec![0; intervals],
            delayed: vec![0; intervals],
            delay_sum_ns: vec![0; intervals],
        }
    }

    /// Record a completed request in `interval` with the given response time
    /// and the delay (0 if the request was not delayed).
    pub fn record(&mut self, interval: usize, response_ns: Duration, delay_ns: Duration) {
        self.grow_to(interval + 1);
        self.response[interval].record(response_ns);
        self.requests[interval] += 1;
        if delay_ns > 0 {
            self.delayed[interval] += 1;
            self.delay_sum_ns[interval] += delay_ns as u128;
        }
    }

    fn grow_to(&mut self, n: usize) {
        while self.response.len() < n {
            self.response.push(ResponseStats::new());
            self.requests.push(0);
            self.delayed.push(0);
            self.delay_sum_ns.push(0);
        }
    }

    /// Number of intervals.
    pub fn num_intervals(&self) -> usize {
        self.response.len()
    }

    /// Percentage of delayed requests in an interval (0–100).
    pub fn delayed_pct(&self, interval: usize) -> f64 {
        if self.requests[interval] == 0 {
            0.0
        } else {
            100.0 * self.delayed[interval] as f64 / self.requests[interval] as f64
        }
    }

    /// Average delay amount (ms) over the *delayed* requests of an interval
    /// (the paper's Fig. 8(c) metric).
    pub fn avg_delay_ms(&self, interval: usize) -> f64 {
        if self.delayed[interval] == 0 {
            0.0
        } else {
            self.delay_sum_ns[interval] as f64 / self.delayed[interval] as f64 / 1e6
        }
    }

    /// Overall percentage of delayed requests.
    pub fn total_delayed_pct(&self) -> f64 {
        let total: u64 = self.requests.iter().sum();
        let delayed: u64 = self.delayed.iter().sum();
        if total == 0 {
            0.0
        } else {
            100.0 * delayed as f64 / total as f64
        }
    }

    /// Overall average delay (ms) over delayed requests.
    pub fn total_avg_delay_ms(&self) -> f64 {
        let delayed: u64 = self.delayed.iter().sum();
        if delayed == 0 {
            return 0.0;
        }
        let sum: u128 = self.delay_sum_ns.iter().sum();
        sum as f64 / delayed as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = ResponseStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean_ns(), 0.0);
        assert_eq!(s.std_ns(), 0.0);
        assert_eq!(s.max_ns(), 0);
    }

    #[test]
    fn known_values() {
        let mut s = ResponseStats::new();
        for x in [2u64, 4, 4, 4, 5, 5, 7, 9] {
            s.record(x);
        }
        assert!((s.mean_ns() - 5.0).abs() < 1e-9);
        assert!((s.std_ns() - 2.0).abs() < 1e-9);
        assert_eq!(s.max_ns(), 9);
        assert_eq!(s.min_ns(), 2);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<u64> = (0..1000).map(|i| (i * 7919) % 100_000).collect();
        let mut whole = ResponseStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = ResponseStats::new();
        let mut b = ResponseStats::new();
        for &x in &xs[..300] {
            a.record(x);
        }
        for &x in &xs[300..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean_ns() - whole.mean_ns()).abs() < 1e-6);
        assert!((a.std_ns() - whole.std_ns()).abs() < 1e-6);
        assert_eq!(a.max_ns(), whole.max_ns());
    }

    #[test]
    fn percentiles_require_samples() {
        let mut s = ResponseStats::new();
        s.record(5);
        assert!(s.percentile_ns(0.5).is_none());

        let mut s = ResponseStats::with_samples();
        for x in 1..=100u64 {
            s.record(x);
        }
        assert_eq!(s.percentile_ns(0.0), Some(1));
        assert_eq!(s.percentile_ns(1.0), Some(100));
        let median = s.percentile_ns(0.5).unwrap();
        assert!((49..=52).contains(&median));
    }

    #[test]
    fn interval_stats_delay_accounting() {
        let mut is = IntervalStats::new(2);
        is.record(0, 100, 0);
        is.record(0, 200, 50);
        is.record(1, 300, 0);
        assert_eq!(is.delayed_pct(0), 50.0);
        assert_eq!(is.delayed_pct(1), 0.0);
        assert!((is.avg_delay_ms(0) - 50.0 / 1e6).abs() < 1e-12);
        assert!((is.total_delayed_pct() - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn interval_stats_grows_on_demand() {
        let mut is = IntervalStats::new(1);
        is.record(5, 10, 0);
        assert_eq!(is.num_intervals(), 6);
        assert_eq!(is.requests[5], 1);
    }
}
