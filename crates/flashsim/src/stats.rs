//! Streaming response-time statistics.
//!
//! [`ResponseStats`] produces exactly the columns of the paper's Table III
//! (average, standard deviation, maximum); [`IntervalStats`] aggregates per
//! trace interval for the Fig. 8/9 time-series plots.

use crate::time::{ns_to_ms, Duration};

/// Count, mean and maximum of a stream of response times: what a reporting
/// interval keeps, in three words. The mean is Welford's update, the one
/// [`ResponseStats`] runs too.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResponseSummary {
    count: u64,
    mean: f64,
    max: Duration,
}

impl ResponseSummary {
    /// Record one response time (nanoseconds).
    pub fn record(&mut self, ns: Duration) {
        self.count += 1;
        self.mean += (ns as f64 - self.mean) / self.count as f64;
        self.max = self.max.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        self.mean
    }

    /// Maximum in nanoseconds (0 when empty).
    pub fn max_ns(&self) -> Duration {
        self.max
    }

    /// Mean in milliseconds — the unit of Table III.
    pub fn mean_ms(&self) -> f64 {
        self.mean / 1e6
    }

    /// Maximum in milliseconds.
    pub fn max_ms(&self) -> f64 {
        ns_to_ms(self.max)
    }
}

/// Streaming statistics over response times (Welford's online algorithm for
/// numerically stable mean/variance) in O(1) memory: a [`ResponseSummary`]
/// (count, mean and maximum, read through `Deref`) plus the variance and
/// minimum.
#[derive(Debug, Clone)]
pub struct ResponseStats {
    summary: ResponseSummary,
    m2: f64,
    min: Duration,
}

impl std::ops::Deref for ResponseStats {
    type Target = ResponseSummary;

    fn deref(&self) -> &ResponseSummary {
        &self.summary
    }
}

impl Default for ResponseStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ResponseStats {
    /// Empty statistics.
    pub fn new() -> Self {
        ResponseStats {
            summary: ResponseSummary::default(),
            m2: 0.0,
            min: Duration::MAX,
        }
    }

    /// Record one response time (nanoseconds).
    pub fn record(&mut self, ns: Duration) {
        let x = ns as f64;
        let delta = x - self.summary.mean;
        self.summary.record(ns);
        self.m2 += delta * (x - self.summary.mean);
        self.min = self.min.min(ns);
    }

    /// Merge another statistics object into this one (parallel reduction).
    pub fn merge(&mut self, other: &ResponseStats) {
        let (s, o) = (&mut self.summary, &other.summary);
        if o.count == 0 {
            return;
        }
        if s.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = s.count as f64;
        let n2 = o.count as f64;
        let delta = o.mean - s.mean;
        let total = n1 + n2;
        s.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        s.count += o.count;
        s.max = s.max.max(o.max);
        self.min = self.min.min(other.min);
    }

    /// Population standard deviation in nanoseconds.
    pub fn std_ns(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            (self.m2 / self.count() as f64).sqrt()
        }
    }

    /// Minimum in nanoseconds (0 when empty).
    pub fn min_ns(&self) -> Duration {
        if self.count() == 0 {
            0
        } else {
            self.min
        }
    }

    /// Standard deviation in milliseconds.
    pub fn std_ms(&self) -> f64 {
        self.std_ns() / 1e6
    }
}

/// Per-interval aggregation used by the real-workload experiments: each
/// trace interval gets its own [`ResponseSummary`] plus delay accounting.
#[derive(Debug, Clone, Default)]
pub struct IntervalStats {
    /// Response count, mean and maximum per interval index.
    pub response: Vec<ResponseSummary>,
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
            response: vec![ResponseSummary::default(); intervals],
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
            self.response.push(ResponseSummary::default());
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

    /// Five words: count, mean, m2, max and min.
    #[test]
    fn response_stats_is_five_words() {
        assert_eq!(std::mem::size_of::<ResponseStats>(), 40);
    }

    /// Three words: count, mean and max. A `QosReport` holds one per
    /// reporting interval, and every pass the benchmark retains holds a
    /// report, so a fourth word shows as resident memory.
    #[test]
    fn response_summary_is_three_words() {
        assert_eq!(std::mem::size_of::<ResponseSummary>(), 24);
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
