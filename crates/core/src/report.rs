//! Experiment reports: per-interval response/delay series.

use fqos_fim::MiningReport;
use fqos_flashsim::{IntervalStats, ResponseStats};

/// Outcome of running a workload through a QoS scheduler (or a baseline).
#[derive(Debug, Clone, Default)]
pub struct QosReport {
    /// Which scheduler/baseline produced this report.
    pub name: String,
    /// Per-reporting-interval response and delay statistics.
    pub intervals: IntervalStats,
    /// Whole-run response statistics.
    pub total_response: ResponseStats,
    /// Requests rejected (only under [`crate::OverloadPolicy::Reject`]).
    pub rejected: u64,
    /// Fig. 11 series: fraction of each interval's requests matched by the
    /// previous interval's FIM mining (empty unless FIM mapping was used).
    pub matched_fraction: Vec<f64>,
    /// Mining reports per interval (Table IV inputs).
    pub mining: Vec<MiningReport>,
}

impl QosReport {
    /// New empty report over a trace of `intervals` reporting intervals:
    /// every per-interval series is sized once, here.
    pub fn new(name: impl Into<String>, intervals: usize) -> Self {
        QosReport {
            name: name.into(),
            intervals: IntervalStats::new(intervals),
            matched_fraction: Vec::with_capacity(intervals),
            mining: Vec::with_capacity(intervals),
            ..Default::default()
        }
    }

    /// Record one completed request.
    pub fn record(&mut self, interval: usize, response_ns: u64, delay_ns: u64) {
        self.intervals.record(interval, response_ns, delay_ns);
        self.total_response.record(response_ns);
    }

    /// Total requests completed.
    pub fn completed(&self) -> u64 {
        self.total_response.count()
    }

    /// Overall percentage of delayed requests (Fig. 8(d) / Fig. 9 labels).
    pub fn delayed_pct(&self) -> f64 {
        self.intervals.total_delayed_pct()
    }

    /// Overall average delay (ms) of delayed requests (Fig. 8(c)).
    pub fn avg_delay_ms(&self) -> f64 {
        self.intervals.total_avg_delay_ms()
    }

    /// Mean matched fraction (Fig. 11 summary: "in average 17 % / 87 %"),
    /// excluding the first interval which has no history.
    pub fn avg_matched_fraction(&self) -> f64 {
        if self.matched_fraction.len() <= 1 {
            return 0.0;
        }
        let tail = &self.matched_fraction[1..];
        tail.iter().sum::<f64>() / tail.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_flow_to_both_aggregates() {
        let mut r = QosReport::new("t", 0);
        r.record(0, 100, 0);
        r.record(0, 200, 50);
        r.record(1, 300, 0);
        assert_eq!(r.completed(), 3);
        assert_eq!(r.intervals.requests[0], 2);
        assert!((r.total_response.mean_ns() - 200.0).abs() < 1e-9);
        assert!((r.delayed_pct() - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn matched_fraction_average_skips_first_interval() {
        let mut r = QosReport::new("t", 0);
        r.matched_fraction = vec![0.0, 0.5, 0.7];
        assert!((r.avg_matched_fraction() - 0.6).abs() < 1e-12);
        r.matched_fraction = vec![0.0];
        assert_eq!(r.avg_matched_fraction(), 0.0);
    }
}
