//! Lock-free serving metrics: counters and a log-bucketed latency
//! histogram, all updated with relaxed atomics on the hot path and read
//! coherently enough for reporting (individual counters are exact; a
//! snapshot taken mid-flight may be torn *across* counters, which reports
//! tolerate).

use crate::ledger::{AtomicLedger, Ledger};
use std::sync::atomic::{AtomicU64, Ordering};

/// Histogram over nanosecond latencies with power-of-two bucket edges:
/// bucket `i` counts values in `[2^(i-1), 2^i)` (bucket 0 counts `0`).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; 64],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Record one latency.
    pub fn record(&self, ns: u64) {
        let idx = (64 - ns.leading_zeros()) as usize; // 0 for ns == 0
        self.buckets[idx.min(63)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_ns.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Largest recorded latency.
    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }

    /// A value at or below which at least `q` (0..=1) of the recorded values
    /// fall: the upper edge of the bucket that reaches `q`, clamped to the
    /// recorded maximum so that no quantile reads above [`Self::max_ns`].
    /// Resolution is the power-of-two bucket width.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * n as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                let edge = if i == 0 { 0 } else { 1u64 << i };
                return edge.min(self.max_ns());
            }
        }
        self.max_ns()
    }

    /// Non-empty buckets as `(upper_edge_ns, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then(|| (if i == 0 { 0 } else { 1u64 << i }, c))
            })
            .collect()
    }
}

/// Per-tenant serving counters (shared via `Arc` between the registry and
/// the worker pool): the tenant's share of the conservation law plus its
/// admission telemetry. Laid out by writer — what submitters count, then
/// the ledger (whose gap is the boundary), then what workers count.
#[derive(Debug, Default)]
#[repr(C)]
pub struct TenantCounters {
    /// Requests pushed to a later window than their arrival window.
    pub delayed: AtomicU64,
    /// Total admission delay (arrival window → admitted window) in ns.
    pub delay_ns: AtomicU64,
    /// Requests refused.
    pub rejected: AtomicU64,
    /// Admissions and settlements (see [`crate::ledger`]).
    pub ledger: AtomicLedger,
    /// Requests whose service finished past their interval deadline.
    pub violations: AtomicU64,
}

impl TenantCounters {
    /// Admissions not yet settled against these counters.
    pub fn in_flight(&self) -> u64 {
        self.ledger.snapshot().in_flight()
    }
}

/// Frozen per-tenant view inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// Tenant id.
    pub tenant: u64,
    /// Reserved per-interval request size.
    pub reserved: usize,
    /// False once the tenant has deregistered (e.g. migrated to another
    /// array); its counters stay reported so nothing it was served is lost
    /// from the audit.
    pub live: bool,
    /// See [`Ledger::admitted`].
    pub admitted: u64,
    /// See [`Ledger::overflow`].
    pub overflow: u64,
    /// See [`TenantCounters::delayed`].
    pub delayed: u64,
    /// See [`TenantCounters::rejected`].
    pub rejected: u64,
    /// See [`TenantCounters::violations`].
    pub violations: u64,
    /// See [`Ledger::served`].
    pub served: u64,
    /// See [`Ledger::hedge_wins`].
    pub hedge_wins: u64,
    /// See [`Ledger::lost`] — the tenant's share of the array's
    /// `fault_lost`.
    pub lost: u64,
    /// See [`Ledger::write_settled`].
    pub write_settled: u64,
    /// See [`Ledger::write_lost`].
    pub write_lost: u64,
}

impl TenantSnapshot {
    /// The tenant's law terms as one account.
    pub fn ledger(&self) -> Ledger {
        Ledger {
            admitted: self.admitted,
            overflow: self.overflow,
            served: self.served,
            hedge_wins: self.hedge_wins,
            lost: self.lost,
            write_settled: self.write_settled,
            write_lost: self.write_lost,
        }
    }

    /// Admissions not yet settled. For a departed tenant this is the
    /// migrated-in-flight contribution to the cluster conservation law (0
    /// once every window the tenant touched has sealed and drained).
    pub fn in_flight(&self) -> u64 {
        self.ledger().in_flight()
    }
}

/// Engine-wide metrics snapshot.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Requests admitted under the deterministic guarantee.
    pub admitted: u64,
    /// Requests admitted on the statistical overflow path.
    pub overflow: u64,
    /// Requests delayed past their arrival window.
    pub delayed: u64,
    /// Requests refused.
    pub rejected: u64,
    /// Requests fully served.
    pub served: u64,
    /// Logical writes whose every replica copy landed (all-must-settle);
    /// a settling term of the law ([`Ledger::write_settled`]).
    pub write_settled: u64,
    /// Logical writes that lost at least one replica copy to a fail-stopped
    /// device past the bounded retry budget. Counted, never silently
    /// dropped — the law's partial-failure term ([`Ledger::write_lost`]).
    pub write_lost: u64,
    /// Host page programs across every device (write-path demand).
    pub gc_host_pages: u64,
    /// GC relocation page programs across every device (`gc_writes`).
    pub gc_pages: u64,
    /// Pages read back during GC relocation across every device.
    pub gc_relocated: u64,
    /// Block erases across every device.
    pub gc_erases: u64,
    /// Served requests finishing past their interval deadline.
    pub deadline_violations: u64,
    /// Violations among *guaranteed* (deterministically admitted) requests,
    /// which [`MetricsSnapshot::verdict`] forbids or prices.
    pub guaranteed_violations: u64,
    /// Largest guaranteed aggregate observed in any sealed window; never
    /// exceeds `S(M)`.
    pub max_window_guaranteed: u64,
    /// Largest total (guaranteed + overflow) aggregate in any sealed window.
    pub max_window_total: u64,
    /// Windows sealed so far.
    pub windows_sealed: u64,
    /// Sealed windows whose execution interval had ≥ 1 device down.
    pub degraded_windows: u64,
    /// Admitted requests steered away from a failed replica at admission.
    pub fault_reroutes: u64,
    /// Requests drained off a failing device at seal and re-dispatched to
    /// a surviving replica within the same interval.
    pub fault_redispatches: u64,
    /// Seal-time rebuilds that found no `M`-respecting slot on any
    /// survivor and overloaded the least-loaded live replica instead —
    /// only reachable when a live injection makes an already-admitted
    /// window infeasible; the resulting late finishes are charged to the
    /// deadline audit. Zero for scripted schedules by construction.
    pub fault_overloads: u64,
    /// Admitted requests unservable because every replica was down at seal
    /// (only possible past the design's `c − 1` tolerance, or when a live
    /// injection lands between admission and seal). Counted, never
    /// silently dropped — a settling term of the law ([`Ledger::lost`]).
    pub fault_lost: u64,
    /// Submissions refused because every replica of the block was down
    /// across the admissible horizon.
    pub fault_rejected: u64,
    /// Speculative duplicate dispatches issued when a block's projected
    /// service latency crossed its device's adaptive hedge threshold.
    pub hedges_issued: u64,
    /// Hedged blocks whose speculative dispatch finished first. Each such
    /// win cancels the original dispatch, so `hedges_won ==
    /// hedges_cancelled` is an exactly-once settlement invariant.
    pub hedges_won: u64,
    /// Original dispatches cancelled by a winning hedge — a settling term
    /// of the law ([`Ledger::hedge_wins`]).
    pub hedges_cancelled: u64,
    /// Deadline-aware re-dispatches: backoff retry hops past the first
    /// hedge plus seal-time drains off a detected-slow device.
    pub retries: u64,
    /// Slow events on the fault timeline, scripted or injected
    /// ([`Verdict::priced`]).
    pub slowdowns: u64,
    /// Health-scorer promotions into `Slow` (admission then steers new
    /// schedules away from the device until it recovers or is re-probed).
    pub slow_detected: u64,
    /// Health-scorer transitions `Healthy → Suspect` (entries).
    pub health_suspects: u64,
    /// Health-scorer demotions `Slow → Healthy` after a sustained normal
    /// streak.
    pub health_recoveries: u64,
    /// Served-request latency: median (bucket-resolution upper bound).
    pub p50_latency_ns: u64,
    /// Served-request latency: 99th percentile (bucket-resolution).
    pub p99_latency_ns: u64,
    /// Served-request latency: 99.9th percentile (bucket-resolution).
    pub p999_latency_ns: u64,
    /// Served-request latency: exact maximum.
    pub max_latency_ns: u64,
    /// Served-request latency: exact mean.
    pub mean_latency_ns: f64,
    /// WAL records appended this epoch (0 when durability is off).
    pub wal_records: u64,
    /// WAL fsync batches flushed this epoch.
    pub wal_fsyncs: u64,
    /// WAL snapshot + log-truncation compactions this epoch.
    pub wal_compactions: u64,
    /// WAL records violating durable ordering (settle without a sealed
    /// durable admission, admit into a sealed window, …). Invariantly 0;
    /// asserted by the model suite on every schedule.
    pub wal_misordered: u64,
    /// WAL backing I/O failures (sticky; the engine keeps serving with
    /// durability degraded).
    pub wal_io_errors: u64,
    /// Durable admissions restored into live windows by the last
    /// [`crate::QosServer::recover`] (0 on a fresh start).
    pub recovered_admissions: u64,
    /// Sealed-but-unsettled reads the log's recoveries, every one of them,
    /// charged to `fault_lost` (dispatches a crash stranded; a stranded
    /// write settles `write_lost`).
    pub recovered_lost: u64,
    /// Log records replayed by the last recovery.
    pub wal_replay_records: u64,
    /// Wall-clock duration of the last recovery replay, nanoseconds.
    pub wal_replay_duration_ns: u64,
    /// 1 when the last recovery truncated the log at a bad frame (torn
    /// tail or corrupt mid-file record), 0 for a clean replay.
    pub wal_replay_truncated: u64,
    /// Per-tenant breakdown, sorted by tenant id.
    pub tenants: Vec<TenantSnapshot>,
}

impl MetricsSnapshot {
    /// The array's law terms as one account (`fault_lost` is its `lost`,
    /// `hedges_cancelled` its `hedge_wins`).
    pub fn ledger(&self) -> Ledger {
        Ledger {
            admitted: self.admitted,
            overflow: self.overflow,
            served: self.served,
            hedge_wins: self.hedges_cancelled,
            lost: self.fault_lost,
            write_settled: self.write_settled,
            write_lost: self.write_lost,
        }
    }

    /// Requests admitted in total (guaranteed + overflow).
    pub fn admitted_total(&self) -> u64 {
        self.ledger().admitted_total()
    }

    /// Reads that completed service on either dispatch path: primaries
    /// plus hedge wins.
    pub fn completed(&self) -> u64 {
        self.ledger().completed()
    }

    /// Admissions settled one way or another (see [`Ledger::settled`]).
    pub fn settled(&self) -> u64 {
        self.ledger().settled()
    }

    /// [`Ledger::conserved`] over this snapshot, plus the exactly-once
    /// hedge invariant: every win counted by the hedge telemetry cancelled
    /// exactly one primary in the ledger.
    pub fn conserved(&self) -> bool {
        self.hedges_won == self.hedges_cancelled && self.ledger().conserved()
    }

    /// Whether this run kept the contract (DESIGN.md, "Ledger").
    pub fn verdict(&self) -> Verdict {
        let misses = self.guaranteed_violations;
        let priced = self.slowdowns > 0 || self.gc_erases > 0;
        let (missed, priced) = if priced { (0, misses) } else { (misses, 0) };
        // More crash losses than losses: the books do not close.
        let lost = self.fault_lost.checked_sub(self.recovered_lost);
        Verdict {
            missed,
            priced,
            lost: lost.unwrap_or(0),
            conserved: lost.is_some() && self.conserved(),
        }
    }

    /// Guaranteed reads that met their deadline, in percent. A read
    /// completes as `served` or as a primary a hedge cancelled; overflow
    /// carries no deadline promise.
    pub fn read_compliance_pct(&self) -> f64 {
        let reads = (self.served + self.hedges_cancelled).saturating_sub(self.overflow);
        100.0 - 100.0 * self.guaranteed_violations as f64 / reads.max(1) as f64
    }

    /// Measured write amplification across the array:
    /// `(host + GC pages) / host pages` (1.0 before any host write).
    pub fn write_amplification(&self) -> f64 {
        if self.gc_host_pages == 0 {
            1.0
        } else {
            (self.gc_host_pages + self.gc_pages) as f64 / self.gc_host_pages as f64
        }
    }
}

/// The contract's clauses over one run ([`MetricsSnapshot::verdict`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Guaranteed misses the contract forbids.
    pub missed: u64,
    /// Guaranteed misses the contract prices: every miss of a run whose
    /// fault timeline held a slowdown (admission is blind until the scorer
    /// convicts) or whose devices erased a block (ROADMAP defect iii).
    pub priced: u64,
    /// `fault_lost` net of the crash losses the log's recoveries charged.
    pub lost: u64,
    /// [`MetricsSnapshot::conserved`], and no more crash losses than losses.
    pub conserved: bool,
}

impl Verdict {
    /// No guaranteed miss of either kind, nothing lost, the books closed.
    pub const CLEAN: Verdict = Verdict {
        missed: 0,
        priced: 0,
        lost: 0,
        conserved: true,
    };

    /// The clauses in contract order: whether each held, its audit mark
    /// and its error.
    pub fn clauses(&self) -> [(bool, &'static str, &'static str); 3] {
        [
            (
                self.missed == 0,
                "✗ GUARANTEE BROKEN",
                "deterministic guarantee violated",
            ),
            (
                self.lost == 0,
                "✗ REQUESTS LOST",
                "admitted requests lost to device failures",
            ),
            (
                self.conserved,
                "✗ ACCOUNTING BROKEN",
                "completion accounting does not balance",
            ),
        ]
    }

    /// The first clause broken, as an error; `None` when the contract held.
    pub fn broken(&self) -> Option<&'static str> {
        self.clauses()
            .into_iter()
            .find_map(|(held, _, error)| (!held).then_some(error))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{assert_one_side_per_line, span, Side, Span};

    impl TenantCounters {
        /// Who writes which counters ([`crate::Tenant`]'s layout test
        /// includes these).
        pub(crate) fn layout(&self) -> Vec<Span> {
            let TenantCounters {
                delayed,
                delay_ns,
                rejected,
                ledger,
                violations,
            } = self;
            let mut spans = vec![
                span("counters.delayed", delayed, Side::Submitter),
                span("counters.delay_ns", delay_ns, Side::Submitter),
                span("counters.rejected", rejected, Side::Submitter),
                span("counters.violations", violations, Side::Worker),
            ];
            spans.extend(ledger.layout());
            spans
        }
    }

    type Judge = fn(&MetricsSnapshot) -> Verdict;
    type Case = (fn(&mut MetricsSnapshot), (u64, u64, u64, bool));

    /// An idle server's snapshot.
    fn idle() -> MetricsSnapshot {
        let qos = fqos_core::QosConfig::paper_9_3_1();
        crate::QosServer::new(crate::ServerConfig::new(qos))
            .unwrap()
            .finish()
    }

    /// Whether `judge` gives each edit of a clean run the clauses
    /// `(missed, priced, lost, conserved)` it lists.
    fn judges(judge: Judge, cases: &[Case]) -> bool {
        cases.iter().all(|(edit, want)| {
            let mut m = idle();
            (m.admitted, m.served) = (10, 10);
            edit(&mut m);
            let v = judge(&m);
            (v.missed, v.priced, v.lost, v.conserved) == *want
        })
    }

    #[test]
    fn misses_are_priced_under_a_slowdown_or_gc_and_forbidden_otherwise() {
        let cases: [Case; 3] = [
            (|m| m.guaranteed_violations = 3, (3, 0, 0, true)),
            (
                |m| (m.guaranteed_violations, m.slowdowns) = (3, 1),
                (0, 3, 0, true),
            ),
            (
                |m| (m.guaranteed_violations, m.gc_erases) = (3, 5),
                (0, 3, 0, true),
            ),
        ];
        assert!(judges(MetricsSnapshot::verdict, &cases));
        // Mutant: GC erases leave a miss forbidden.
        let mutant: Judge = |m| {
            let mut v = m.verdict();
            if m.slowdowns == 0 {
                (v.missed, v.priced) = (m.guaranteed_violations, 0);
            }
            v
        };
        assert!(!judges(mutant, &cases));
    }

    #[test]
    fn lost_is_net_of_recovered_crash_losses() {
        let crashed =
            |m: &mut MetricsSnapshot| (m.served, m.fault_lost, m.recovered_lost) = (6, 4, 3);
        // More crash losses than losses: the books are broken, not clean.
        let overcharged = |m: &mut MetricsSnapshot| m.recovered_lost = 1;
        let cases: [Case; 2] = [(crashed, (0, 0, 1, true)), (overcharged, (0, 0, 0, false))];
        assert!(judges(MetricsSnapshot::verdict, &cases));
        // Mutants: a recovery's crash losses count as failures; an excess
        // of them nets to zero.
        let gross: Judge = |m| Verdict {
            lost: m.fault_lost,
            ..m.verdict()
        };
        let saturating: Judge = |m| Verdict {
            lost: m.fault_lost.saturating_sub(m.recovered_lost),
            conserved: m.conserved(),
            ..m.verdict()
        };
        assert!(!judges(gross, &cases) && !judges(saturating, &cases));
    }

    #[test]
    fn a_hedge_win_without_its_cancelled_primary_breaks_conservation() {
        let cases: [Case; 2] = [
            (|m| m.hedges_won = 1, (0, 0, 0, false)),
            (
                |m| (m.served, m.hedges_won, m.hedges_cancelled) = (9, 1, 1),
                (0, 0, 0, true),
            ),
        ];
        assert!(judges(MetricsSnapshot::verdict, &cases));
        // Mutant: the ledger alone, blind to the hedge telemetry.
        let mutant: Judge = |m| {
            let mut v = m.verdict();
            v.conserved = m.ledger().conserved();
            v
        };
        assert!(!judges(mutant, &cases));
    }

    #[test]
    fn broken_names_the_first_clause_in_contract_order() {
        let mut v = Verdict::CLEAN;
        v.priced = 1;
        assert_eq!(v.broken(), None, "a priced miss breaks nothing");
        v.conserved = false;
        assert_eq!(v.broken(), Some("completion accounting does not balance"));
        v.lost = 1;
        assert_eq!(
            v.broken(),
            Some("admitted requests lost to device failures")
        );
        v.missed = 1;
        assert_eq!(v.broken(), Some("deterministic guarantee violated"));
    }

    #[test]
    fn read_compliance_counts_hedge_won_reads_and_leaves_out_overflow() {
        let mut m = idle();
        assert_eq!(m.read_compliance_pct(), 100.0);
        (
            m.served,
            m.hedges_cancelled,
            m.overflow,
            m.guaranteed_violations,
        ) = (8, 2, 2, 2);
        assert_eq!(m.read_compliance_pct(), 75.0, "2 of 8 guaranteed reads");
    }

    #[test]
    fn layout_keeps_submitter_and_worker_counters_on_separate_lines() {
        let counters = TenantCounters::default();
        assert_one_side_per_line(&counters, counters.layout());
    }

    #[test]
    fn histogram_buckets_by_powers_of_two() {
        let h = LatencyHistogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.max_ns(), 1024);
        let buckets = h.nonzero_buckets();
        // 0 → bucket 0; 1 → (0,2]; 2,3 → (2,4]; 1024 → (1024,2048].
        assert_eq!(buckets, vec![(0, 1), (2, 1), (4, 2), (2048, 1)]);
    }

    #[test]
    fn quantiles_are_monotone_upper_bounds() {
        let h = LatencyHistogram::new();
        for i in 0..100u64 {
            h.record(i * 1000); // 0 .. 99 µs
        }
        let p50 = h.quantile_ns(0.5);
        let p99 = h.quantile_ns(0.99);
        assert!(p50 >= 49_000, "{p50}");
        assert!(p99 >= 98_000, "{p99}");
        assert!(p50 <= p99);
        assert_eq!(h.quantile_ns(1.0), h.max_ns());
        assert!((h.mean_ns() - 49_500.0).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_ns(0.5), 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero_at_every_q() {
        let h = LatencyHistogram::new();
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_ns(q), 0, "q = {q}");
        }
        assert_eq!(h.max_ns(), 0);
    }

    #[test]
    fn quantile_zero_is_the_lowest_occupied_bucket() {
        let h = LatencyHistogram::new();
        h.record(700); // bucket (512, 1024]
        h.record(100_000);
        // q = 0 still needs one observation: the smallest bucket's edge,
        // which the maximum (two buckets up) does not clamp.
        assert_eq!(h.quantile_ns(0.0), 1024);
        assert_eq!(
            h.quantile_ns(1.0),
            100_000,
            "the top bucket's edge is clamped"
        );
    }

    #[test]
    fn quantile_one_covers_the_maximum() {
        let h = LatencyHistogram::new();
        for v in [3, 900, 40_000] {
            h.record(v);
        }
        let p100 = h.quantile_ns(1.0);
        assert_eq!(p100, 40_000, "max's bucket edge (65 536) clamps to max");
        assert_eq!(p100, h.max_ns());
        // Out-of-range q clamps rather than panicking.
        assert_eq!(h.quantile_ns(7.5), p100);
        assert_eq!(h.quantile_ns(-1.0), h.quantile_ns(0.0));
    }

    #[test]
    fn single_bucket_histogram_is_flat_across_quantiles() {
        let h = LatencyHistogram::new();
        for _ in 0..10 {
            h.record(1500); // all in (1024, 2048]
        }
        // The bucket's edge is 2048; nothing above 1500 was recorded.
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_ns(q), 1500, "q = {q}");
        }
        assert_eq!(h.max_ns(), 1500);
        assert_eq!(h.nonzero_buckets(), vec![(2048, 10)]);
    }

    #[test]
    fn no_quantile_exceeds_the_recorded_maximum() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        for _ in 0..20 {
            let h = LatencyHistogram::new();
            let top = rng.gen_range(1..=2_000_000u64);
            for _ in 0..rng.gen_range(1..=300) {
                h.record(rng.gen_range(0..=top));
            }
            let mut prev = 0;
            for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let v = h.quantile_ns(q);
                assert!(v <= h.max_ns(), "q = {q}: {v} > {}", h.max_ns());
                assert!(v >= prev, "q = {q}: quantiles must not decrease");
                prev = v;
            }
            assert_eq!(h.quantile_ns(1.0), h.max_ns());
        }
    }

    #[test]
    fn zero_only_histogram_reports_bucket_zero() {
        let h = LatencyHistogram::new();
        h.record(0);
        assert_eq!(h.quantile_ns(0.0), 0);
        assert_eq!(h.quantile_ns(1.0), 0);
        assert_eq!(h.nonzero_buckets(), vec![(0, 1)]);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(LatencyHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1_000_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
        assert_eq!(
            h.nonzero_buckets().iter().map(|&(_, c)| c).sum::<u64>(),
            4000
        );
    }
}
