//! Cluster-wide metrics and the extended conservation law.

use crate::ctrl::{EvacuationEvent, RebalanceEvent};
use crate::health::ArrayHealth;
use fqos_server::{Ledger, MetricsSnapshot};

/// Fleet-wide snapshot: per-array [`MetricsSnapshot`]s plus the routing,
/// rebalancing and failure-tolerance view, with the cluster conservation
/// law: the fleet [`ClusterMetrics::ledger`] is
/// [`Ledger::conserved_with`] `migrated_in_flight + evacuation_lost`.
///
/// The fleet ledger merges every array snapshot (current slots *and*
/// archived past incarnations), `migrated_in_flight` counts admissions of
/// drained (migrated-away) tenants not yet settled on their live source
/// array, and `evacuation_lost` is the ledger of admissions stranded on
/// fail-stopped arrays (charged when an engine halts, reversed when it
/// recovers from its WAL). At [`crate::QosCluster::finish`] every live
/// window has sealed and drained, so `migrated_in_flight` is 0 and the law
/// closes exactly — `evacuation_lost` being precisely the stranded residue
/// of the frozen snapshots.
#[derive(Debug, Clone)]
pub struct ClusterMetrics {
    /// Final or live snapshot of each slot, in slot order. A dead slot
    /// contributes its frozen snapshot (see [`ClusterMetrics::frozen`]).
    pub arrays: Vec<MetricsSnapshot>,
    /// Per-slot: `true` when the snapshot is a fail-stopped engine's
    /// frozen state rather than a live/finished one.
    pub frozen: Vec<bool>,
    /// Per-slot: `true` when the slot was gracefully removed and is (or
    /// was) draining behind a router tombstone.
    pub retired: Vec<bool>,
    /// Frozen snapshots of prior incarnations that restarted *without* a
    /// WAL; their counters stay in the fleet history and their stranded
    /// residue stays in `evacuation_lost` forever.
    pub past: Vec<MetricsSnapshot>,
    /// Submissions routed to each slot (handle-side count).
    pub routed: Vec<u64>,
    /// Submissions refused at the router (tenant had no assignment).
    pub unrouted: u64,
    /// Migrations executed by the control loop.
    pub rebalances: u64,
    /// Cluster epoch (bumps on every migration, deregistration, kill,
    /// restore and membership change).
    pub router_epoch: u64,
    /// Unsettled admissions of drained tenants on their live source
    /// arrays.
    pub migrated_in_flight: u64,
    /// Admissions stranded on fail-stopped arrays, net of WAL-restore
    /// reversals.
    pub evacuation_lost: u64,
    /// Tenants re-registered on survivors by emergency evacuations.
    pub evacuated_tenants: u64,
    /// Submissions refused at the transport level (routed array was
    /// fail-stopped); each fed the health plane as a failed heartbeat.
    pub refused_unavailable: u64,
    /// Health verdict per slot at snapshot time.
    pub health: Vec<ArrayHealth>,
    /// `Healthy → Suspect` promotions.
    pub health_suspects: u64,
    /// `Suspect → Dead` verdicts (each triggered one evacuation).
    pub health_verdicts_dead: u64,
    /// `Suspect → Slow` verdicts.
    pub health_verdicts_slow: u64,
    /// Demotions back to `Healthy`.
    pub health_recoveries: u64,
    /// Every migration, in execution order.
    pub events: Vec<RebalanceEvent>,
    /// Every emergency evacuation, in execution order.
    pub evacuations: Vec<EvacuationEvent>,
}

impl ClusterMetrics {
    /// Every snapshot in the fleet's history: current slots plus archived
    /// past incarnations.
    fn all(&self) -> impl Iterator<Item = &MetricsSnapshot> {
        self.arrays.iter().chain(self.past.iter())
    }

    /// The fleet's account of the law: every snapshot's ledger merged.
    pub fn ledger(&self) -> Ledger {
        let mut fleet = Ledger::default();
        for m in self.all() {
            fleet.merge(&m.ledger());
        }
        fleet
    }

    /// Σ admitted (guaranteed + overflow) over the fleet history.
    pub fn admitted_total(&self) -> u64 {
        self.ledger().admitted_total()
    }

    /// Σ completions (primary + hedge wins) over the fleet history.
    pub fn completed(&self) -> u64 {
        self.ledger().completed()
    }

    /// Σ rejected over the fleet history (router-level refusals excluded;
    /// see [`ClusterMetrics::unrouted`]).
    pub fn rejected(&self) -> u64 {
        self.all().map(|m| m.rejected).sum()
    }

    /// Σ host pages programmed by the fleet's FTL models.
    pub fn gc_host_pages(&self) -> u64 {
        self.all().map(|m| m.gc_host_pages).sum()
    }

    /// Σ GC relocation pages programmed by the fleet's FTL models.
    pub fn gc_pages(&self) -> u64 {
        self.all().map(|m| m.gc_pages).sum()
    }

    /// Fleet-wide write amplification `(host + gc) / host`.
    pub fn write_amplification(&self) -> f64 {
        let host = self.gc_host_pages();
        if host == 0 {
            1.0
        } else {
            (host + self.gc_pages()) as f64 / host as f64
        }
    }

    /// Σ deadline violations over the fleet history.
    pub fn deadline_violations(&self) -> u64 {
        self.all().map(|m| m.deadline_violations).sum()
    }

    /// Admissions not yet settled on a *live* array
    /// (`≥ migrated_in_flight` mid-run, 0 at finish). Frozen snapshots are
    /// excluded: their stranded residue is `evacuation_lost`, not
    /// in-flight work.
    pub fn in_flight_total(&self) -> u64 {
        self.arrays
            .iter()
            .zip(self.frozen_flags())
            .filter(|&(_, frozen)| !frozen)
            .map(|(m, _)| m.ledger().in_flight())
            .sum()
    }

    /// `frozen` padded to the slot count (defensive against hand-built
    /// values in tests).
    fn frozen_flags(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.arrays.len()).map(|i| self.frozen.get(i).copied().unwrap_or(false))
    }

    /// p99 service latency: the worst array's (an honest fleet-wide upper
    /// bound — a cluster is as slow as its slowest member).
    pub fn p99_latency_ns(&self) -> u64 {
        self.arrays
            .iter()
            .map(|m| m.p99_latency_ns)
            .max()
            .unwrap_or(0)
    }

    /// p99.9 service latency (worst array).
    pub fn p999_latency_ns(&self) -> u64 {
        self.arrays
            .iter()
            .map(|m| m.p999_latency_ns)
            .max()
            .unwrap_or(0)
    }

    /// Utilization spread `(max − min) / mean` of per-array admitted
    /// totals; 0 for a perfectly balanced fleet.
    pub fn utilization_spread(&self) -> f64 {
        let loads: Vec<u64> = self
            .arrays
            .iter()
            .map(MetricsSnapshot::admitted_total)
            .collect();
        let (Some(&max), Some(&min)) = (loads.iter().max(), loads.iter().min()) else {
            return 0.0;
        };
        let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
        if mean == 0.0 {
            0.0
        } else {
            (max - min) as f64 / mean
        }
    }

    /// The extended conservation law. Three independent checks:
    ///
    /// 1. `migrated_in_flight` is 0 — every drained tenant's admissions
    ///    settled on its (live) source array;
    /// 2. every non-frozen snapshot closes its own per-array law exactly
    ///    ([`MetricsSnapshot::conserved`]);
    /// 3. the fleet ledger balances once `migrated_in_flight +
    ///    evacuation_lost` are accounted, which pins `evacuation_lost` to
    ///    exactly the frozen snapshots' stranded residue — a drifting
    ///    ledger (double charge, missed reversal) breaks it.
    pub fn conserved(&self) -> bool {
        self.migrated_in_flight == 0
            && self
                .arrays
                .iter()
                .zip(self.frozen_flags())
                .filter(|&(_, frozen)| !frozen)
                .all(|(m, _)| m.conserved())
            && self
                .ledger()
                .conserved_with(self.migrated_in_flight + self.evacuation_lost)
    }

    /// One-line audit for logs and `finish()`.
    pub fn render_audit(&self) -> String {
        let fleet = self.ledger();
        format!(
            "cluster audit: arrays={} admitted={} completed={} write_settled={} \
             fault_lost={} hedges_cancelled={} write_lost={} migrated_in_flight={} \
             evacuation_lost={} evacuated={} dead={} rebalances={} epoch={} law={}",
            self.arrays.len(),
            fleet.admitted_total(),
            fleet.completed(),
            fleet.write_settled,
            fleet.lost,
            fleet.hedge_wins,
            fleet.write_lost,
            self.migrated_in_flight,
            self.evacuation_lost,
            self.evacuated_tenants,
            self.frozen_flags().filter(|&f| f).count(),
            self.rebalances,
            self.router_epoch,
            if self.conserved() { "OK" } else { "VIOLATED" },
        )
    }
}
