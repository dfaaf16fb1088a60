//! Serving-engine configuration.

use crate::fault::FaultSchedule;
use fqos_core::QosConfig;
use fqos_flashsim::{FtlGeometry, BLOCK_READ_NS};
use std::path::PathBuf;

/// Write/GC device model knobs (see [`fqos_flashsim::CalibratedSsd::with_gc`]).
/// A program costs the calibrated read service time, and window admission
/// reserves per-device headroom proportional to the device's recent
/// write-amplification EWMA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcConfig {
    /// Per-device FTL geometry; low over-provisioning makes GC storms easy
    /// to provoke.
    pub geometry: FtlGeometry,
    /// Block erase latency charged per GC erase.
    pub erase_ns: u64,
}

impl GcConfig {
    /// GC model over `geometry` with an erase costing one calibrated block
    /// read.
    pub fn new(geometry: FtlGeometry) -> Self {
        GcConfig {
            geometry,
            erase_ns: BLOCK_READ_NS,
        }
    }

    /// Validate the model knobs.
    pub fn validate(&self) -> Result<(), String> {
        self.geometry.validate().map_err(|e| e.to_string())
    }
}

/// Durability knobs for the write-ahead log (see [`crate::wal`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalConfig {
    /// Log directory (`wal.log` + `wal.snapshot`). `None` keeps the log
    /// in memory — same framing and ordering checks, nothing durable —
    /// which is what unit and model-check tests use.
    pub dir: Option<PathBuf>,
    /// Records per fsync batch, in `1..=4096`. `1` makes every admission
    /// durable before its ack; `N` amortizes the fsync and bounds crash
    /// loss to `N − 1` unacknowledged-durability records.
    pub fsync_batch: u64,
    /// Sealed windows between snapshot + log-truncation compactions
    /// (≥ 1). Bounds restart replay cost by the active window horizon.
    pub snapshot_interval: u64,
}

impl WalConfig {
    /// Defaults: fsync every 8 records, compact every 64 sealed windows.
    pub fn new(dir: Option<PathBuf>) -> Self {
        WalConfig {
            dir,
            fsync_batch: 8,
            snapshot_interval: 64,
        }
    }

    /// Validate the durability knobs.
    pub fn validate(&self) -> Result<(), String> {
        if self.fsync_batch == 0 || self.fsync_batch > 4096 {
            return Err(format!(
                "wal fsync_batch {} must lie in 1..=4096",
                self.fsync_batch
            ));
        }
        if self.snapshot_interval == 0 {
            return Err("wal snapshot_interval must be positive".into());
        }
        Ok(())
    }
}

/// How the engine assigns an admitted request to one of its `c` replica
/// devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssignmentMode {
    /// Maintain an incremental max-flow retrieval schedule per window
    /// ([`fqos_maxflow::IncrementalRetrieval`]): admission is exact — a
    /// request is refused only if **no** reassignment of the window's
    /// earlier requests fits the `M`-access budget. Replica choice is
    /// deferred to window seal, when the final flow is known.
    #[default]
    OptimalFlow,
    /// Greedy earliest-finish-time on arrival: pick the replica with the
    /// least load at submit time, refuse when all replicas are at `M`.
    /// Assigns immediately, but an unlucky arrival order can strand a
    /// feasible set (online bipartite matching is not exact), surfacing as
    /// extra delays under bursty same-bucket load.
    Eft,
}

/// Number of ring slots the engine keeps live window state for. Bounds how
/// far apart the slowest and fastest submitter clocks may drift, plus the
/// delay horizon.
pub const WINDOW_RING: usize = 1024;

/// Configuration of one [`crate::QosServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The underlying QoS deployment (scheme, `M`, interval, ε, policy).
    pub qos: QosConfig,
    /// Worker threads driving device service loops. Devices are owned
    /// `device % workers`, so at most `devices()` workers are useful.
    pub workers: usize,
    /// Bound of each worker's backlog from sealed windows, in requests,
    /// rounded down to whole per-worker window shares, at least one: the
    /// queue holds one message per window and worker, so it is built with
    /// `max(1, queue_depth · workers / S(M))` slots. Submitters block once
    /// it is full (backpressure).
    pub queue_depth: usize,
    /// Tenant-registry shard count (lock striping for the hot lookup path).
    pub shards: usize,
    /// Replica assignment algorithm.
    pub assignment: AssignmentMode,
    /// How many windows beyond arrival a `Delay`-policy request may be
    /// pushed before it is rejected outright.
    pub delay_horizon: u64,
    /// Scripted device failures and recoveries replayed by the fault plane
    /// (empty = all devices healthy unless faults are injected live).
    pub fault_schedule: FaultSchedule,
    /// Live window-ring slots ([`WINDOW_RING`] by default). Model-checking
    /// configs shrink this so schedule exploration wraps the ring within a
    /// few windows; production configs should leave it alone.
    pub ring_slots: usize,
    /// Master switch for the fail-slow reaction path: hedged reads, the
    /// worker backoff retry chain and the seal-time slow-device drain.
    /// Detection (the health scorer) always runs; with hedging off the
    /// engine only steers *new* schedules away from detected-slow devices
    /// and otherwise serves as PR 2 did — the configuration used to
    /// demonstrate what fail-slow costs without mitigation.
    pub hedge_enabled: bool,
    /// Write-ahead durability. `None` (the default) serves exactly as
    /// before this knob existed: nothing is logged and a crash loses all
    /// serving state.
    pub wal: Option<WalConfig>,
    /// Write/GC device model. `None` (the default) keeps the historical
    /// behavior: writes cost the calibrated read latency and never stall
    /// on garbage collection.
    pub gc: Option<GcConfig>,
}

impl ServerConfig {
    /// Defaults around a [`QosConfig`]: 4 workers, depth-64 queues,
    /// 8 registry shards, optimal-flow assignment, 64-window delay horizon.
    pub fn new(qos: QosConfig) -> Self {
        ServerConfig {
            qos,
            workers: 4,
            queue_depth: 64,
            shards: 8,
            assignment: AssignmentMode::default(),
            delay_horizon: 64,
            fault_schedule: FaultSchedule::new(),
            ring_slots: WINDOW_RING,
            hedge_enabled: true,
            wal: None,
            gc: None,
        }
    }

    /// Set the worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the per-worker backlog bound: requests, rounded down to whole
    /// per-worker window shares, at least one (see
    /// [`ServerConfig::queue_depth`]).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Set the assignment mode.
    pub fn with_assignment(mut self, mode: AssignmentMode) -> Self {
        self.assignment = mode;
        self
    }

    /// Set the delay horizon (windows).
    pub fn with_delay_horizon(mut self, horizon: u64) -> Self {
        self.delay_horizon = horizon;
        self
    }

    /// Script device failures and recoveries for the fault plane.
    pub fn with_fault_schedule(mut self, schedule: FaultSchedule) -> Self {
        self.fault_schedule = schedule;
        self
    }

    /// Set the window-ring size (slots). Must stay more than twice the
    /// delay horizon; meant for model-checking configs that need a small
    /// state space.
    pub fn with_ring_slots(mut self, slots: usize) -> Self {
        self.ring_slots = slots;
        self
    }

    /// Enable or disable the fail-slow reaction path (hedges, backoff
    /// retries, seal-time slow drain). Detection always runs.
    pub fn with_hedging(mut self, enabled: bool) -> Self {
        self.hedge_enabled = enabled;
        self
    }

    /// Enable write-ahead durability in `dir` with default batch and
    /// snapshot cadence.
    pub fn with_wal(mut self, dir: impl Into<PathBuf>) -> Self {
        self.wal = Some(WalConfig::new(Some(dir.into())));
        self
    }

    /// Enable an in-memory write-ahead log: the full record/ordering
    /// machinery without a filesystem. For tests (notably model-check
    /// schedules) that assert WAL ordering invariants.
    pub fn with_wal_memory(mut self) -> Self {
        self.wal = Some(WalConfig::new(None));
        self
    }

    /// Set the WAL fsync batch size (requires a WAL; no-op otherwise).
    pub fn with_wal_fsync_batch(mut self, batch: u64) -> Self {
        if let Some(w) = &mut self.wal {
            w.fsync_batch = batch;
        }
        self
    }

    /// Set the WAL compaction cadence in sealed windows (requires a WAL;
    /// no-op otherwise).
    pub fn with_wal_snapshot_interval(mut self, windows: u64) -> Self {
        if let Some(w) = &mut self.wal {
            w.snapshot_interval = windows;
        }
        self
    }

    /// Attach a write/GC device model.
    pub fn with_gc_model(mut self, gc: GcConfig) -> Self {
        self.gc = Some(gc);
        self
    }

    /// Validate the composite configuration.
    pub fn validate(&self) -> Result<(), String> {
        self.qos.validate()?;
        if self.workers == 0 {
            return Err("at least one worker thread is required".into());
        }
        if self.queue_depth == 0 {
            return Err("queue_depth must be positive".into());
        }
        if self.shards == 0 {
            return Err("shards must be positive".into());
        }
        if self.ring_slots < 2 {
            return Err("ring_slots must be at least 2".into());
        }
        if self.delay_horizon as usize >= self.ring_slots / 2 {
            return Err(format!(
                "delay_horizon {} must stay below half the window ring ({})",
                self.delay_horizon,
                self.ring_slots / 2
            ));
        }
        if let Some(wal) = &self.wal {
            wal.validate()?;
        }
        if let Some(gc) = &self.gc {
            gc.validate()?;
        }
        self.fault_schedule
            .validate(self.qos.devices())
            .map_err(|e| e.to_string())?;
        let copies = self.qos.scheme.copies();
        if copies > crate::window::MAX_COPIES {
            return Err(format!(
                "scheme keeps {copies} copies per block; window slots hold at most {}",
                crate::window::MAX_COPIES
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        ServerConfig::new(QosConfig::paper_9_3_1())
            .validate()
            .unwrap();
        ServerConfig::new(QosConfig::paper_13_3_1().with_accesses(2))
            .validate()
            .unwrap();
    }

    #[test]
    fn builders_and_bounds() {
        let cfg = ServerConfig::new(QosConfig::paper_9_3_1())
            .with_workers(8)
            .with_queue_depth(16)
            .with_assignment(AssignmentMode::Eft)
            .with_delay_horizon(4);
        assert_eq!(cfg.workers, 8);
        assert_eq!(cfg.queue_depth, 16);
        assert_eq!(cfg.assignment, AssignmentMode::Eft);
        cfg.validate().unwrap();

        assert!(ServerConfig::new(QosConfig::paper_9_3_1())
            .with_workers(0)
            .validate()
            .is_err());
        assert!(ServerConfig::new(QosConfig::paper_9_3_1())
            .with_delay_horizon(WINDOW_RING as u64)
            .validate()
            .is_err());
        let mut bad = ServerConfig::new(QosConfig::paper_9_3_1());
        bad.queue_depth = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validate_rejects_more_copies_than_a_window_slot_holds() {
        let mut qos = QosConfig::paper_9_3_1();
        qos.scheme = fqos_decluster::AllocationScheme::design(
            &fqos_designs::Design::new_unchecked(9, 9, 1, vec![(0..9).collect()]),
        );
        let err = ServerConfig::new(qos).validate().unwrap_err();
        assert!(err.contains("copies"), "{err}");
    }

    #[test]
    fn validate_rejects_zero_workers() {
        let err = ServerConfig::new(QosConfig::paper_9_3_1())
            .with_workers(0)
            .validate()
            .unwrap_err();
        assert!(err.contains("worker"), "{err}");
    }

    #[test]
    fn validate_rejects_zero_queue_depth() {
        let err = ServerConfig::new(QosConfig::paper_9_3_1())
            .with_queue_depth(0)
            .validate()
            .unwrap_err();
        assert!(err.contains("queue_depth"), "{err}");
    }

    #[test]
    fn ring_slots_builder_and_bounds() {
        let cfg = ServerConfig::new(QosConfig::paper_9_3_1())
            .with_ring_slots(8)
            .with_delay_horizon(3);
        assert_eq!(cfg.ring_slots, 8);
        cfg.validate().unwrap();

        let err = ServerConfig::new(QosConfig::paper_9_3_1())
            .with_ring_slots(1)
            .validate()
            .unwrap_err();
        assert!(err.contains("ring_slots"), "{err}");

        // The delay horizon must stay below half the ring.
        let err = ServerConfig::new(QosConfig::paper_9_3_1())
            .with_ring_slots(8)
            .with_delay_horizon(4)
            .validate()
            .unwrap_err();
        assert!(err.contains("delay_horizon"), "{err}");
    }

    #[test]
    fn validate_rejects_zero_shards() {
        let mut cfg = ServerConfig::new(QosConfig::paper_9_3_1());
        cfg.shards = 0;
        assert!(cfg.validate().unwrap_err().contains("shards"));
    }

    #[test]
    fn validate_rejects_delay_horizon_at_or_past_half_the_ring() {
        // The horizon must stay below WINDOW_RING / 2 so a delayed request
        // can never land on a slot the dispatcher still owns.
        for horizon in [WINDOW_RING as u64 / 2, WINDOW_RING as u64, u64::MAX] {
            let err = ServerConfig::new(QosConfig::paper_9_3_1())
                .with_delay_horizon(horizon)
                .validate()
                .unwrap_err();
            assert!(err.contains("delay_horizon"), "{err}");
        }
        // One below the bound is fine.
        ServerConfig::new(QosConfig::paper_9_3_1())
            .with_delay_horizon(WINDOW_RING as u64 / 2 - 1)
            .validate()
            .unwrap();
    }

    #[test]
    fn validate_accepts_hedging_off() {
        let cfg = ServerConfig::new(QosConfig::paper_9_3_1()).with_hedging(false);
        assert!(!cfg.hedge_enabled);
        cfg.validate().unwrap();
    }

    #[test]
    fn wal_builders_and_bounds() {
        let cfg = ServerConfig::new(QosConfig::paper_9_3_1())
            .with_wal("/tmp/fqos-wal-test")
            .with_wal_fsync_batch(1)
            .with_wal_snapshot_interval(16);
        let wal = cfg.wal.clone().unwrap();
        assert_eq!(
            wal.dir.as_deref().unwrap().to_str(),
            Some("/tmp/fqos-wal-test")
        );
        assert_eq!(wal.fsync_batch, 1);
        assert_eq!(wal.snapshot_interval, 16);
        cfg.validate().unwrap();

        let mem = ServerConfig::new(QosConfig::paper_9_3_1()).with_wal_memory();
        assert_eq!(mem.wal.as_ref().unwrap().dir, None);
        mem.validate().unwrap();

        // Batch/snapshot builders without a WAL are inert.
        let none = ServerConfig::new(QosConfig::paper_9_3_1()).with_wal_fsync_batch(0);
        assert!(none.wal.is_none());
        none.validate().unwrap();

        for (cfg, needle) in [
            (
                ServerConfig::new(QosConfig::paper_9_3_1())
                    .with_wal_memory()
                    .with_wal_fsync_batch(0),
                "fsync_batch",
            ),
            (
                ServerConfig::new(QosConfig::paper_9_3_1())
                    .with_wal_memory()
                    .with_wal_fsync_batch(4097),
                "fsync_batch",
            ),
            (
                ServerConfig::new(QosConfig::paper_9_3_1())
                    .with_wal_memory()
                    .with_wal_snapshot_interval(0),
                "snapshot_interval",
            ),
        ] {
            let err = cfg.validate().unwrap_err();
            assert!(err.contains(needle), "expected '{needle}' in '{err}'");
        }
    }

    #[test]
    fn gc_model_builder_and_bounds() {
        let cfg = ServerConfig::new(QosConfig::paper_9_3_1())
            .with_gc_model(GcConfig::new(FtlGeometry::default()));
        assert!(cfg.gc.is_some());
        cfg.validate().unwrap();

        let mut bad = GcConfig::new(FtlGeometry::default());
        bad.geometry.overprovision = 0.9;
        let err = ServerConfig::new(QosConfig::paper_9_3_1())
            .with_gc_model(bad)
            .validate()
            .unwrap_err();
        assert!(err.contains("over-provisioning"), "{err}");
    }

    #[test]
    fn validate_rejects_out_of_range_fault_events() {
        // paper_9_3_1 has 9 devices: device 9 does not exist.
        let err = ServerConfig::new(QosConfig::paper_9_3_1())
            .with_fault_schedule(FaultSchedule::new().fail(9, 5))
            .validate()
            .unwrap_err();
        assert!(err.contains("device 9"), "{err}");
        ServerConfig::new(QosConfig::paper_9_3_1())
            .with_fault_schedule(FaultSchedule::new().fail(8, 5).recover(8, 9))
            .validate()
            .unwrap();
    }
}
