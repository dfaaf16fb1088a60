//! The concurrent serving engine: submitter handles, the watermark sealing
//! protocol, the dispatcher and the worker pool.
//!
//! # Execution model
//!
//! Simulated time is divided into intervals ("windows") of length `T`
//! ([`QosConfig::interval_ns`]). A request arriving during window `w` is
//! admitted into some window `t ≥ w` (`t > w` only under the `Delay`
//! policy), executed at `(t+1)·T` and must finish by `(t+2)·T` — its
//! **interval deadline**, one interval of queueing plus one of service,
//! exactly the paper's per-interval guarantee.
//!
//! # Why guaranteed requests never miss their deadline
//!
//! 1. Window admission ([`crate::window::WindowRing`]) never lets a
//!    window's guaranteed set need more than `M` accesses on any device.
//! 2. Config validation enforces `M · service ≤ T`.
//! 3. Windows are sealed and dispatched **in order** by a single logical
//!    dispatcher (a mutex), and each device belongs to exactly one worker
//!    (`device % workers`), so per-device service is FCFS in window order.
//! 4. A device therefore serves at most `M` guaranteed requests between
//!    `(t+1)·T` and `(t+1)·T + M·service ≤ (t+2)·T`.
//!
//! This holds under any thread interleaving — the stress tests hammer it.
//! With statistical admission (`ε > 0`) overflow requests may exceed the
//! budget; they run *after* the window's guaranteed set and their
//! violations (and any spill-over onto later windows) are counted
//! separately. With `ε = 0` the run's verdict ([`MetricsSnapshot::verdict`])
//! counts no forbidden miss, unconditionally.
//!
//! # From slot to worker
//!
//! A request has two records between admission and a device: the window
//! slot's entry, which the seal fixes in place, and the [`WorkItem`] that
//! [`Engine::partition`] copies it into — one per read, one per replica of
//! a write. A worker receives one batch per window: the window number,
//! once, and its share of the items in seal order.
//!
//! # The watermark protocol
//!
//! Sealing window `w` is only safe once no submitter can still admit into
//! it. Each [`SubmitterHandle`] publishes a *watermark* — a lower bound on
//! the windows it may still touch — and admits only at or above it; a
//! request whose arrival lies past the watermark is admitted first and the
//! watermark raised (monotonically) after, which releases the windows in
//! between. The watermarks live under the dispatch lock, one entry per
//! handle, and only a holder of that lock raises one or seals: the
//! dispatcher seals every window below the minimum watermark over open
//! handles; once all handles are closed it seals through the highest
//! admitted window. A new handle enters its watermark under the same lock,
//! so no seal can pass a handle it has not yet seen. With a write-ahead
//! log the raise is also where the handle's staged admissions reach the
//! log, ahead of the seals it allows ([`SubmitterHandle::release`]).

use crate::config::ServerConfig;
use crate::fault::{Devices, FaultKind, FaultPlane, MAX_FAULT_DEVICES};
use crate::ledger::{AtomicLedger, SettleKind};
use crate::metrics::{LatencyHistogram, MetricsSnapshot, TenantSnapshot};
use crate::registry::{RegisterError, Tenant, TenantRegistry, TenantView};
use crate::wal::{crash_point, OpenEntry, Stage, Wal};
use crate::window::{AdmitResult, OpenWindow, SealedWindow, Spares, WindowRing, MAX_COPIES};
use fqos_core::{OverloadPolicy, StatisticalCounters};
use fqos_decluster::sampling::OptimalRetrievalProbabilities;
use fqos_flashsim::{CalibratedSsd, Completion, IoOp, IoRequest};
use fqos_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use fqos_sync::channel::{bounded, Receiver, Sender};
use fqos_sync::thread::JoinHandle;
use fqos_sync::{Arc, Class, LineGap, Mutex, RwLock};
use std::cell::Cell;

/// Outcome of one [`SubmitterHandle::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Admitted under the deterministic guarantee, in its arrival window.
    Admitted {
        /// Window the request was admitted into.
        window: u64,
    },
    /// Admitted under the guarantee, but pushed `delayed_windows` past its
    /// arrival window (`Delay` policy).
    Delayed {
        /// Window the request was admitted into.
        window: u64,
        /// How many windows past arrival it was pushed.
        delayed_windows: u64,
    },
    /// Admitted on the statistical overflow path (`ε > 0`); served without
    /// a deadline guarantee.
    Overflow {
        /// Window the request was admitted into.
        window: u64,
    },
    /// Refused.
    Rejected(RejectReason),
}

impl SubmitOutcome {
    /// True for any admitted variant.
    pub fn is_admitted(&self) -> bool {
        !matches!(self, SubmitOutcome::Rejected(_))
    }

    /// The window the request landed in, if admitted.
    pub fn window(&self) -> Option<u64> {
        match *self {
            SubmitOutcome::Admitted { window }
            | SubmitOutcome::Delayed { window, .. }
            | SubmitOutcome::Overflow { window } => Some(window),
            SubmitOutcome::Rejected(_) => None,
        }
    }
}

/// Why a request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant is not registered.
    UnknownTenant,
    /// `Reject` policy and the arrival window is full.
    WindowFull,
    /// `Delay` policy and every window within the delay horizon is full.
    HorizonExhausted,
    /// Every replica of the requested block sits on a failed device across
    /// the admissible horizon: the failure set exceeds the design's `c − 1`
    /// co-hosting tolerance for this block. The request is refused rather
    /// than queued on a dead device.
    ReplicasUnavailable,
    /// The server is shutting down.
    ServerStopping,
    /// The routed array is fail-stopped (or verdicted dead) and the
    /// cluster tier exhausted its rerouting retries. Surfaced by
    /// `fqos-cluster` instead of a spurious [`RejectReason::UnknownTenant`]
    /// while a failure races the evacuation control loop.
    ArrayUnavailable,
}

#[derive(Default)]
struct DispatchState {
    /// All windows `< sealed_through` are sealed and dispatched.
    sealed_through: u64,
    /// Per handle, the lowest window it may still admit into; `u64::MAX`
    /// once it is closed, and the next handle takes that entry over.
    watermarks: Vec<u64>,
    /// Per worker, its served batches on their way back: `messages + 2` at
    /// most (queued, in service, being filled or here), so no `send` blocks.
    served: Vec<Receiver<Box<Batch>>>,
    /// Every [`WriteSink`] handed out, oldest first. The pool keeps one
    /// reference, so a worker only ever drops a clone and never frees one.
    sinks: std::collections::VecDeque<Arc<WriteSink>>,
    /// Window states the seal gave back, for handles to open windows with:
    /// as many exist as windows were open at once, plus a spare a handle.
    spares: Spares,
    /// The §III-B2 history (`ε > 0` only): each seal records its window.
    counters: StatisticalCounters,
}

impl DispatchState {
    /// A sink for a write of `fanout` copies, moved to the back: the oldest
    /// one if nobody holds it any more, else a new one.
    fn next_sink(&mut self, fanout: u32) -> Arc<WriteSink> {
        let mut sink = self.sinks.pop_front().unwrap_or_default();
        match Arc::get_mut(&mut sink) {
            Some(unheld) => *unheld = WriteSink::default(),
            // Seeded mutant: reused although a worker may still hold it.
            None if cfg!(feature = "model-mutant-sink-reuse") => {}
            None => {
                self.sinks.push_front(sink);
                sink = Arc::default();
            }
        }
        sink.remaining.store(u64::from(fanout), Ordering::Relaxed);
        self.sinks.push_back(Arc::clone(&sink));
        sink
    }

    /// A window state for a handle to open its next window with: one a
    /// seal gave back if there is one, else a new one.
    fn spare(&mut self, ring: &WindowRing) -> Box<OpenWindow> {
        self.spares.pop().unwrap_or_else(|| ring.spare())
    }
}

/// Statistical admission state (`ε > 0` only).
struct StatState {
    /// The seal's [`StatisticalCounters::slack`] as `f64` bits: one value
    /// alone, so `Relaxed`, and a seal before a submit is visible to it.
    slack: AtomicU64,
    /// The design's shared table: sampled by the first server on this
    /// layout, and every later one (fleet arrays, restarts) reuses it.
    probabilities: Arc<OptimalRetrievalProbabilities>,
    /// Largest interval size the `P_k` table covers; overflow admission is
    /// capped here because `p_k` beyond the table optimistically returns 1.
    k_max: usize,
}

/// Maximum speculative dispatches per block (the first hedge plus backoff
/// retries); write copies re-issue against a dead replica as many times.
const RETRY_LIMIT: u64 = 2;

/// Simulated detection/reissue delay per speculative hop: the `k`-th
/// attempt of a block starts no earlier than `exec_start + k ×` this.
const RETRY_BACKOFF_NS: u64 = 8_000;

/// Array-wide telemetry that submitting threads write (the seal runs on
/// them). The conservation-law terms are not here: they are
/// [`Engine::ledger`].
#[derive(Default)]
struct SubmitStats {
    delayed: AtomicU64,
    rejected: AtomicU64,
    max_window_guaranteed: AtomicU64,
    max_window_total: AtomicU64,
    windows_sealed: AtomicU64,
    // Recovery provenance, set once by `QosServer::recover` after the
    // engine is built (zero on a fresh start).
    recovered_admissions: AtomicU64,
    recovered_lost: AtomicU64,
    replay_records: AtomicU64,
    replay_duration_ns: AtomicU64,
    replay_truncated: AtomicU64,
}

/// Array-wide telemetry that workers write (the hedge counts are the board's).
#[derive(Default)]
struct WorkerStats {
    violations: AtomicU64,
    guaranteed_violations: AtomicU64,
}

/// Shared settlement state of one logical write's replica fan-out. Every
/// copy's [`WorkItem`] holds the same `Arc`; the worker that lands the
/// *last* copy (remaining hits zero) settles the logical write exactly
/// once — [`SettleKind::WriteSettled`] if every copy landed,
/// [`SettleKind::WriteLost`] if any copy died on a fail-stopped replica
/// past the retry budget.
#[derive(Default)]
struct WriteSink {
    /// Copies still outstanding.
    remaining: AtomicU64,
    /// Sticky: some copy was lost (all-must-settle failed).
    lost: AtomicBool,
    /// Latest copy finish time, for the deadline audit of the settling
    /// copy (a write is only as done as its slowest replica).
    latest_finish: AtomicU64,
}

/// One dispatched request on its way to a worker, in one cache line. A
/// read's hedge candidates are the other replicas of `req.lbn`'s bucket, so
/// the item carries none.
struct WorkItem {
    req: IoRequest,
    /// The admitting tenant's id. The worker resolves it to the record,
    /// live or departed, through its own [`TenantView`] when it settles.
    tenant_id: u64,
    guaranteed: bool,
    /// Write fan-out: settlement sink shared by all replica copies of the
    /// logical write. `None` for reads.
    write: Option<Arc<WriteSink>>,
}

/// What a worker thread settles through and shares with no one: its cache
/// of the tenant records and its stage of the log (`None` without a WAL).
struct WorkerLocal {
    view: TenantView,
    stage: Option<Stage>,
}

impl WorkItem {
    /// Settle this dispatch's admission into `window` through
    /// [`Engine::settle`]; `finish` is the completion time the deadline
    /// audit judges (`None` when nothing completed). The worker's view
    /// finds the record the seal would have found: while this admission is
    /// in flight its record cannot be replaced
    /// ([`RegisterError::DrainPending`]).
    fn settle(
        &self,
        engine: &Engine,
        local: &mut WorkerLocal,
        window: u64,
        kind: SettleKind,
        finish: Option<u64>,
    ) {
        let tenant = local.view.resolve(&engine.registry, self.tenant_id);
        let done = finish.map(|f| (self, f));
        let stage = local.stage.as_ref();
        engine.settle(window, self.tenant_id, tenant, kind, done, stage);
    }
}

/// One worker's share of one sealed window, in seal order, handed back
/// empty once served. It travels boxed, so that a queue slot stays one word
/// (DESIGN.md, "One message per window and worker").
#[derive(Default)]
struct Batch {
    /// The window `t` its requests were admitted into: they execute from
    /// `(t+1)·T` and are due by `(t+2)·T`.
    window: u64,
    items: Vec<WorkItem>,
}

type Batches = [Option<Box<Batch>>; MAX_FAULT_DEVICES];

enum WorkMsg {
    Batch(Box<Batch>),
    Stop,
}

/// Messages a worker's channel holds so that its backlog stays near
/// `queue_depth` *requests*: a message is one worker's share of one window,
/// on average `S(M) / workers` requests, so `queue_depth` requests are
/// `queue_depth · workers / S(M)` messages — rounded down, at least one.
/// The bound is on the average share: a window skewed onto one worker's
/// devices can carry up to `M · ⌈N / workers⌉` requests in one message.
fn channel_messages(queue_depth: usize, workers: usize, limit: usize) -> usize {
    (queue_depth.saturating_mul(workers) / limit).max(1)
}

/// Laid out by writer (`repr(C)` keeps the order): what nobody writes
/// after construction, a gap, what submitting threads write, what workers
/// write — the ledger, whose own gap parts its admit cells from its settle
/// cells, is the second boundary. No cache line holds bytes of two groups
/// wherever the allocation lands (DESIGN.md, "One writer per line";
/// `layout_keeps_each_side_on_its_own_lines` below).
#[repr(C)]
struct Engine {
    cfg: ServerConfig,
    registry: TenantRegistry,
    ring: WindowRing,
    fault: Arc<FaultPlane>,
    txs: Vec<Sender<WorkMsg>>,
    /// Write-ahead log (None = durability off, serving exactly as before).
    wal: Option<Arc<Wal>>,
    _gap: LineGap,
    stat: Option<StatState>,
    dispatch: Mutex<DispatchState>,
    /// Highest window any request was admitted into.
    max_target: AtomicU64,
    shutdown: AtomicBool,
    /// Quiesce gate (lock class `engine.quiesce`): every submission holds
    /// the read side for its full duration; [`QosServer::halt`] sets
    /// `shutdown` and then passes through the write side once, so an ack
    /// that raced past the shutdown check still lands in the frozen
    /// snapshot — an admission is either counted or refused, never lost.
    quiesce: RwLock<()>,
    submit_stats: SubmitStats,
    /// The array's account of the conservation law.
    ledger: AtomicLedger,
    worker_stats: WorkerStats,
    hist: LatencyHistogram,
}

/// The concurrent multi-tenant serving engine.
///
/// Wraps the paper's admission controller and online retrieval behind a
/// thread-safe front door: register tenants, hand out [`SubmitterHandle`]s
/// to submitter threads, and collect a [`MetricsSnapshot`] at the end.
///
/// ```
/// use fqos_server::{QosServer, ServerConfig, Verdict};
/// use fqos_core::{OverloadPolicy, QosConfig};
///
/// let server = QosServer::new(ServerConfig::new(QosConfig::paper_9_3_1())).unwrap();
/// server.register(1, 2, OverloadPolicy::Delay).unwrap();
/// let mut h = server.handle();
/// assert!(h.submit(1, 42, 0).is_admitted());
/// drop(h);
/// let m = server.finish();
/// assert_eq!(m.served, 1);
/// assert_eq!(m.verdict(), Verdict::CLEAN);
/// ```
pub struct QosServer {
    engine: Arc<Engine>,
    workers: Vec<JoinHandle<()>>,
}

impl QosServer {
    /// Build the engine and spawn its worker pool. With
    /// [`ServerConfig::wal`] set this starts a **fresh** log epoch
    /// (discarding any previous log in the directory); use
    /// [`QosServer::recover`] to continue one.
    pub fn new(cfg: ServerConfig) -> Result<Self, String> {
        cfg.validate()?;
        let wal = match &cfg.wal {
            Some(wal_cfg) => Some(Wal::create(wal_cfg)?),
            None => None,
        };
        Self::build(cfg, wal)
    }

    /// Rebuild a server from the write-ahead log in
    /// `cfg.wal` (required): load the compaction snapshot, replay the log
    /// tail (discarding a torn final record), settle sealed-but-unsettled
    /// admissions as lost, re-park the admissions of still-open windows
    /// into the window ring, and restore every per-tenant and global
    /// ledger — leaving a state where [`crate::ledger::Ledger::conserved`]
    /// holds over the durable admissions. The reopened log continues from where
    /// the previous epoch ended, so recovery is itself crash-consistent
    /// (a second crash replays to the same state).
    pub fn recover(cfg: ServerConfig) -> Result<Self, String> {
        cfg.validate()?;
        let Some(wal_cfg) = cfg.wal.clone() else {
            return Err("recover requires a WAL configuration (with_wal)".into());
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "replay time is reported, never decided on"
        )]
        let t0 = std::time::Instant::now();
        let (wal, report) = Wal::resume(&wal_cfg)?;
        // Every sealed-but-unsettled admission's dispatch died with the
        // old process: the durable outcome is Lost.
        wal.resolve_crash_losses();
        let server = Self::build(cfg, Some(wal))?;
        let restored = server.engine.restore_state()?;
        let s = &server.engine.submit_stats;
        s.recovered_admissions.store(restored, Ordering::Relaxed);
        s.replay_records.store(report.records, Ordering::Relaxed);
        s.replay_duration_ns
            .store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        // `torn` covers any truncation: a torn tail *or* a corrupt frame
        // mid-file — replay stops at the first bad frame either way and
        // the log is cut back to the last good byte.
        s.replay_truncated
            .store(u64::from(report.torn), Ordering::Relaxed);
        // Fold the recovered state into a fresh snapshot so the *next*
        // restart replays only post-recovery records.
        if let Some(wal) = &server.engine.wal {
            wal.compact();
        }
        Ok(server)
    }

    fn build(cfg: ServerConfig, wal: Option<Wal>) -> Result<Self, String> {
        let limit = cfg.qos.request_limit();
        let devices = cfg.qos.devices();
        let workers = cfg.workers.min(devices);
        let wal = wal.map(|wal| Arc::new(wal.with_worker_stages(workers)));
        let stat = (cfg.qos.epsilon > 0.0).then(|| {
            // 1500 trials leave a standard error of ≈ 0.006 at P_k ≈ 0.95,
            // not small beside ε = 0.01. The trial count and seed stay as
            // they are because the `stat_overflow` pin and the P_k golden
            // fix them, until the table is computed exactly (ROADMAP 22(b)).
            let k_max = 2 * limit + 8;
            StatState {
                // The empty history's slack is ε.
                slack: AtomicU64::new(cfg.qos.epsilon.to_bits()),
                probabilities: cfg
                    .qos
                    .scheme
                    .retrieval_probabilities(k_max, 1500, 0x5eed_cafe),
                k_max,
            }
        });
        let messages = channel_messages(cfg.queue_depth, workers, limit);
        let (txs, rxs): (Vec<_>, Vec<_>) =
            (0..workers).map(|_| bounded::<WorkMsg>(messages)).unzip();
        let (homes, served): (Vec<_>, Vec<_>) = (0..workers).map(|_| bounded(messages + 2)).unzip();
        let dispatch = DispatchState {
            served,
            ..DispatchState::default()
        };
        // With a GC model attached, writes go through a per-device
        // page-mapped FTL whose relocation work stalls the device in-line
        // (see `fqos_flashsim::CalibratedSsd`). A program costs the
        // calibrated read service time, which keeps the `M · service ≤ T`
        // window math exact for writes too.
        let plain = || CalibratedSsd::with_latencies(cfg.qos.service_ns, cfg.qos.service_ns);
        let models = (0..devices)
            .map(|_| match &cfg.gc {
                // Geometry was validated with the server config; should a
                // mismatch slip through anyway, serve without the GC model
                // rather than fail (writes then run at plain program cost —
                // degraded fidelity, never lost requests).
                Some(g) => plain()
                    .with_gc(g.geometry, g.erase_ns)
                    .unwrap_or_else(|_| plain()),
                None => plain(),
            })
            .collect();
        let fault = Arc::new(FaultPlane::calibrated(
            cfg.fault_schedule.clone(),
            Devices::new(models, messages + 2),
            cfg.qos.service_ns,
        )?);
        let engine = Arc::new(Engine {
            registry: TenantRegistry::new_with_wal(limit, cfg.shards, wal.clone()),
            ring: WindowRing::new(
                cfg.ring_slots,
                devices,
                cfg.qos.accesses,
                cfg.assignment,
                Arc::clone(&fault),
                cfg.hedge_enabled,
            ),
            fault,
            txs,
            wal,
            _gap: LineGap::default(),
            stat,
            dispatch: Mutex::new(Class::EngineDispatch, dispatch),
            max_target: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            quiesce: RwLock::new(Class::EngineQuiesce, ()),
            submit_stats: SubmitStats::default(),
            ledger: AtomicLedger::default(),
            worker_stats: WorkerStats::default(),
            hist: LatencyHistogram::new(),
            cfg,
        });
        let threads = rxs
            .into_iter()
            .zip(homes)
            .enumerate()
            .map(|(w, (rx, home))| {
                let engine = Arc::clone(&engine);
                let stage = engine.wal.as_ref().map(|wal| wal.worker_stage(w));
                fqos_sync::thread::Builder::new()
                    .name(format!("fqos-worker-{w}"))
                    .spawn(move || worker_loop(rx, home, engine, stage))
                    .map_err(|e| format!("spawning worker {w}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(QosServer {
            engine,
            workers: threads,
        })
    }

    /// The configuration the server runs with.
    pub fn config(&self) -> &ServerConfig {
        &self.engine.cfg
    }

    /// Register a tenant with a per-interval reservation (counts against
    /// `S(M)`).
    pub fn register(
        &self,
        tenant: u64,
        reserved: usize,
        policy: OverloadPolicy,
    ) -> Result<Arc<Tenant>, RegisterError> {
        self.engine.registry.register(tenant, reserved, policy)
    }

    /// Deregister a tenant, freeing its reservation.
    pub fn deregister(&self, tenant: u64) -> Option<Arc<Tenant>> {
        self.engine.registry.deregister(tenant)
    }

    /// Look up a live tenant's record (reservation, policy, counters). A
    /// cluster controller reads the policy here before re-registering the
    /// tenant on a migration target.
    pub fn tenant(&self, tenant: u64) -> Option<Arc<Tenant>> {
        self.engine.registry.get(tenant)
    }

    /// Remaining admittable reservation below `S(M)`.
    pub fn headroom(&self) -> usize {
        self.engine.registry.headroom()
    }

    /// The shared device-health plane (fault counters, per-window masks).
    pub fn fault_plane(&self) -> &FaultPlane {
        &self.engine.fault
    }

    /// Apply a live health transition to `device` from the next unsealed
    /// window.
    ///
    /// * [`FaultKind::Fail`]: requests already dispatched to the device
    ///   stay on the wire; requests admitted but not yet sealed are drained
    ///   and re-dispatched to surviving replicas at seal.
    /// * [`FaultKind::Recover`] returns a failed device to service.
    /// * [`FaultKind::Slow`] silently degrades its service time by the
    ///   factor (≥ 2). Nothing is told to admission: the device keeps
    ///   accepting work at that speed until the health scorer condemns it
    ///   from observed latencies — the fail-slow threat model.
    /// * [`FaultKind::Restore`] returns it to calibrated speed; the scorer
    ///   still has to *observe* the recovery (or probe it) before the
    ///   device re-enters schedules.
    pub fn inject(&self, device: usize, kind: FaultKind) -> Result<(), String> {
        self.engine.inject(device, kind)
    }

    /// Create a submitter handle for one producer thread. Handles must be
    /// closed (or dropped) for the engine to seal past their watermark.
    pub fn handle(&self) -> SubmitterHandle {
        let engine = Arc::clone(&self.engine);
        let stage = engine.wal.as_ref().map(Wal::stage);
        // The seal target is computed under the dispatch lock, so no seal
        // can pass a watermark entered under it.
        let (slot, watermark, spare) = {
            let mut ds = engine.dispatch.lock();
            let watermark = ds.sealed_through;
            let marks = &mut ds.watermarks;
            let slot = match marks.iter().position(|&w| w == u64::MAX) {
                Some(closed) => closed,
                None => {
                    marks.push(u64::MAX);
                    marks.len() - 1
                }
            };
            marks[slot] = watermark;
            (slot, watermark, ds.spare(&engine.ring))
        };
        SubmitterHandle {
            engine,
            slot,
            watermark: Cell::new(watermark),
            view: TenantView::new(),
            stage,
            spare: Cell::new(Some(spare)),
        }
    }

    /// Live metrics. Taken mid-flight it may lag in-progress requests;
    /// [`QosServer::finish`] gives the settled view.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.engine.snapshot()
    }

    /// Seal all remaining windows, drain the workers and return the final
    /// metrics. Outstanding handles are force-closed; submitter threads
    /// must be done with them before this is called. Debug and
    /// `model-check` builds panic if the final snapshot breaks the
    /// conservation law ([`crate::ledger::Ledger::conserved`]).
    pub fn finish(self) -> MetricsSnapshot {
        // A handle drains its stage before it closes; one closed from here
        // is drained from here, before the seal below may log its windows.
        if let Some(wal) = &self.engine.wal {
            wal.drain_stages();
        }
        {
            let mut ds = self.engine.dispatch.lock();
            ds.watermarks.fill(u64::MAX);
            self.engine.seal_ready(&mut ds, None);
        }
        self.engine.shutdown.store(true, Ordering::Release);
        for tx in &self.engine.txs {
            let _ = tx.send(WorkMsg::Stop);
        }
        for t in self.workers {
            fqos_sync::blocking("join");
            let _ = t.join();
        }
        // Settlement records from the drained workers may still sit in the
        // fsync batch buffer; a clean shutdown leaves nothing undurable.
        if let Some(wal) = &self.engine.wal {
            wal.sync_now();
        }
        let m = self.engine.snapshot();
        // The books close here: every admission settled exactly once. Checked
        // in the builds that check lock order; `halt` leaves a residue by design.
        if cfg!(any(debug_assertions, feature = "model-check")) {
            let law = m.ledger();
            assert!(
                law.conserved(),
                "conservation broken at finish: {}",
                law.render()
            );
        }
        m
    }

    /// Fail-stop the array **without** draining: no final seal, so open
    /// windows never seal and their admissions never settle. Workers are
    /// stopped and joined (items already dispatched to their queues still
    /// complete — they left the admission plane before the failure), then
    /// the counters are frozen into the returned snapshot. Its ledger's
    /// [`crate::ledger::Ledger::in_flight`] is the work the failure
    /// stranded; the cluster tier charges it to `evacuation_lost`. The WAL (if any) is flushed and kept on disk so
    /// a later [`QosServer::recover`] can reconcile the stranded work from
    /// the durable record — this models an array whose serving path dies
    /// while its log device survives.
    pub fn halt(self) -> MetricsSnapshot {
        self.engine.shutdown.store(true, Ordering::Release);
        // A seal already under way finishes (its batches reach the workers,
        // stopped below); every later one sees `shutdown` and seals nothing.
        drop(self.engine.dispatch.lock());
        // Wait out submissions that passed the shutdown check before the
        // store: the workers are still draining their queues here, so an
        // in-flight submit blocked on dispatch backpressure completes
        // rather than deadlocking against us.
        drop(self.engine.quiesce.write());
        for tx in &self.engine.txs {
            let _ = tx.send(WorkMsg::Stop);
        }
        for t in self.workers {
            fqos_sync::blocking("join");
            let _ = t.join();
        }
        // Past the barrier nothing is staged any more, so this also drains
        // what open handles had staged: the log holds every admission the
        // snapshot counts.
        if let Some(wal) = &self.engine.wal {
            wal.sync_now();
        }
        self.engine.snapshot()
    }
}

impl Engine {
    /// Apply a live health transition at the next unsealed window. Taking
    /// the dispatch lock orders the injection against in-flight seals: a
    /// window is either sealed entirely before the event (its dispatches
    /// already left) or sees the new mask in its seal-time recheck.
    fn inject(&self, device: usize, kind: FaultKind) -> Result<(), String> {
        let ds = self.dispatch.lock();
        self.fault.inject(device, kind, ds.sealed_through)
    }

    /// Highest window we may seal *up to* (exclusive) right now: the
    /// lowest open handle's watermark.
    fn seal_target(&self, ds: &DispatchState) -> u64 {
        match ds.watermarks.iter().min() {
            Some(&min) if min != u64::MAX => min,
            // No open handles: everything admitted so far is final.
            _ => self.max_target.load(Ordering::Acquire).saturating_add(1),
        }
    }

    /// Seal and dispatch every window that can no longer receive requests,
    /// under the caller's hold of the dispatch lock. `riding` is the stage
    /// of the handle that seals, if it has one: the first `Seal` takes it
    /// into the log in its own hold of the WAL lock. A halted engine seals
    /// nothing: its workers are gone, and its log stays as
    /// [`QosServer::halt`] left it.
    fn seal_ready(&self, ds: &mut DispatchState, mut riding: Option<&Stage>) {
        let target = self.seal_target(ds);
        while ds.sealed_through < target && !self.shutdown.load(Ordering::Acquire) {
            let w = ds.sealed_through;
            let sealed = self.ring.seal(w);
            self.submit_stats
                .windows_sealed
                .fetch_add(1, Ordering::Relaxed);
            if let Some(wal) = &self.wal {
                // The seal record is force-synced BEFORE any of the
                // window's batches is sent: after a crash, every
                // durable admission of a sealed window whose settle record
                // is missing is deterministically crash-lost.
                wal.log_seal_behind(w, riding.take());
            }
            // Admissions whose every replica was down at seal.
            for t in sealed.lost() {
                let rec = self.registry.lookup_any(t);
                self.settle(w, t, rec.as_deref(), SettleKind::Lost, None, None);
            }
            if self.wal.is_some() {
                crash_point("seal-mid-batch");
            }
            if let Some(stat) = &self.stat {
                // Every elapsed interval counts toward the R_k history,
                // including empty ones (they dilute Q, per §III-B2).
                ds.counters.record_interval(sealed.total as usize);
                let slack = ds.counters.slack(&stat.probabilities, self.cfg.qos.epsilon);
                stat.slack.store(slack.to_bits(), Ordering::Relaxed);
            }
            if sealed.total > 0 {
                self.submit_stats
                    .max_window_guaranteed
                    .fetch_max(sealed.guaranteed, Ordering::Relaxed);
                self.submit_stats
                    .max_window_total
                    .fetch_max(sealed.total, Ordering::Relaxed);
                for (tx, batch) in self.txs.iter().zip(self.partition(ds, w, &sealed)) {
                    if let Some(batch) = batch {
                        // Blocking send = backpressure: submitters stall
                        // here once a worker's backlog hits queue_depth.
                        let _ = tx.send(WorkMsg::Batch(batch));
                    }
                }
            }
            // The entries are in the batches: the window's state is free.
            if let Some(w) = sealed.recycle() {
                ds.spares.push(w);
            }
            // Probe tick: a condemned device that no longer receives work
            // would never produce the samples needed to clear it.
            self.fault.health_tick(w);
            ds.sealed_through = w + 1;
        }
    }

    /// Split sealed window `w` into one batch per worker (index = worker;
    /// `None` = nothing to send), keeping seal order inside each: a read
    /// is one item on its assigned device, a write one item per replica,
    /// all sharing one [`WriteSink`] whichever batches they land in. A
    /// batch is one its worker handed back if there is one.
    fn partition(&self, ds: &mut DispatchState, w: u64, sealed: &SealedWindow) -> Batches {
        let workers = self.txs.len();
        let mut batches = [const { None }; MAX_FAULT_DEVICES];
        for (p, guaranteed) in sealed.entries() {
            let write = p.write_copies().map(|copies| ds.next_sink(copies));
            for d in p.targets() {
                let worker = d % workers;
                let batch = batches[worker].get_or_insert_with(|| {
                    let mut batch = ds.served[worker].try_recv().unwrap_or_default();
                    batch.window = w;
                    batch
                });
                let mut req = p.req;
                req.device = d;
                batch.items.push(WorkItem {
                    req,
                    tenant_id: p.tenant,
                    guaranteed,
                    write: write.clone(),
                });
            }
        }
        batches
    }

    fn snapshot(&self) -> MetricsSnapshot {
        let (s, w) = (&self.submit_stats, &self.worker_stats);
        let l = self.ledger.snapshot();
        let (gc, hedges_issued, hedges_won, slowdowns, slow_detected, suspects, recoveries) = {
            let b = self.fault.board();
            let gc = b.devices.gc_stats();
            (
                gc,
                b.hedges_issued,
                b.hedges_won,
                b.timeline.slowdowns(),
                b.slow_detected,
                b.suspects,
                b.recoveries,
            )
        };
        let wal = self
            .wal
            .as_deref()
            .map(Wal::wal_counters)
            .unwrap_or_default();
        MetricsSnapshot {
            admitted: l.admitted,
            overflow: l.overflow,
            delayed: s.delayed.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            served: l.served,
            write_settled: l.write_settled,
            write_lost: l.write_lost,
            gc_host_pages: gc.host_pages,
            gc_pages: gc.gc_pages,
            gc_relocated: gc.relocated,
            gc_erases: gc.erases,
            deadline_violations: w.violations.load(Ordering::Relaxed),
            guaranteed_violations: w.guaranteed_violations.load(Ordering::Relaxed),
            max_window_guaranteed: s.max_window_guaranteed.load(Ordering::Relaxed),
            max_window_total: s.max_window_total.load(Ordering::Relaxed),
            windows_sealed: s.windows_sealed.load(Ordering::Relaxed),
            degraded_windows: self.fault.degraded_windows(),
            fault_reroutes: self.fault.reroutes(),
            fault_redispatches: self.fault.redispatches(),
            fault_overloads: self.fault.overloads(),
            fault_lost: l.lost,
            fault_rejected: self.fault.unavailable_rejects(),
            hedges_issued,
            hedges_won,
            hedges_cancelled: l.hedge_wins,
            retries: self.fault.retries(),
            slowdowns,
            slow_detected,
            health_suspects: suspects,
            health_recoveries: recoveries,
            p50_latency_ns: self.hist.quantile_ns(0.5),
            p99_latency_ns: self.hist.quantile_ns(0.99),
            p999_latency_ns: self.hist.quantile_ns(0.999),
            max_latency_ns: self.hist.max_ns(),
            mean_latency_ns: self.hist.mean_ns(),
            wal_records: wal.records,
            wal_fsyncs: wal.fsyncs,
            wal_compactions: wal.compactions,
            wal_misordered: wal.misordered,
            wal_io_errors: wal.io_errors,
            recovered_admissions: s.recovered_admissions.load(Ordering::Relaxed),
            recovered_lost: s.recovered_lost.load(Ordering::Relaxed),
            wal_replay_records: s.replay_records.load(Ordering::Relaxed),
            wal_replay_duration_ns: s.replay_duration_ns.load(Ordering::Relaxed),
            wal_replay_truncated: s.replay_truncated.load(Ordering::Relaxed),
            tenants: self
                .registry
                .all_tenants()
                .iter()
                .map(|t| {
                    let c = &t.counters;
                    let l = c.ledger.snapshot();
                    TenantSnapshot {
                        tenant: t.id,
                        reserved: t.reserved,
                        live: t.is_live(),
                        admitted: l.admitted,
                        overflow: l.overflow,
                        delayed: c.delayed.load(Ordering::Relaxed),
                        rejected: c.rejected.load(Ordering::Relaxed),
                        violations: c.violations.load(Ordering::Relaxed),
                        served: l.served,
                        hedge_wins: l.hedge_wins,
                        lost: l.lost,
                        write_settled: l.write_settled,
                        write_lost: l.write_lost,
                    }
                })
                .collect(),
        }
    }

    /// Statistical overflow (§III-B2): past the deterministic limit, park
    /// the request best-effort while the projected violation probability
    /// `Q` stays below `ε`. True when parked; the caller admits it.
    ///
    /// A window whose `k` requests exceed its devices' summed capacities
    /// cannot be retrieved within it, whatever the table says, so `k` stops
    /// there (and at the table's end, past which `p_k` reads 1).
    fn try_overflow(&self, tenant: u64, window: u64, req: IoRequest, replicas: &[usize]) -> bool {
        let Some(stat) = self.stat.as_ref() else {
            return false;
        };
        let slack = f64::from_bits(stat.slack.load(Ordering::Relaxed));
        let admits = |k: usize, capacity: usize| {
            k <= stat.k_max.min(capacity)
                && StatisticalCounters::within(k, &stat.probabilities, slack)
        };
        // Every replica down: the statistical path refuses too. The window
        // is open (its `Full` verdict opened it), so it needs no spare.
        self.ring
            .add_overflow(window, tenant, req, replicas, &mut None, admits)
    }

    /// A window state off the free list, in a hold of `engine.dispatch` of
    /// its own: for a submit that opened a window and releases none, or
    /// opens a second one.
    fn restock(&self) -> Box<OpenWindow> {
        self.dispatch.lock().spare(&self.ring)
    }

    /// Count one admission — array ledger, tenant ledger, delay telemetry —
    /// then stage its record on the submitting handle's `stage` and hit
    /// the post-admit crash point. Runs before the outcome is returned, so
    /// with `fsync_batch = 1` the admission is durable strictly before its
    /// ack. `delayed_by` is the number of windows a guaranteed admission
    /// was pushed past its arrival.
    fn admit(
        &self,
        stage: Option<&Stage>,
        window: u64,
        tenant: &Tenant,
        entry: OpenEntry,
        delayed_by: u64,
    ) {
        let guaranteed = entry.guaranteed;
        self.ledger.admit(guaranteed);
        tenant.counters.ledger.admit(guaranteed);
        if delayed_by > 0 {
            let c = &tenant.counters;
            c.delayed.fetch_add(1, Ordering::Relaxed);
            c.delay_ns
                .fetch_add(delayed_by * self.cfg.qos.interval_ns, Ordering::Relaxed);
            self.submit_stats.delayed.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(stage) = stage {
            stage.log_admit(window, entry);
            // The record is durable (or at least staged); the submitter
            // has not seen the ack yet — the durable-unacked crash window.
            crash_point("post-admit-pre-ack");
        }
    }

    /// The one settle path: every admission leaves the system through
    /// here, exactly once, in this fixed order — WAL record (on the
    /// settling worker's `stage`; straight into the log from the seal,
    /// which has none), array ledger, tenant ledger, latency histogram and
    /// deadline audit (`done`: the dispatch and its finish time, for kinds
    /// that completed service). The record comes before the books it
    /// releases: `register` starts an id's next epoch once the tenant
    /// ledger shows nothing in flight, and its `Register` record drains
    /// every stage first, so this settle is in the log ahead of it.
    /// `tenant` is the admitting record if it still resolves; `tenant_id`
    /// always reaches the log.
    fn settle(
        &self,
        window: u64,
        tenant_id: u64,
        tenant: Option<&Tenant>,
        kind: SettleKind,
        done: Option<(&WorkItem, u64)>,
        stage: Option<&Stage>,
    ) {
        match (stage, &self.wal) {
            (Some(stage), _) => stage.log_settle(window, tenant_id, kind),
            (None, Some(wal)) => wal.log_settle(window, tenant_id, kind),
            (None, None) => {}
        }
        self.ledger.settle(kind);
        if let Some(t) = tenant {
            t.counters.ledger.settle(kind);
        }
        if let Some((item, finish)) = done {
            self.hist.record(finish.saturating_sub(item.req.arrival));
            if finish > (window + 2) * self.cfg.qos.interval_ns {
                self.worker_stats.violations.fetch_add(1, Ordering::Relaxed);
                // GC stalls and retry backoff legitimately push writes
                // late; the deadline promise the engine *keeps* is for
                // guaranteed reads, so a late write counts in the general
                // total only.
                if item.guaranteed && !kind.is_write() {
                    self.worker_stats
                        .guaranteed_violations
                        .fetch_add(1, Ordering::Relaxed);
                }
                if let Some(t) = tenant {
                    t.counters.violations.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Recovery: fold the replayed WAL state into the freshly built
    /// engine — the sealed-through floor, the still-open windows'
    /// admissions re-parked into the window ring, then tenants and the
    /// array ledger. An admission that cannot be re-parked is forfeited
    /// *in the WAL's state* first, and the books are restored from that
    /// state afterwards, so engine and log agree by construction. Returns
    /// how many admissions were re-parked.
    fn restore_state(&self) -> Result<u64, String> {
        let Some(wal) = &self.wal else {
            return Ok(0);
        };
        let state = wal.state_snapshot();
        self.dispatch.lock().sealed_through = state.sealed_through;
        let scheme = &self.cfg.qos.scheme;
        let t_ns = self.cfg.qos.interval_ns;
        let mut restored = 0u64;
        let mut max_target = state.sealed_through.saturating_sub(1);
        // Each window recovery opens gets a new state; the seals recycle them.
        let spare = &mut None;
        for (w, entries) in state.open.iter() {
            for e in entries {
                // A durable admission into a window the log also seals
                // would have been moved to `pending` by replay; an open
                // entry below the floor is defensive only — forfeit it as
                // lost rather than corrupt a reused ring slot.
                if w < state.sealed_through {
                    wal.forfeit_open(w, e.tenant, e.is_write);
                    continue;
                }
                let req = if e.is_write {
                    IoRequest::write_block(0, w * t_ns, 0, e.lbn)
                } else {
                    IoRequest::read_block(0, w * t_ns, 0, e.lbn)
                };
                let replicas = scheme.replicas(scheme.bucket_for_lbn(e.lbn));
                // Reservation was enforced when the admission was first
                // granted; re-parking must not second-guess it (the
                // tenant may have since departed), so pass an unbounded
                // reservation and fall back to the overflow slot. Writes
                // have no overflow slot (the statistical path never admits
                // them), so a write that no longer fits is forfeited.
                let ok = (e.guaranteed
                    && matches!(
                        self.ring
                            .try_admit(w, e.tenant, usize::MAX, req, replicas, spare),
                        AdmitResult::Admitted | AdmitResult::AdmittedSlow
                    ))
                    || self
                        .ring
                        .add_overflow(w, e.tenant, req, replicas, spare, |_, _| true);
                if ok {
                    restored += 1;
                    max_target = max_target.max(w);
                } else {
                    // Unreachable short of every replica being down at
                    // restart; settled lost (a write `write_lost`), never
                    // dropped silently.
                    wal.forfeit_open(w, e.tenant, e.is_write);
                }
            }
        }
        self.max_target.fetch_max(max_target, Ordering::AcqRel);
        // The books, forfeits included. Rejections, violations, delay
        // totals and the latency histogram are non-durable: they restart
        // at zero.
        let state = wal.state_snapshot();
        for (&id, t) in &state.tenants {
            self.registry
                .restore_record(id, t)
                .map_err(|e| format!("restoring tenant {id}: {e}"))?;
        }
        self.ledger.restore(&state.ledger);
        let s = &self.submit_stats;
        s.delayed.store(state.delayed, Ordering::Relaxed);
        s.recovered_lost.store(state.crash_lost, Ordering::Relaxed);
        s.windows_sealed
            .store(state.sealed_through, Ordering::Relaxed);
        // Every durable hedge win cancelled exactly one primary.
        self.fault.board().hedges_won = state.ledger.hedge_wins;
        Ok(restored)
    }
}

/// A per-thread submission endpoint. Not `Sync` by design: each submitter
/// thread gets its own handle ([`QosServer::handle`]), and arrival times
/// must be non-decreasing per handle (late arrivals are clamped to the
/// handle's watermark window).
pub struct SubmitterHandle {
    engine: Arc<Engine>,
    /// This handle's entry in `DispatchState::watermarks`.
    slot: usize,
    /// This handle's own copy of its entry, which it alone writes: a
    /// submit reads this one and takes no lock.
    watermark: Cell<u64>,
    /// This thread's cache of the tenant records it submits for.
    view: TenantView,
    /// This handle's admissions on their way to the log (`None` without a
    /// WAL); see [`SubmitterHandle::release`].
    stage: Option<Stage>,
    /// The window state this handle opens its next window with. `release`
    /// restocks it in the hold of `engine.dispatch` it takes anyway, so a
    /// submit that opens a window and then releases one takes no lock more.
    spare: Cell<Option<Box<OpenWindow>>>,
}

impl SubmitterHandle {
    /// Let the dispatcher past this handle: enter `watermark` (`u64::MAX`
    /// closes the handle) and seal what that released.
    ///
    /// With a log, every `Admit(w)` this handle staged has to be in the log
    /// before any thread's seal logs `Seal(w)`, and the new watermark is
    /// what allows that seal. So entry, seal and drain share one hold of
    /// the dispatch lock — no other seal fits between them — and the stage
    /// rides the first `Seal`'s hold of the WAL lock — the workers' stages
    /// with it — or is drained on its own when a slower handle still holds
    /// the frontier back. The same hold restocks the handle's spare window
    /// state, or takes it back from a handle that closes.
    fn release(&self, watermark: u64) {
        let engine = &*self.engine;
        let mut ds = engine.dispatch.lock();
        ds.watermarks[self.slot] = watermark;
        engine.seal_ready(&mut ds, self.stage.as_ref());
        if let Some(stage) = &self.stage {
            stage.drain();
        }
        let spare = self.spare.take();
        if watermark == u64::MAX {
            if let Some(w) = spare {
                ds.spares.push(w);
            }
        } else {
            let spare = spare.unwrap_or_else(|| ds.spare(&engine.ring));
            self.spare.set(Some(spare));
        }
    }

    /// Publish `window`, higher than the current watermark, and seal what
    /// that releases.
    fn raise_watermark(&self, window: u64) {
        self.watermark.set(window);
        self.release(window);
    }

    /// Submit one 8 KiB block read for `tenant` at simulated time
    /// `arrival_ns`. Admission, replica assignment, dispatch and
    /// backpressure all happen inside this call.
    pub fn submit(&mut self, tenant: u64, lbn: u64, arrival_ns: u64) -> SubmitOutcome {
        self.submit_op(tenant, lbn, arrival_ns, IoOp::Read)
    }

    /// Submit one 8 KiB block **write**. A write is admitted against *all*
    /// `c` replicas of its block — feasibility charges every replica's
    /// remaining capacity — and at seal it fans out to one dispatch per
    /// replica. The logical write settles `write_settled` only when every
    /// copy lands (all-must-settle); losing any copy to a fail-stopped
    /// device past the bounded retry budget settles it `write_lost`
    /// instead. Writes never ride the
    /// statistical overflow path and are never hedged.
    pub fn submit_write(&mut self, tenant: u64, lbn: u64, arrival_ns: u64) -> SubmitOutcome {
        self.submit_op(tenant, lbn, arrival_ns, IoOp::Write)
    }

    /// Shared admission path behind [`SubmitterHandle::submit`] (reads) and
    /// [`SubmitterHandle::submit_write`] (replica fan-out writes). The
    /// engine does not number requests: each carries its tenant and LBN,
    /// and its `IoRequest::id` is 0.
    pub fn submit_op(&mut self, tenant: u64, lbn: u64, arrival_ns: u64, op: IoOp) -> SubmitOutcome {
        let engine = &*self.engine;
        let _quiesce = engine.quiesce.read();
        if engine.shutdown.load(Ordering::Acquire) {
            return SubmitOutcome::Rejected(RejectReason::ServerStopping);
        }
        let t_ns = engine.cfg.qos.interval_ns;
        // The published watermark is at or below `window`, so the
        // dispatcher will not seal `window` or anything after it while this
        // request looks for a place there.
        let watermark = self.watermark.get();
        let window = (arrival_ns / t_ns).max(watermark);
        // The seal target is a function of the open handles' watermarks
        // alone: a submit that stays in its window cannot move it, so only
        // one that moved past this handle's watermark publishes the new one
        // and seals — once the request is in, which keeps the handle's
        // release of the earlier windows and their sealing together.
        let advanced = window > watermark;

        // Departed records stay resolvable for settlement; admission must
        // not see them.
        let resolved = self.view.resolve(&engine.registry, tenant);
        let Some(tenant_rec) = resolved.filter(|t| t.is_live()) else {
            engine.submit_stats.rejected.fetch_add(1, Ordering::Relaxed);
            if advanced {
                self.raise_watermark(window);
            }
            return SubmitOutcome::Rejected(RejectReason::UnknownTenant);
        };
        let scheme = &engine.cfg.qos.scheme;
        let replicas = scheme.replicas(scheme.bucket_for_lbn(lbn));
        let req = match op {
            // Final device chosen at window seal (writes fan out to all).
            IoOp::Read => IoRequest::read_block(0, arrival_ns, 0, lbn),
            IoOp::Write => IoRequest::write_block(0, arrival_ns, 0, lbn),
        };
        let is_write = op == IoOp::Write;

        let horizon = match tenant_rec.policy {
            OverloadPolicy::Delay => engine.cfg.delay_horizon,
            OverloadPolicy::Reject => 0,
        };
        // (windows past arrival, admitted under the guarantee?)
        let mut admitted_at: Option<(u64, bool)> = None;
        let mut any_full = false;
        let mut spare = self.spare.take();
        for k in 0..=horizon {
            // Only a second window opened in one submit finds it empty.
            if spare.is_none() {
                spare = Some(engine.restock());
            }
            match engine.ring.try_admit(
                window + k,
                tenant,
                tenant_rec.reserved,
                req,
                replicas,
                &mut spare,
            ) {
                AdmitResult::Admitted => {
                    admitted_at = Some((k, true));
                    break;
                }
                AdmitResult::Full => {
                    any_full = true;
                    // The statistical overflow path trades a deadline
                    // guarantee for admission — meaningless for a write,
                    // whose fan-out must charge real capacity on every
                    // replica. Writes shed at admission instead.
                    if k == 0 && !is_write && engine.try_overflow(tenant, window, req, replicas) {
                        admitted_at = Some((0, false));
                        break;
                    }
                }
                // Every replica is on a scorer-condemned (but live) device:
                // the data is readable, just slow. The ring parked the
                // request without a deadline promise — account it on the
                // overflow (best-effort) path rather than reject readable
                // data.
                AdmitResult::AdmittedSlow => {
                    admitted_at = Some((k, false));
                    break;
                }
                // Every replica down for this window; a later window only
                // helps if a recovery is scheduled inside the horizon.
                AdmitResult::Unavailable => {}
            }
        }
        let outcome = match admitted_at {
            Some((k, guaranteed)) => {
                let window = window + k;
                // Only a guaranteed admission counts as delayed; a
                // best-effort one parked in a later window promised nothing.
                let delayed_by = if guaranteed { k } else { 0 };
                let entry = OpenEntry {
                    tenant,
                    lbn,
                    guaranteed,
                    delayed: delayed_by > 0,
                    is_write,
                };
                engine.admit(self.stage.as_ref(), window, tenant_rec, entry, delayed_by);
                engine.max_target.fetch_max(window, Ordering::AcqRel);
                match (guaranteed, k) {
                    (false, _) => SubmitOutcome::Overflow { window },
                    (true, 0) => SubmitOutcome::Admitted { window },
                    (true, delayed_windows) => SubmitOutcome::Delayed {
                        window,
                        delayed_windows,
                    },
                }
            }
            None => {
                tenant_rec.counters.rejected.fetch_add(1, Ordering::Relaxed);
                engine.submit_stats.rejected.fetch_add(1, Ordering::Relaxed);
                let reason = if any_full {
                    match tenant_rec.policy {
                        OverloadPolicy::Delay => RejectReason::HorizonExhausted,
                        OverloadPolicy::Reject => RejectReason::WindowFull,
                    }
                } else {
                    // Never parked on a dead device: refused outright.
                    engine.fault.note_unavailable_reject();
                    RejectReason::ReplicasUnavailable
                };
                SubmitOutcome::Rejected(reason)
            }
        };
        if spare.is_none() && !advanced {
            // A window opened here: the next in-window submit takes no lock.
            spare = Some(engine.restock());
        }
        self.spare.set(spare);
        if advanced {
            self.raise_watermark(window);
        }
        outcome
    }

    /// Apply a live health transition from this submitter thread (see
    /// [`QosServer::inject`]).
    pub fn inject(&self, device: usize, kind: FaultKind) -> Result<(), String> {
        self.engine.inject(device, kind)
    }

    /// Advance this handle's watermark to `arrival_ns`'s window without
    /// submitting anything. A multi-array router calls this on the arrays a
    /// handle is *not* currently routing to, so their dispatchers keep
    /// sealing windows even while all traffic goes elsewhere (an open
    /// handle whose watermark never moves would otherwise pin every window
    /// at or above it open forever).
    pub fn advance_to(&mut self, arrival_ns: u64) {
        let engine = &self.engine;
        if engine.shutdown.load(Ordering::Acquire) {
            return;
        }
        let window = arrival_ns / engine.cfg.qos.interval_ns;
        if window > self.watermark.get() {
            self.raise_watermark(window);
        }
    }

    /// Register a tenant from this submitter thread (see
    /// [`QosServer::register`]); a migration target re-registers the
    /// drained tenant through the destination array's handle.
    pub fn register(
        &self,
        tenant: u64,
        reserved: usize,
        policy: OverloadPolicy,
    ) -> Result<Arc<Tenant>, RegisterError> {
        self.engine.registry.register(tenant, reserved, policy)
    }

    /// Deregister a tenant from this submitter thread (see
    /// [`QosServer::deregister`]). The reservation frees immediately;
    /// in-flight admissions still settle against the departed record.
    pub fn deregister(&self, tenant: u64) -> Option<Arc<Tenant>> {
        self.engine.registry.deregister(tenant)
    }

    /// Close the handle: the engine may seal all windows this handle could
    /// still have reached. Dropping the handle does the same.
    pub fn close(self) {}
}

impl Drop for SubmitterHandle {
    fn drop(&mut self) {
        self.release(u64::MAX);
    }
}

/// Worker `w` serves every device `d` with `d % workers == w` and its
/// batches FCFS, each in seal order — which per device is window order,
/// then seal order, because the dispatcher is serialized and sends a
/// window's batches before it seals the next. The devices' models are on
/// the fault plane's board ([`FaultPlane::board`]); only `d`'s worker
/// submits primary work to `d`. A worker holds the board once per served
/// read, hedged or not, and once per write copy, and reads the fault
/// timeline in that hold.
///
/// # Hedged reads (fail-slow tolerance)
///
/// Each dispatch first runs on its assigned device's model. If the
/// projected completion crosses the device's adaptive hedge threshold — or
/// misses the interval deadline outright — the worker speculatively
/// re-issues the read on alternate replicas (earliest estimated finish
/// first), bounded by [`RETRY_LIMIT`] attempts spaced [`RETRY_BACKOFF_NS`]
/// apart. First completion wins: losing attempts are rolled back off the
/// frontier and a winning hedge cancels the primary's reservation, so
/// speculative capacity is reclaimed exactly.
#[allow(
    clippy::needless_pass_by_value,
    reason = "thread entry: owns its channels and engine handle"
)]
fn worker_loop(
    rx: Receiver<WorkMsg>,
    home: Sender<Box<Batch>>,
    engine: Arc<Engine>,
    stage: Option<Stage>,
) {
    let mut local = WorkerLocal {
        view: TenantView::new(),
        stage,
    };
    // The settles this worker stages ride the next seal's hold of the log
    // (`Wal::log_seal_behind` collects them), so while batches keep coming
    // the worker never takes the WAL lock. With no seal in sight — about to
    // park, or done — it takes them there itself: an idle server's log is
    // whole one linger after its last batch, and `finish` / `halt`, which
    // join this thread, read a whole log.
    while let Ok(WorkMsg::Batch(mut batch)) =
        rx.recv_idle(|| local.stage.iter().for_each(Stage::drain_idle))
    {
        let window = batch.window;
        for item in &batch.items {
            if let Some(sink) = &item.write {
                serve_write_copy(&engine, &mut local, window, item, sink);
                continue;
            }
            // Admitted into window `t`, the item executes during `t + 1`.
            let (completion, hedged) = serve_read(&engine, item, window + 1);
            // Exactly one settlement per read: the winning hedge cancels
            // the primary, otherwise the primary stood.
            let (kind, finish) = match hedged {
                Some(finish) => (SettleKind::HedgeWin, finish),
                None => (SettleKind::Served, completion.finish),
            };
            item.settle(&engine, &mut local, window, kind, Some(finish));
            // Seeded mutant: the cancelled primary settles as well.
            if kind == SettleKind::HedgeWin && cfg!(feature = "model-mutant-double-settle") {
                let primary = Some(completion.finish);
                item.settle(&engine, &mut local, window, SettleKind::Served, primary);
            }
        }
        // Home to the seal; clearing drops only clones of the sinks it keeps.
        batch.items.clear();
        let _ = home.send(batch);
    }
    local.stage.iter().for_each(Stage::drain);
    #[cfg(test)]
    engine.fault.note_worker_locks(fqos_sync::taken());
}

/// Serve one replica copy of a fan-out write on its assigned device, then
/// fold the outcome into the logical write's shared [`WriteSink`].
///
/// Unlike reads, a write copy may be *dispatched at* a device that
/// fail-stopped between admission and execution (the seal deliberately
/// fans writes to every replica so surviving copies keep the data's
/// redundancy). The copy retries across the bounded backoff budget
/// ([`RETRY_LIMIT`] re-issues spaced [`RETRY_BACKOFF_NS`] apart) waiting for a
/// scheduled recovery; a copy still facing a dead device after the last
/// attempt is lost, and the logical write settles `write_lost`. The
/// attempts run in one hold of the board, each reading the timeline at its
/// issue time there, whether one reaches the device or none does. Writes
/// are **never hedged**: a speculative duplicate of a write would either
/// fork the replica state or double-program the FTL — the fan-out itself
/// is the redundancy mechanism.
fn serve_write_copy(
    engine: &Engine,
    local: &mut WorkerLocal,
    window: u64,
    item: &WorkItem,
    sink: &WriteSink,
) {
    let d = item.req.device;
    let t_ns = engine.cfg.qos.interval_ns;
    let exec_window = window + 1;
    let mut outcome: Option<Completion> = None;
    let mut retries = 0u64;
    let mut board = engine.fault.board();
    for attempt in 0..=RETRY_LIMIT {
        let issue = exec_window * t_ns + attempt * RETRY_BACKOFF_NS;
        let issue_window = issue / t_ns;
        if board.timeline.mask_at(issue_window) >> d & 1 == 1 {
            // Fail-stopped at this attempt's issue time; back off and
            // re-check (a scheduled recovery may land mid-interval).
            if attempt < RETRY_LIMIT {
                retries += 1;
            }
            continue;
        }
        // The service sample (program + in-line GC stall) feeds the health
        // scorer — a GC storm looks exactly like a fail-slow episode from
        // the outside, which is the point: hedged reads route around it.
        let factor = board.timeline.slow_factor_at(d, issue_window);
        outcome = Some(board.serve(&item.req, issue, factor, exec_window));
        break;
    }
    drop(board);
    for _ in 0..retries {
        engine.fault.note_retry();
    }
    settle_write_copy(engine, local, window, item, sink, outcome);
}

/// Fold one copy's outcome into the logical write's sink; the last copy to
/// land settles the write exactly once.
fn settle_write_copy(
    engine: &Engine,
    local: &mut WorkerLocal,
    window: u64,
    item: &WorkItem,
    sink: &WriteSink,
    outcome: Option<Completion>,
) {
    match &outcome {
        Some(c) => {
            sink.latest_finish.fetch_max(c.finish, Ordering::Relaxed);
        }
        None => {
            sink.lost.store(true, Ordering::Relaxed);
        }
    }
    if sink.remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
        return; // copies still outstanding; they will settle
    }
    // Last copy: settle the logical write. It is only as done as its
    // slowest replica, so that finish is what the deadline audit sees.
    if sink.lost.load(Ordering::Relaxed) {
        item.settle(engine, local, window, SettleKind::WriteLost, None);
    } else {
        let finish = Some(sink.latest_finish.load(Ordering::Relaxed));
        item.settle(engine, local, window, SettleKind::WriteSettled, finish);
    }
}

/// A hedge candidate: an alternate replica of the dispatched block.
#[derive(Clone, Copy, Default)]
struct HedgeCandidate {
    dev: usize,
    /// What the scheduler *believes* one block costs there (scorer EWMA).
    believed_ns: u64,
    /// What it *actually* costs (scripted degradation ground truth).
    actual_ns: u64,
    tried: bool,
}

/// Serve one read on its assigned device and decide whether to hedge it,
/// in one hold of the board, so that the frontier restore is exact
/// (nothing else moves in between) and the candidates are judged on the
/// timeline the read was served under. Returns the primary's completion
/// and the winning hedge's finish time, or `None` when the primary stood
/// (no trigger, no candidate, or nothing beat it); the caller settles the
/// read exactly once either way.
fn serve_read(engine: &Engine, item: &WorkItem, exec_window: u64) -> (Completion, Option<u64>) {
    let d = item.req.device;
    let cfg = &engine.cfg;
    let exec_start = exec_window * cfg.qos.interval_ns;
    let deadline = exec_start + cfg.qos.interval_ns;

    // The candidates: the block's other replicas live this interval, in
    // device order. A silently slow replica *is* a candidate — the scorer's
    // belief drives the choice. On the stack: a hedge allocates nothing.
    let scheme = &cfg.qos.scheme;
    let replicas = scheme.replicas(scheme.bucket_for_lbn(item.req.lbn));
    let others = replicas.iter().fold(0u64, |m, &a| m | 1 << a) & !(1u64 << d);
    let mut board = engine.fault.board();
    let mut live = if cfg.hedge_enabled {
        others & !board.timeline.mask_at(exec_window)
    } else {
        0
    };
    let mut cands = [HedgeCandidate::default(); MAX_COPIES - 1];
    let mut n_cands = 0;
    while live != 0 {
        let a = live.trailing_zeros() as usize;
        live &= live - 1;
        let slow = u64::from(board.timeline.slow_factor_at(a, exec_window));
        cands[n_cands] = HedgeCandidate {
            dev: a,
            actual_ns: cfg.qos.service_ns * slow,
            ..HedgeCandidate::default()
        };
        n_cands += 1;
    }
    let cands = &mut cands[..n_cands];

    // The threshold is read before the sample goes in, so that an outlier
    // cannot vouch for itself.
    let threshold = board.hedge_threshold(d);
    let factor = board.timeline.slow_factor_at(d, exec_window);
    let completion = board.serve(&item.req, exec_start, factor, exec_window);
    // Trigger on evidence of *device* trouble — the service component
    // crossing the adaptive threshold — or on a projected deadline miss
    // (which also catches pathological queueing). Queueing below the
    // deadline is the scheduler's normal business and never hedges.
    let service_lat = completion.finish.saturating_sub(completion.service_start);
    let trigger = threshold.is_some_and(|thr| service_lat > thr) || completion.finish > deadline;
    if !trigger || cands.is_empty() {
        return (completion, None);
    }
    for c in cands.iter_mut() {
        c.believed_ns = board.service_estimate(c.dev);
    }

    let mut retries = 0u64;
    // Winning hedge, if any: (device, service_start, finish).
    let mut winner: Option<(usize, u64, u64)> = None;
    let mut winner_finish = completion.finish;
    let mut placed = [(0usize, 0u64, 0u64); RETRY_LIMIT as usize]; // (dev, prev_busy, finish)
    let mut n_placed = 0;
    for attempt in 1..=RETRY_LIMIT {
        if winner_finish <= deadline {
            break;
        }
        // Attempt 1 (the hedge) fires immediately off the primary's
        // projection — completions are known at submit in simulated
        // time, so the speculative read starts with the window's
        // execution phase. Each later attempt models a re-issue after
        // one more backoff period.
        let issue = exec_start + (attempt - 1) * RETRY_BACKOFF_NS;
        // A hedge starts after the primary work its target has
        // accepted up to this window AND after every speculative read
        // already parked there.
        let devs = &board.devices;
        let free_at = |dev: usize| {
            devs.busy_as_of(dev, exec_window)
                .max(devs.spec[dev])
                .max(issue)
        };
        let Some(ci) = (0..cands.len())
            .filter(|&i| !cands[i].tried)
            .min_by_key(|&i| free_at(cands[i].dev) + cands[i].believed_ns)
        else {
            break;
        };
        let dev = cands[ci].dev;
        let start = free_at(dev);
        if start + cands[ci].believed_ns >= winner_finish {
            // Nothing is believed to beat the current winner; further
            // speculation only burns replica bandwidth.
            break;
        }
        cands[ci].tried = true;
        let fin = start + cands[ci].actual_ns;
        placed[n_placed] = (dev, board.devices.spec[dev], fin);
        n_placed += 1;
        board.devices.spec[dev] = fin;
        if attempt == 1 {
            board.hedges_issued += 1;
        } else {
            retries += 1;
        }
        if fin < winner_finish {
            winner_finish = fin;
            winner = Some((dev, start, fin));
        }
    }
    // First-completion-wins: roll every losing attempt back off the
    // speculative frontier (reverse order restores prior values).
    for &(dev, prev, fin) in placed[..n_placed].iter().rev() {
        if winner.is_some_and(|(wd, _, wf)| wd == dev && wf == fin) {
            continue;
        }
        if board.devices.spec[dev] == fin {
            board.devices.spec[dev] = prev;
        }
    }
    for _ in 0..retries {
        engine.fault.note_retry();
    }
    let Some((wdev, start, fin)) = winner else {
        return (completion, None);
    };
    // A winning hedge cancels the primary, reclaiming its slot on the
    // primary frontier: only this worker submits to `d`, so the primary
    // is still its last submission. The hedge's service latency is a
    // health sample for the replica that absorbed it.
    board.devices.models[d].cancel(&completion);
    board.observe(wdev, fin - start, exec_window);
    board.hedges_won += 1;
    (completion, Some(fin))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AssignmentMode;
    use crate::layout::{assert_one_side_per_line, span, Side};
    use crate::window::Parked;
    use crate::Verdict;
    use fqos_core::QosConfig;

    fn server() -> QosServer {
        QosServer::new(ServerConfig::new(QosConfig::paper_9_3_1())).unwrap()
    }

    #[test]
    fn single_request_round_trip() {
        let s = server();
        s.register(1, 1, OverloadPolicy::Delay).unwrap();
        let mut h = s.handle();
        assert_eq!(h.submit(1, 7, 10), SubmitOutcome::Admitted { window: 0 });
        h.close();
        let m = s.finish();
        assert_eq!(m.admitted, 1);
        assert_eq!(m.served, 1);
        assert_eq!(m.deadline_violations, 0);
        assert_eq!(m.verdict(), Verdict::CLEAN);
        assert_eq!(m.max_window_guaranteed, 1);
        // One interval of queueing + service, never more.
        let t = BASE_T;
        assert!(
            m.max_latency_ns <= 2 * t,
            "{} > {}",
            m.max_latency_ns,
            2 * t
        );
    }

    const BASE_T: u64 = 133_000;

    #[test]
    fn dropping_a_handle_mid_window_drains_cleanly() {
        // Companion to tests/model.rs `handle_drop_mid_window_conserves_requests`:
        // one handle drops while another still holds the window open, then
        // the survivor keeps admitting into the same window.
        let s = server();
        s.register(1, 2, OverloadPolicy::Delay).unwrap();
        let mut ha = s.handle();
        let mut hb = s.handle();
        assert!(ha.submit(1, 0, 0).is_admitted());
        drop(ha); // hb's watermark (0) keeps window 0 open across this seal
        assert!(hb.submit(1, 1, 0).is_admitted());
        assert!(hb.submit(1, 1, BASE_T).is_admitted());
        drop(hb);
        let m = s.finish();
        assert_eq!(m.admitted_total(), 3);
        assert_eq!(m.served, 3, "drain may not strand admitted requests");
        assert_eq!(m.verdict(), Verdict::CLEAN);
    }

    #[test]
    fn unknown_tenant_is_rejected() {
        let s = server();
        let mut h = s.handle();
        assert_eq!(
            h.submit(9, 0, 0),
            SubmitOutcome::Rejected(RejectReason::UnknownTenant)
        );
        drop(h);
        assert_eq!(s.finish().rejected, 1);
    }

    #[test]
    fn zero_accesses_is_a_config_error() {
        let mut qos = QosConfig::paper_9_3_1();
        qos.accesses = 0;
        let err = QosServer::new(ServerConfig::new(qos)).err();
        assert!(err.is_some_and(|e| e.contains("M = 0")));
    }

    #[test]
    fn delay_policy_spreads_a_burst_over_windows() {
        let s = server();
        // Reservation 2 per interval; a burst of 6 in window 0 spreads over
        // three windows.
        s.register(1, 2, OverloadPolicy::Delay).unwrap();
        let mut h = s.handle();
        let outcomes: Vec<SubmitOutcome> = (0..6).map(|i| h.submit(1, i, 0)).collect();
        assert_eq!(outcomes[0], SubmitOutcome::Admitted { window: 0 });
        assert_eq!(outcomes[1], SubmitOutcome::Admitted { window: 0 });
        assert_eq!(
            outcomes[2],
            SubmitOutcome::Delayed {
                window: 1,
                delayed_windows: 1
            }
        );
        assert_eq!(
            outcomes[5],
            SubmitOutcome::Delayed {
                window: 2,
                delayed_windows: 2
            }
        );
        drop(h);
        let m = s.finish();
        assert_eq!(m.admitted, 6);
        assert_eq!(m.delayed, 4);
        assert_eq!(m.served, 6);
        assert_eq!(m.verdict(), Verdict::CLEAN);
        assert_eq!(m.max_window_guaranteed, 2);
    }

    #[test]
    fn reject_policy_drops_excess() {
        let s = server();
        s.register(1, 1, OverloadPolicy::Reject).unwrap();
        let mut h = s.handle();
        assert!(h.submit(1, 0, 0).is_admitted());
        assert_eq!(
            h.submit(1, 1, 0),
            SubmitOutcome::Rejected(RejectReason::WindowFull)
        );
        drop(h);
        let m = s.finish();
        assert_eq!(m.admitted, 1);
        assert_eq!(m.rejected, 1);
        assert_eq!(m.served, 1);
    }

    #[test]
    fn windows_advance_with_arrival_time() {
        let s = server();
        s.register(1, 1, OverloadPolicy::Delay).unwrap();
        let mut h = s.handle();
        for w in 0..5u64 {
            assert_eq!(
                h.submit(1, w, w * BASE_T),
                SubmitOutcome::Admitted { window: w }
            );
        }
        drop(h);
        let m = s.finish();
        assert_eq!(m.admitted, 5);
        assert_eq!(m.served, 5);
        assert_eq!(m.verdict(), Verdict::CLEAN);
        assert_eq!(m.max_window_guaranteed, 1);
        assert!(m.windows_sealed >= 5);
    }

    #[test]
    fn late_arrivals_clamp_to_the_watermark() {
        let s = server();
        s.register(1, 2, OverloadPolicy::Delay).unwrap();
        let mut h = s.handle();
        assert!(h.submit(1, 0, 10 * BASE_T).is_admitted());
        // Arrival time runs backwards; the handle clamps to window 10.
        let out = h.submit(1, 1, 0);
        assert_eq!(out, SubmitOutcome::Admitted { window: 10 });
        drop(h);
        let m = s.finish();
        assert_eq!(m.served, 2);
    }

    #[test]
    fn multi_threaded_submitters_never_violate_guarantees() {
        let s = QosServer::new(
            ServerConfig::new(QosConfig::paper_9_3_1())
                .with_workers(4)
                .with_queue_depth(8),
        )
        .unwrap();
        // Full reservation: 2 + 2 + 1 = 5 = S(1).
        for (t, r) in [(1u64, 2usize), (2, 2), (3, 1)] {
            s.register(t, r, OverloadPolicy::Delay).unwrap();
        }
        let server = std::sync::Arc::new(s);
        // Every handle exists before the first submitter runs: a handle
        // made later starts at the windows already sealed, and its window-0
        // arrivals land there instead, one window further each, until the
        // delay horizon runs out.
        let handles: Vec<_> = [(1u64, 2u64), (2, 2), (3, 1)]
            .into_iter()
            .map(|(tenant, per_window)| (tenant, per_window, server.handle()))
            .collect();
        let threads: Vec<_> = handles
            .into_iter()
            .map(|(tenant, per_window, mut h)| {
                std::thread::spawn(move || {
                    let mut admitted = 0u64;
                    for w in 0..200u64 {
                        for i in 0..per_window {
                            let lbn = tenant * 1000 + w * 10 + i;
                            if h.submit(tenant, lbn, w * BASE_T + i).is_admitted() {
                                admitted += 1;
                            }
                        }
                    }
                    admitted
                })
            })
            .collect();
        let admitted: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(admitted, 200 * 5);
        let server = std::sync::Arc::into_inner(server).unwrap();
        let m = server.finish();
        assert_eq!(m.served, 1000);
        assert_eq!(m.verdict(), Verdict::CLEAN);
        assert!(m.max_window_guaranteed <= 5);
    }

    #[test]
    fn overflow_requires_epsilon() {
        // ε = 0: a full window under Reject policy refuses; nothing ever
        // takes the overflow path.
        let s = server();
        s.register(1, 5, OverloadPolicy::Reject).unwrap();
        let mut h = s.handle();
        for i in 0..5 {
            assert!(h.submit(1, i, 0).is_admitted());
        }
        assert!(!h.submit(1, 5, 0).is_admitted());
        drop(h);
        let m = s.finish();
        assert_eq!(m.overflow, 0);
        assert_eq!(m.max_window_total, 5);
    }

    #[test]
    fn statistical_overflow_admits_past_the_limit() {
        let cfg = ServerConfig::new(QosConfig::paper_9_3_1().with_epsilon(0.3));
        let s = QosServer::new(cfg).unwrap();
        s.register(1, 5, OverloadPolicy::Reject).unwrap();
        let mut h = s.handle();
        // Build a history of small intervals so Q stays below ε.
        for w in 0..50u64 {
            assert!(h.submit(1, w, w * BASE_T).is_admitted());
        }
        // Now burst past the deterministic limit in one window.
        let w = 50u64;
        let mut overflow = 0;
        for i in 0..8u64 {
            match h.submit(1, 100 + i, w * BASE_T) {
                SubmitOutcome::Overflow { .. } => overflow += 1,
                SubmitOutcome::Admitted { .. } => {}
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(overflow, 3, "5 guaranteed + 3 overflow");
        drop(h);
        let m = s.finish();
        assert_eq!(m.overflow, 3);
        assert!(m.max_window_total > m.max_window_guaranteed);
        // Overflow stacked past the deadline may hedge onto a sibling
        // replica; either way each admission completes exactly once.
        assert_eq!(m.completed(), 58);
        // Overflow may violate; the guarantee only covers deterministic
        // admissions from un-spilled windows — here there is no later
        // window, so guaranteed violations stay zero.
        assert_eq!(m.verdict(), Verdict::CLEAN);
    }

    #[test]
    fn overflow_stops_at_the_window_capacity() {
        // (9,3,1) at M = 2: nine devices of two accesses hold 18 requests,
        // so no retrieval of a 19th fits the window, whatever the table
        // prices it at. ε = 1 over a history of one-request windows keeps
        // `Q` below ε throughout.
        let qos = QosConfig::paper_9_3_1().with_accesses(2).with_epsilon(1.0);
        let s = QosServer::new(ServerConfig::new(qos)).unwrap();
        s.register(1, 14, OverloadPolicy::Reject).unwrap();
        let t = s.config().qos.interval_ns;
        let mut h = s.handle();
        for w in 0..50u64 {
            assert!(h.submit(1, w, w * t).is_admitted());
        }
        let w = 50u64;
        // Fourteen distinct buckets fill the reservation; the rest of the
        // burst can only overflow.
        let outcomes: Vec<_> = (0..30u64).map(|lbn| h.submit(1, lbn, w * t)).collect();
        assert!(outcomes[..14]
            .iter()
            .all(|o| *o == SubmitOutcome::Admitted { window: w }));
        assert!(outcomes[14..18]
            .iter()
            .all(|o| *o == SubmitOutcome::Overflow { window: w }));
        assert!(outcomes[18..]
            .iter()
            .all(|o| *o == SubmitOutcome::Rejected(RejectReason::WindowFull)));
        drop(h);
        let m = s.finish();
        assert_eq!((m.max_window_guaranteed, m.max_window_total), (14, 18));
    }

    /// An in-window read that ends as an overflow admission takes one lock
    /// more than one admitted under the guarantee: the slot hold that
    /// counts the window, prices it against the published slack and parks.
    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "lock counts compile out of release")]
    fn an_overflow_admission_takes_one_slot_hold_more_than_a_guaranteed_one() {
        let cfg = ServerConfig::new(QosConfig::paper_9_3_1().with_epsilon(1.0));
        let s = QosServer::new(cfg).unwrap();
        s.register(1, 5, OverloadPolicy::Reject).unwrap();
        let mut h = s.handle();
        // Opens window 0 and warms the handle's view of tenant 1.
        assert!(h.submit(1, 0, 0).is_admitted());
        let mut counted = |lbn| {
            let before = fqos_sync::taken();
            let outcome = h.submit(1, lbn, 0);
            (outcome, fqos_sync::taken() - before)
        };
        let (admitted, guaranteed) = counted(1);
        assert_eq!(admitted, SubmitOutcome::Admitted { window: 0 });
        for lbn in 2..5 {
            assert_eq!(counted(lbn).0, SubmitOutcome::Admitted { window: 0 });
        }
        let (overflow, parked) = counted(5);
        assert_eq!(overflow, SubmitOutcome::Overflow { window: 0 });
        assert_eq!(
            parked,
            guaranteed + 1,
            "{guaranteed} locks for a guaranteed read"
        );
        drop(h);
        assert_eq!(s.finish().overflow, 1);
    }

    /// Window states the engine built: at rest — every window sealed and
    /// every handle closed — the free list holds each one.
    fn window_states(s: &QosServer) -> usize {
        s.engine.dispatch.lock().spares.len()
    }

    #[test]
    fn a_steady_submitter_cycles_three_window_states_at_most() {
        // `steady_read`'s shape: 14 distinct buckets a window, four tenants
        // in turn, one submitter.
        let cfg = ServerConfig::new(QosConfig::paper_9_3_1().with_accesses(2)).with_workers(1);
        let s = QosServer::new(cfg).unwrap();
        for (tenant, reserved) in [(1, 4), (2, 4), (3, 3), (4, 3)] {
            s.register(tenant, reserved, OverloadPolicy::Delay).unwrap();
        }
        let t = s.config().qos.interval_ns;
        let mut h = s.handle();
        for w in 0..4_000u64 {
            for i in 0..14u64 {
                let lbn = (w * 5 + i) % 36 + 36 * w;
                let out = h.submit(1 + i % 4, lbn, w * t + i);
                assert_eq!(out, SubmitOutcome::Admitted { window: w });
            }
        }
        drop(h);
        let built = window_states(&s);
        assert!((1..=3).contains(&built), "{built} window states");
        let m = s.finish();
        assert_eq!((m.admitted, m.windows_sealed), (56_000, 4_000));
    }

    #[test]
    fn a_delay_run_needs_its_horizon_plus_two_window_states_at_most() {
        const HORIZON: u64 = 8;
        let cfg = ServerConfig::new(QosConfig::paper_9_3_1()).with_delay_horizon(HORIZON);
        let s = QosServer::new(cfg).unwrap();
        s.register(1, 5, OverloadPolicy::Delay).unwrap();
        let mut h = s.handle();
        let mut furthest = 0;
        // Every third window, a burst worth the whole horizon.
        for w in (0..600u64).step_by(3) {
            for i in 0..5 * (HORIZON + 1) {
                if let SubmitOutcome::Delayed {
                    delayed_windows, ..
                } = h.submit(1, w * 64 + i, w * BASE_T + i)
                {
                    furthest = furthest.max(delayed_windows);
                }
            }
        }
        drop(h);
        assert_eq!(furthest, HORIZON, "the bursts use the whole horizon");
        let built = window_states(&s);
        assert!(built as u64 <= HORIZON + 2, "{built} window states");
        s.finish();
    }

    #[test]
    fn finish_with_no_traffic_is_clean() {
        let s = server();
        let m = s.finish();
        assert_eq!(m.served, 0);
        assert_eq!(m.admitted_total(), 0);
    }

    #[test]
    fn submit_after_finish_is_rejected() {
        let s = server();
        s.register(1, 1, OverloadPolicy::Delay).unwrap();
        let mut h = s.handle();
        assert!(h.submit(1, 0, 0).is_admitted());
        let engine = Arc::clone(&h.engine);
        drop(h);
        s.finish();
        let mut late = SubmitterHandle {
            slot: 0,
            watermark: Cell::new(0),
            engine,
            view: TenantView::new(),
            stage: None,
            spare: Cell::new(None),
        };
        assert_eq!(
            late.submit(1, 0, 0),
            SubmitOutcome::Rejected(RejectReason::ServerStopping)
        );
    }

    #[test]
    fn scripted_failure_serves_degraded_without_violations() {
        use crate::fault::FaultSchedule;
        let cfg = ServerConfig::new(QosConfig::paper_9_3_1())
            .with_fault_schedule(FaultSchedule::new().fail(0, 3).recover(0, 6));
        let s = QosServer::new(cfg).unwrap();
        s.register(1, 3, OverloadPolicy::Delay).unwrap();
        let mut h = s.handle();
        for w in 0..10u64 {
            for i in 0..3u64 {
                assert!(h.submit(1, w * 3 + i, w * BASE_T + i).is_admitted());
            }
        }
        drop(h);
        let m = s.finish();
        assert_eq!(m.served, 30);
        assert_eq!(m.verdict(), Verdict::CLEAN);
        assert_eq!(m.deadline_violations, 0);
        assert!(m.degraded_windows >= 3, "{}", m.degraded_windows);
        assert!(
            m.fault_reroutes > 0,
            "device 0 hosts buckets 0..3's replicas"
        );
        assert_eq!(
            m.fault_redispatches, 0,
            "scripted faults re-route at admission"
        );
    }

    #[test]
    fn beyond_tolerance_rejects_instead_of_stalling() {
        use crate::fault::FaultSchedule;
        // Kill all three replicas of bucket 0 (devices 0, 1, 2 host the
        // design block's rotations): bucket 0 is unavailable, the engine
        // must refuse it promptly and keep serving other buckets.
        let mut schedule = FaultSchedule::new();
        for d in [0usize, 1, 2] {
            schedule = schedule.fail(d, 0);
        }
        let cfg = ServerConfig::new(QosConfig::paper_9_3_1()).with_fault_schedule(schedule);
        let s = QosServer::new(cfg).unwrap();
        s.register(1, 2, OverloadPolicy::Delay).unwrap();
        let mut h = s.handle();
        assert_eq!(
            h.submit(1, 0, 0),
            SubmitOutcome::Rejected(RejectReason::ReplicasUnavailable)
        );
        // Bucket 20's replicas avoid the dead trio in the (9,3,1) design.
        let ok = h.submit(1, 20, 0);
        assert!(ok.is_admitted(), "{ok:?}");
        drop(h);
        let m = s.finish();
        assert_eq!(m.fault_rejected, 1);
        assert_eq!(m.rejected, 1);
        assert_eq!(m.verdict(), Verdict::CLEAN);
        assert_eq!(m.served, m.admitted);
    }

    #[test]
    fn live_injection_redispatches_inflight_work() {
        let s = server();
        s.register(1, 2, OverloadPolicy::Delay).unwrap();
        let mut h = s.handle();
        // Park two requests in window 0, then kill a device before the
        // window seals: the drain must land them on survivors.
        assert!(h.submit(1, 0, 0).is_admitted());
        assert!(h.submit(1, 1, 0).is_admitted());
        h.inject(0, FaultKind::Fail).unwrap();
        // Advance time so window 0 seals under the new mask.
        assert!(h.submit(1, 2, 2 * BASE_T).is_admitted());
        drop(h);
        let m = s.finish();
        assert_eq!(m.served, 3);
        assert_eq!(m.verdict(), Verdict::CLEAN);
        assert!(m.degraded_windows > 0);
    }

    #[test]
    fn deregister_mid_window_settles_the_departed_tenant() {
        // Migration drain shape: the tenant deregisters while its window is
        // still open. The window-ring reservations must not be stranded —
        // the departed record settles them at seal.
        let s = server();
        s.register(1, 2, OverloadPolicy::Delay).unwrap();
        let mut h = s.handle();
        assert!(h.submit(1, 0, 0).is_admitted());
        assert!(h.submit(1, 1, 0).is_admitted());
        assert!(s.deregister(1).is_some());
        assert_eq!(s.headroom(), 5, "reservation freed before the seal");
        // The freed capacity is immediately re-admittable in the same window.
        s.register(2, 3, OverloadPolicy::Delay).unwrap();
        assert!(h.submit(2, 2, 0).is_admitted());
        drop(h);
        let m = s.finish();
        assert_eq!(m.admitted_total(), 3);
        assert_eq!(m.served, 3);
        assert_eq!(m.verdict(), Verdict::CLEAN);
        let t1 = m.tenants.iter().find(|t| t.tenant == 1).unwrap();
        assert!(!t1.live);
        assert_eq!(t1.admitted, 2, "departed counters stay reported");
        assert_eq!(t1.served, 2, "seal settles against the departed record");
        assert_eq!(t1.in_flight(), 0);
        let t2 = m.tenants.iter().find(|t| t.tenant == 2).unwrap();
        assert!(t2.live);
        assert_eq!(t2.served, 1);
    }

    #[test]
    fn deregister_at_seal_boundary_keeps_per_tenant_conservation() {
        // Deregister exactly when the watermark crosses a window boundary:
        // window 0 seals with tenant 1 already departed.
        let s = server();
        s.register(1, 2, OverloadPolicy::Delay).unwrap();
        let mut h = s.handle();
        assert!(h.submit(1, 0, 0).is_admitted());
        assert!(s.deregister(1).is_some());
        h.advance_to(2 * BASE_T); // seals window 0 post-departure
        let mid = s.metrics();
        assert!(mid.windows_sealed >= 1, "{}", mid.windows_sealed);
        drop(h);
        let m = s.finish();
        let t1 = m.tenants.iter().find(|t| t.tenant == 1).unwrap();
        assert_eq!(t1.ledger().completed(), 1);
        assert_eq!(t1.in_flight(), 0, "no stranded reservations");
        assert_eq!(m.completed(), m.admitted_total());
    }

    #[test]
    fn a_long_lived_handle_follows_its_tenant_across_reregistration() {
        use crate::ledger::Ledger;
        let s = server();
        let first = s.register(1, 2, OverloadPolicy::Delay).unwrap();
        let mut h = s.handle();
        assert!(h.submit(1, 0, 0).is_admitted()); // warms the handle's view
        assert!(s.deregister(1).is_some());
        assert_eq!(
            h.submit(1, 1, 0),
            SubmitOutcome::Rejected(RejectReason::UnknownTenant),
            "the view reads `live` through its borrow"
        );
        // The id cannot start a fresh epoch before the departed record has
        // drained: seal window 0 and wait for the worker to settle it. The
        // worker found the record through its own view, by id.
        h.advance_to(2 * BASE_T);
        while first.counters.in_flight() > 0 {
            std::thread::yield_now();
        }
        let second = s.register(1, 2, OverloadPolicy::Delay).unwrap();
        assert!(h.submit(1, 2, 2 * BASE_T).is_admitted());
        drop(h);
        let m = s.finish();
        let of = |t: &Tenant| t.counters.ledger.snapshot();
        let one_served = Ledger {
            admitted: 1,
            served: 1,
            ..Ledger::default()
        };
        assert_eq!(of(&first), one_served, "settled on the departed record");
        assert_eq!(of(&second), one_served, "admitted on the fresh one");
        let mut both = of(&first);
        both.merge(&of(&second));
        assert_eq!(m.ledger(), both);
        assert_eq!(first.counters.rejected.load(Ordering::Relaxed), 0);
        assert_eq!(m.rejected, 1);
        assert!(m.conserved());
    }

    #[test]
    fn advance_to_seals_windows_without_traffic() {
        // A router keeps time moving on idle arrays via `advance_to`; the
        // watermark advance alone must let the dispatcher seal.
        let s = server();
        s.register(1, 1, OverloadPolicy::Delay).unwrap();
        let mut h = s.handle();
        assert!(h.submit(1, 0, 0).is_admitted());
        h.advance_to(3 * BASE_T);
        let m = s.metrics();
        assert!(m.windows_sealed >= 3, "{}", m.windows_sealed);
        // Monotone: a stale advance is a no-op, not a regression.
        h.advance_to(BASE_T);
        assert!(h.submit(1, 1, 3 * BASE_T).is_admitted());
        drop(h);
        let m = s.finish();
        assert_eq!(m.served, 2);
        assert_eq!(m.verdict(), Verdict::CLEAN);
    }

    #[test]
    fn partition_makes_one_batch_per_worker_with_work() {
        let s =
            QosServer::new(ServerConfig::new(QosConfig::paper_9_3_1()).with_workers(4)).unwrap();
        // Devices 0, 4, 8 are worker 0's, 1 and 5 worker 1's, 2 worker 2's;
        // nothing names a device of worker 3 (3 and 7). Write 12 has a copy
        // on each of three workers; read 15 is lost and goes nowhere.
        // Tenants travel as ids: the worker resolves them when it settles.
        let read = |id, tenant, d: Option<usize>| {
            let req = IoRequest::read_block(id, 0, 0, id);
            Parked::sealed(tenant, req, &[d.unwrap_or(7)], d)
        };
        let write = |id, replicas: &[usize]| {
            Parked::sealed(1, IoRequest::write_block(id, 0, 0, id), replicas, None)
        };
        let sealed = SealedWindow::of(vec![
            read(10, 1, Some(4)),
            read(11, 2, Some(1)),
            write(12, &[0, 1, 2]),
            read(13, 1, Some(8)),
            read(15, 3, None),
            write(14, &[5]),
        ]);
        let mut ds = s.engine.dispatch.lock();
        let batches = s.engine.partition(&mut ds, 6, &sealed);
        let ids = |w: usize| -> Vec<(u64, usize)> {
            let batch = batches[w].as_ref().unwrap();
            batch
                .items
                .iter()
                .map(|i| (i.req.lbn, i.req.device))
                .collect()
        };
        assert_eq!(ids(0), [(10, 4), (12, 0), (13, 8)], "seal order kept");
        assert_eq!(ids(1), [(11, 1), (12, 1), (14, 5)]);
        assert_eq!(ids(2), [(12, 2)]);
        assert!(batches[3].is_none(), "an idle worker gets no message");
        assert!(batches.iter().flatten().all(|b| b.window == 6));
        let batch = |w: usize| batches[w].as_ref().unwrap();
        let tenants: Vec<u64> = batch(1).items.iter().map(|i| i.tenant_id).collect();
        assert_eq!(tenants, [2, 1, 1]);
        let sink = |w: usize, at: usize| batch(w).items[at].write.as_ref().unwrap();
        assert!(Arc::ptr_eq(sink(0, 1), sink(1, 1)) && Arc::ptr_eq(sink(0, 1), sink(2, 0)));
        assert_eq!(sink(0, 1).remaining.load(Ordering::Relaxed), 3);
        assert!(!Arc::ptr_eq(sink(0, 1), sink(1, 2)), "one sink per group");
        assert!(batch(0).items[0].write.is_none());
        // Both sinks are held by the batches, so the next window's write
        // gets a third; once the batches are gone, the oldest comes back.
        let oldest = Arc::as_ptr(&ds.sinks[0]);
        drop(ds.next_sink(2));
        assert_eq!(ds.sinks.len(), 3);
        drop(batches);
        let reused = ds.next_sink(2);
        assert_eq!((ds.sinks.len(), Arc::as_ptr(&reused)), (3, oldest));
        assert_eq!(reused.remaining.load(Ordering::Relaxed), 2, "reset");
        drop(ds);
        s.finish();
    }

    #[test]
    fn layout_keeps_each_side_on_its_own_lines() {
        let s = server();
        let Engine {
            cfg,
            registry,
            ring,
            fault,
            txs,
            wal,
            _gap,
            stat,
            dispatch,
            max_target,
            shutdown,
            quiesce,
            submit_stats,
            ledger,
            worker_stats,
            hist,
        } = &*s.engine;
        let mut spans = vec![
            // Set at construction; read by submits, seals and workers.
            span("cfg", cfg, Side::ReadMostly),
            span("registry", registry, Side::ReadMostly),
            span("ring", ring, Side::ReadMostly),
            span("fault", fault, Side::ReadMostly),
            span("txs", txs, Side::ReadMostly),
            span("wal", wal, Side::ReadMostly),
            span("_gap", _gap, Side::Gap),
            // Written by submits and by the seal, which runs on them.
            span("stat", stat, Side::Submitter),
            span("dispatch", dispatch, Side::Submitter),
            span("max_target", max_target, Side::Submitter),
            span("shutdown", shutdown, Side::Submitter),
            span("quiesce", quiesce, Side::Submitter),
            span("submit_stats", submit_stats, Side::Submitter),
            // Written by workers as they serve and settle.
            span("worker_stats", worker_stats, Side::Worker),
            span("hist", hist, Side::Worker),
        ];
        spans.extend(ledger.layout());
        assert_one_side_per_line(&*s.engine, spans);
        // Measured (1 392 with the production primitives, whose lock classes
        // compile out of release builds): the engine is one long-lived
        // allocation, and growing it is a decision — run the RSS pre-check
        // of the verify skill when this moves (one 1 720-byte layout of this
        // same engine took `fleet_route` from 10.0 to 11.5 MiB).
        if cfg!(not(any(debug_assertions, feature = "model-check"))) {
            assert!(
                std::mem::size_of::<Engine>() <= 1392,
                "{}",
                std::mem::size_of::<Engine>()
            );
        }
        s.finish();
    }

    #[test]
    fn a_batch_carries_its_window_once() {
        // An item is the request, its tenant, its write sink and one flag,
        // in one cache line; its window travels once, in the batch, and its
        // replicas are its LBN's. A queue slot is one word.
        assert_eq!(std::mem::size_of::<WorkItem>(), 64);
        assert_eq!(std::mem::size_of::<WorkMsg>(), std::mem::size_of::<usize>());
    }

    #[test]
    fn channel_bound_counts_window_shares_not_requests() {
        for queue_depth in [1usize, 8, 64, 4096] {
            for workers in [1usize, 3, 4] {
                for limit in [14usize, 27] {
                    let messages = channel_messages(queue_depth, workers, limit);
                    if queue_depth * workers >= limit {
                        assert!(messages * limit <= queue_depth * workers);
                        assert!(
                            (messages + 1) * limit > queue_depth * workers,
                            "rounded down"
                        );
                    } else {
                        assert_eq!(messages, 1, "a channel holds at least one message");
                    }
                }
            }
        }
        assert_eq!(channel_messages(4096, 1, 14), 292);
    }

    /// A server without a log and one with a memory log: both release
    /// windows through the one [`SubmitterHandle::release`], so the seal
    /// counts below hold for each.
    fn with_and_without_a_log() -> [QosServer; 2] {
        let cfg = ServerConfig::new(QosConfig::paper_9_3_1());
        [cfg.clone(), cfg.with_wal_memory()].map(|cfg| QosServer::new(cfg).unwrap())
    }

    #[test]
    fn sealing_follows_the_watermark_not_the_submit_count() {
        for s in with_and_without_a_log() {
            s.register(1, 3, OverloadPolicy::Delay).unwrap();
            let mut h = s.handle();
            for lbn in 0..3 {
                assert!(h.submit(1, lbn, lbn).is_admitted());
            }
            assert_eq!(s.metrics().windows_sealed, 0, "window 0 is still open");
            assert!(h.submit(1, 3, 5 * BASE_T).is_admitted());
            assert_eq!(s.metrics().windows_sealed, 5);
            // An unknown tenant's submit moves the watermark like any other.
            assert!(!h.submit(9, 0, 7 * BASE_T).is_admitted());
            assert_eq!(s.metrics().windows_sealed, 7);
            drop(h);
            assert_eq!(s.finish().served, 4);
        }
    }

    #[test]
    fn the_slowest_open_handle_gates_the_seal() {
        for s in with_and_without_a_log() {
            s.register(1, 1, OverloadPolicy::Delay).unwrap();
            let mut a = s.handle();
            let mut b = s.handle();
            assert!(a.submit(1, 0, 9 * BASE_T).is_admitted());
            assert_eq!(s.metrics().windows_sealed, 0, "B still sits at window 0");
            b.advance_to(4 * BASE_T);
            assert_eq!(s.metrics().windows_sealed, 4);
            drop(b);
            assert_eq!(s.metrics().windows_sealed, 9, "only A's watermark is left");
            drop(a);
            assert_eq!(s.finish().served, 1);
        }
    }

    #[test]
    fn a_new_handle_takes_over_a_closed_handles_entry() {
        let s = server();
        s.register(1, 1, OverloadPolicy::Delay).unwrap();
        let marks = || s.engine.dispatch.lock().watermarks.clone();
        let mut a = s.handle();
        let b = s.handle();
        assert!(a.submit(1, 0, 9 * BASE_T).is_admitted());
        drop(b);
        assert_eq!(s.metrics().windows_sealed, 9);
        let mut c = s.handle();
        assert_eq!((c.slot, c.watermark.get()), (1, 9), "B's entry");
        assert_eq!(marks(), [9, 9]);
        a.advance_to(12 * BASE_T);
        assert_eq!(s.metrics().windows_sealed, 9, "C gates the seal");
        c.advance_to(11 * BASE_T);
        assert_eq!(s.metrics().windows_sealed, 11);
        drop((a, c));
        for _ in 0..3 {
            drop((s.handle(), s.handle()));
        }
        assert_eq!(marks(), [u64::MAX; 2], "churn does not grow the entries");
        assert_eq!(s.finish().served, 1);
    }

    /// An idle engine between bursts: each sealed window finds its workers
    /// parked, wakes them, and they linger and park again before the next —
    /// the whole cycle of the hand-off's blocking strategy, through the
    /// engine, with no window lost between a linger giving up and the next
    /// send. The channel says when its receiver has parked, so the test
    /// waits for that and not for time to pass; bounded by passes, each of
    /// which yields the core to the workers it waits for. (The model
    /// checker's channel has a queue and no linger: nothing to reach.)
    #[cfg(not(feature = "model-check"))]
    #[test]
    fn parked_workers_are_woken_by_every_sealed_window() {
        const PARK_PASSES: u32 = 1_000_000;
        let qos = QosConfig::paper_9_3_1().with_accesses(2); // S(2) = 14
        let (limit, t2) = (qos.request_limit() as u64, qos.interval_ns);
        let server =
            QosServer::new(ServerConfig::new(qos).with_workers(2).with_queue_depth(64)).unwrap();
        server
            .register(1, limit as usize, OverloadPolicy::Delay)
            .unwrap();
        let mut h = server.handle();
        let rounds = 50u64;
        for w in 0..rounds {
            for i in 0..limit {
                // Consecutive blocks fall in distinct buckets, and any S(M)
                // distinct buckets are retrievable in M accesses.
                assert!(h.submit(1, w * limit + i, w * t2 + i).is_admitted());
            }
            let mut passes = 0;
            while !server.engine.txs.iter().all(Sender::receiver_is_parked) {
                passes += 1;
                assert!(
                    passes < PARK_PASSES,
                    "window {w}: the workers have not parked after {PARK_PASSES} passes\n{}",
                    server.metrics().ledger().render()
                );
                std::thread::yield_now();
            }
            h.advance_to((w + 1) * t2);
        }
        drop(h);
        let m = server.finish();
        assert_eq!(m.served, rounds * limit, "every request served");
        assert_eq!(
            m.delayed, 0,
            "full windows of distinct buckets are feasible"
        );
        assert_eq!(m.verdict(), Verdict::CLEAN, "{}", m.ledger().render());
        assert_eq!(m.deadline_violations, 0);
    }

    #[test]
    fn eft_mode_serves_with_the_same_guarantee() {
        let cfg = ServerConfig::new(QosConfig::paper_9_3_1()).with_assignment(AssignmentMode::Eft);
        let s = QosServer::new(cfg).unwrap();
        s.register(1, 5, OverloadPolicy::Delay).unwrap();
        let mut h = s.handle();
        for w in 0..20u64 {
            for i in 0..5u64 {
                assert!(h.submit(1, w * 5 + i, w * BASE_T).is_admitted());
            }
        }
        drop(h);
        let m = s.finish();
        assert_eq!(m.served, 100);
        assert_eq!(m.verdict(), Verdict::CLEAN);
    }

    /// Reads, writes, a silently slow device (hedges), a live triple
    /// failure (a read lost at seal) and a write facing a dead replica
    /// through its retries, from two tenants: every settle kind occurs.
    fn mixed_trace(cfg: ServerConfig) -> QosServer {
        use crate::fault::FaultSchedule;
        let s =
            QosServer::new(cfg.with_fault_schedule(FaultSchedule::new().slow(2, 4, 10))).unwrap();
        s.register(1, 3, OverloadPolicy::Delay).unwrap();
        s.register(2, 2, OverloadPolicy::Reject).unwrap();
        let scheme = s.config().qos.scheme.clone();
        let trio = scheme.replicas(scheme.bucket_for_lbn(7)).to_vec();
        let mut h = s.handle();
        let traffic = |h: &mut SubmitterHandle, windows: std::ops::Range<u64>| {
            for w in windows {
                for i in 0..3u64 {
                    h.submit(1, 100 + w * 3 + i, w * BASE_T + i);
                }
                h.submit_write(2, 500 + w, w * BASE_T);
                h.submit(2, 900 + w, w * BASE_T);
            }
        };
        traffic(&mut h, 0..12);
        // A read parks in window 12, then all its replicas die before the
        // seal: lost. The trio returns once the window has executed.
        assert!(h.submit(1, 7, 12 * BASE_T).is_admitted());
        for &d in &trio {
            h.inject(d, FaultKind::Fail).unwrap();
        }
        h.advance_to(14 * BASE_T);
        for &d in &trio[1..] {
            h.inject(d, FaultKind::Recover).unwrap();
        }
        // One replica stays down through a write's whole retry budget.
        assert!(h.submit_write(2, 7, 15 * BASE_T).is_admitted());
        h.advance_to(17 * BASE_T);
        h.inject(trio[0], FaultKind::Recover).unwrap();
        traffic(&mut h, 18..30);
        s
    }

    #[test]
    fn engine_tenant_and_wal_ledgers_agree_on_a_mixed_trace() {
        use crate::ledger::Ledger;
        let s = mixed_trace(ServerConfig::new(QosConfig::paper_9_3_1()).with_wal_memory());
        let engine = Arc::clone(&s.engine);
        let m = s.finish();
        let l = m.ledger();
        assert!(m.conserved(), "{m:#?}");
        for (term, n) in [
            ("served", l.served),
            ("hedge_wins", l.hedge_wins),
            ("lost", l.lost),
            ("write_settled", l.write_settled),
            ("write_lost", l.write_lost),
        ] {
            assert!(n > 0, "the trace never settled {term}: {l:?}");
        }
        assert_eq!(engine.ledger.snapshot(), l);
        let mut tenants = Ledger::default();
        for t in &m.tenants {
            tenants.merge(&t.ledger());
        }
        assert_eq!(tenants, l, "tenant ledgers sum to the array's");
        let wal = engine.wal.as_ref().unwrap().state_snapshot();
        assert_eq!(wal.misordered, 0);
        assert_eq!(wal.ledger, l, "the log replays to the same account");
        for t in &m.tenants {
            assert_eq!(
                wal.tenants[&t.tenant].ledger,
                t.ledger(),
                "tenant {}",
                t.tenant
            );
        }
    }

    /// The lock-order census, taken at run time: the mixed trace with
    /// ε > 0 over a log at a batch of 8, a submit behind the condemned
    /// device, then a tenant that leaves and one that takes its place,
    /// take every edge the engine's hierarchy keeps (DESIGN.md, "Lock
    /// hierarchy"); a path that stops taking one fails here.
    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "the order check compiles out of release"
    )]
    fn the_engine_takes_every_lock_order_edge_it_keeps() {
        use fqos_sync::Class::*;
        let cfg = ServerConfig::new(QosConfig::paper_9_3_1().with_epsilon(0.05))
            .with_wal_memory()
            .with_wal_fsync_batch(8);
        let s = mixed_trace(cfg);
        // The scorer condemns the slowed device from completions the
        // workers may still be delivering. Once they are in, a submit's
        // seal runs the probe tick under `engine.quiesce`.
        let settled = |m: MetricsSnapshot| m.settled() >= m.admitted_total();
        for waited in 0.. {
            if settled(s.metrics()) {
                break;
            }
            assert!(waited < 10_000_000, "the workers never settled");
            std::thread::yield_now();
        }
        assert_ne!(s.fault_plane().live_slow_mask(), 0, "device 2 condemned");
        assert!(s.handle().submit(1, 0, 31 * BASE_T).is_admitted());
        assert!(s.deregister(2).is_some());
        s.register(3, 2, OverloadPolicy::Delay).unwrap();
        assert!(s.finish().conserved());
        // What a seal takes: under a submit's `engine.quiesce`, and under
        // `engine.dispatch`.
        let seal = [
            WindowSlot,
            RegistryShard,
            FaultHealth,
            EngineStage,
            EngineWal,
        ];
        let kept: [(Class, &[Class]); 6] = [
            (EngineQuiesce, &[EngineDispatch]),
            (EngineQuiesce, &seal),
            (EngineDispatch, &seal),
            (RegistryAdmission, &[RegistryShard, EngineStage, EngineWal]),
            (WindowSlot, &[FaultHealth]),
            (EngineStage, &[EngineStage, EngineWal]),
        ];
        for (held, taken) in kept
            .iter()
            .flat_map(|&(h, ts)| ts.iter().map(move |&t| (h, t)))
        {
            assert!(
                fqos_sync::seen(held, taken),
                "{} → {} never taken",
                held.name(),
                taken.name()
            );
        }
        // The board is a leaf: nothing ranked below it is taken under it,
        // and the order check panics on anything ranked above.
        for below in [EngineStage, EngineWal, ClusterPage, WalTally] {
            let name = below.name();
            assert!(
                !fqos_sync::seen(FaultHealth, below),
                "{name} under fault.health"
            );
        }
    }

    /// A log directory of this test's own.
    fn wal_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fqos-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Stop a server whose one handle is still open and holds staged admits
    /// (a batch of 64 drains nothing on its own): the log must hold every
    /// admission the returned snapshot counts, whichever way it stops.
    fn stopping_leaves_every_counted_admission_in_the_log(
        tag: &str,
        stop: fn(QosServer) -> MetricsSnapshot,
    ) {
        let dir = wal_dir(tag);
        let cfg = || {
            ServerConfig::new(QosConfig::paper_9_3_1())
                .with_wal(&dir)
                .with_wal_fsync_batch(64)
        };
        let s = QosServer::new(cfg()).unwrap();
        s.register(1, 3, OverloadPolicy::Delay).unwrap();
        let mut h = s.handle();
        for w in 0..4u64 {
            for i in 0..3u64 {
                assert!(h.submit(1, w * 3 + i, w * BASE_T + i).is_admitted());
            }
        }
        let wal = Arc::clone(s.engine.wal.as_ref().unwrap());
        let staged = |h: &SubmitterHandle| h.stage.as_ref().unwrap().staged_records();
        assert_eq!(
            staged(&h),
            2,
            "window 3's, behind the one that rode the seal"
        );
        let stopped = stop(s);
        assert_eq!(stopped.admitted_total(), 12);
        assert_eq!(staged(&h), 0);
        assert_eq!(wal.state_snapshot().ledger.admitted_total(), 12);
        drop((h, wal));
        let recovered = QosServer::recover(cfg()).unwrap();
        assert_eq!(
            recovered.metrics().admitted_total(),
            stopped.admitted_total()
        );
        let m = recovered.finish();
        assert_eq!(m.admitted_total(), stopped.admitted_total());
        assert!(m.conserved(), "{}", m.ledger().render());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn halt_drains_the_stage_of_an_open_handle() {
        stopping_leaves_every_counted_admission_in_the_log("halt", QosServer::halt);
    }

    #[test]
    fn finish_drains_the_stage_of_an_open_handle() {
        stopping_leaves_every_counted_admission_in_the_log("finish", QosServer::finish);
    }

    /// Who takes the WAL lock, by count ([`Wal::tally`]). Not under the
    /// model checker, whose channel has no linger and so no parked flag.
    #[cfg(not(feature = "model-check"))]
    mod log_holds {
        use super::*;
        use crate::wal::tests::{IDLE_DRAIN, THRESHOLD_DRAIN};

        /// `steady_read`'s shape behind a memory log with the benchmark's batch
        /// of 64: four tenants reserving `S(2) = 14` between them, one worker.
        fn durable_steady() -> QosServer {
            let cfg = ServerConfig::new(QosConfig::paper_9_3_1().with_accesses(2))
                .with_workers(1)
                .with_queue_depth(4096)
                .with_wal_memory()
                .with_wal_fsync_batch(64);
            let s = QosServer::new(cfg).unwrap();
            for (tenant, reserved) in [(1, 4), (2, 4), (3, 3), (4, 3)] {
                s.register(tenant, reserved, OverloadPolicy::Delay).unwrap();
            }
            s
        }

        /// One full window of [`durable_steady`]: every tenant's reservation,
        /// on 14 distinct buckets.
        fn submit_steady_window(h: &mut SubmitterHandle, w: u64) {
            const TENANT: [u64; 14] = [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 4];
            let t_ns = h.engine.cfg.qos.interval_ns;
            for (i, tenant) in (0..).zip(TENANT) {
                let outcome = h.submit(tenant, (w * 14 + i) % 36, w * t_ns + i);
                assert_eq!(outcome, SubmitOutcome::Admitted { window: w });
            }
        }

        /// A worker that has served `served` reads and found nothing more has,
        /// one linger later, said that it parks; a lost wake-up or a worker
        /// that never parks fails the test instead of hanging it.
        fn wait_until_served_and_parked(engine: &Engine, served: u64) {
            #[expect(
                clippy::disallowed_methods,
                reason = "a hang guard: fails the test instead of hanging it"
            )]
            let start = std::time::Instant::now();
            while engine.ledger.snapshot().served < served || !engine.txs[0].receiver_is_parked() {
                assert!(start.elapsed().as_secs() < 10, "the worker never parked");
                std::thread::yield_now();
            }
        }

        const WORKER: &str = "fqos-worker-0";

        #[test]
        fn under_load_the_log_is_held_once_per_window_and_by_the_sealing_thread() {
            const WINDOWS: u64 = 2_000;
            let s = durable_steady();
            let engine = Arc::clone(&s.engine);
            let wal = engine.wal.as_ref().unwrap();
            let mut h = s.handle();
            submit_steady_window(&mut h, 0);
            let before = wal.tallied_here();
            for w in 1..=WINDOWS {
                submit_steady_window(&mut h, w); // its first request seals w − 1
            }
            assert_eq!(
                wal.tallied_here() - before,
                WINDOWS,
                "admits, the worker's settles and the seal share one hold"
            );
            // The worker took the lock only where a seal could not do it for
            // it: about to park with records staged (a preempted submitter lets
            // it linger out) or, left behind for five windows, at the batch of
            // 64. Never once per batch, which would read `WINDOWS`.
            wait_until_served_and_parked(&engine, WINDOWS * 14);
            assert_eq!(
                wal.tallied(WORKER),
                wal.tallied(IDLE_DRAIN) + wal.tallied(THRESHOLD_DRAIN)
            );
            drop(h);
            let m = s.finish();
            assert_eq!((m.served, m.wal_misordered), ((WINDOWS + 1) * 14, 0));
            assert_eq!(wal.state_snapshot().ledger, m.ledger());
        }

        #[test]
        fn a_parked_worker_has_nothing_staged() {
            let s = durable_steady();
            let engine = Arc::clone(&s.engine);
            let wal = engine.wal.as_ref().unwrap();
            let mut h = s.handle();
            // Four batches queued behind a worker held at its first read, so
            // that it serves them back to back: 56 settles, under the batch.
            // The board is held by a thread that takes no other.
            let gate = Arc::new(std::sync::Barrier::new(2));
            let holder = {
                let (engine, gate) = (Arc::clone(&engine), Arc::clone(&gate));
                std::thread::spawn(move || {
                    let _held_at_its_first_read = engine.fault.board();
                    gate.wait();
                    gate.wait();
                })
            };
            gate.wait();
            for w in 0..4 {
                submit_steady_window(&mut h, w);
            }
            let t_ns = engine.cfg.qos.interval_ns;
            assert!(h.submit(1, 0, 4 * t_ns).is_admitted()); // seals 0..=3
            assert_eq!(wal.tallied(WORKER), 0);
            gate.wait();
            holder.join().unwrap();
            wait_until_served_and_parked(&engine, 56);
            assert_eq!(
                (wal.tallied(WORKER), wal.tallied(IDLE_DRAIN)),
                (1, 1),
                "one hold, on the way to park: none after a batch"
            );
            assert_eq!(wal.worker_stage(0).staged_records(), 0);
            // Without a drain (that would be a cold path emptying the stages):
            // four registers, 57 admits, four seals and the 56 settles, one
            // counted record per window and tenant.
            assert_eq!(wal.wal_counters().records, 4 + 57 + 4 + 4 * 4);
            drop(h);
            assert!(s.finish().conserved());
        }
    }

    #[test]
    fn write_fans_out_and_settles_once() {
        let s = server();
        s.register(1, 1, OverloadPolicy::Delay).unwrap();
        let mut h = s.handle();
        assert_eq!(
            h.submit_write(1, 7, 10),
            SubmitOutcome::Admitted { window: 0 }
        );
        h.close();
        let m = s.finish();
        assert_eq!(m.admitted, 1);
        // One logical settlement, not one per replica copy.
        assert_eq!(m.write_settled, 1);
        assert_eq!(m.served, 0);
        assert_eq!(m.write_lost, 0);
        assert_eq!(m.deadline_violations, 0);
        assert_eq!(m.tenants[0].write_settled, 1);
        assert!(m.verdict().conserved, "{m:#?}");
    }

    #[test]
    fn mixed_reads_and_writes_conserve() {
        let s = server();
        s.register(1, 4, OverloadPolicy::Delay).unwrap();
        let mut h = s.handle();
        for w in 0..10u64 {
            for i in 0..4u64 {
                let lbn = w * 4 + i;
                let admitted = if i % 2 == 0 {
                    h.submit_write(1, lbn, w * BASE_T).is_admitted()
                } else {
                    h.submit(1, lbn, w * BASE_T).is_admitted()
                };
                assert!(admitted, "w={w} i={i}");
            }
        }
        drop(h);
        let m = s.finish();
        assert_eq!(m.served, 20);
        assert_eq!(m.write_settled, 20);
        assert_eq!(m.write_lost, 0);
        assert_eq!(m.verdict(), Verdict::CLEAN);
    }

    #[test]
    fn write_losing_a_replica_past_retries_settles_write_lost() {
        let s = server();
        s.register(1, 1, OverloadPolicy::Delay).unwrap();
        // Fail one replica of the block before admission: the write still
        // fans out to it (redundancy is the point), but the copy faces a
        // dead device through the whole retry budget.
        let scheme = s.config().qos.scheme.clone();
        let dead = scheme.replicas(scheme.bucket_for_lbn(7))[0];
        s.inject(dead, FaultKind::Fail).unwrap();
        let mut h = s.handle();
        assert!(h.submit_write(1, 7, 10).is_admitted());
        drop(h);
        let m = s.finish();
        assert_eq!(m.admitted, 1);
        assert_eq!(m.write_settled, 0);
        assert_eq!(m.write_lost, 1, "{m:#?}");
        assert_eq!(m.tenants[0].write_lost, 1);
        assert!(m.verdict().conserved, "{m:#?}");
    }

    #[test]
    fn writes_are_refused_when_every_replica_is_down() {
        let s = server();
        s.register(1, 1, OverloadPolicy::Delay).unwrap();
        let scheme = s.config().qos.scheme.clone();
        for &d in scheme.replicas(scheme.bucket_for_lbn(7)) {
            s.inject(d, FaultKind::Fail).unwrap();
        }
        let mut h = s.handle();
        assert_eq!(
            h.submit_write(1, 7, 10),
            SubmitOutcome::Rejected(RejectReason::ReplicasUnavailable)
        );
        drop(h);
        let m = s.finish();
        assert_eq!(m.admitted_total(), 0);
        assert_eq!(m.fault_rejected, 1);
        assert!(m.verdict().conserved, "{m:#?}");
    }

    #[test]
    fn gc_model_counts_relocation_work_and_amplification() {
        use crate::config::GcConfig;
        use fqos_flashsim::FtlGeometry;
        // Tiny FTL so sustained overwrites of a hot set provoke GC fast.
        let geometry = FtlGeometry {
            dies: 1,
            blocks_per_die: 8,
            pages_per_block: 4,
            overprovision: 0.25,
        };
        let cfg =
            ServerConfig::new(QosConfig::paper_9_3_1()).with_gc_model(GcConfig::new(geometry));
        let s = QosServer::new(cfg).unwrap();
        let copies = s.config().qos.scheme.copies() as u64;
        s.register(1, 2, OverloadPolicy::Delay).unwrap();
        let mut h = s.handle();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for w in 0..300u64 {
            // LCG-scattered overwrites of a hot set: round-robin would
            // leave every GC victim fully invalid (relocation-free); an
            // uneven order keeps live pages in victims so GC must
            // relocate.
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let lbn = (x >> 33) % 11;
            assert!(h.submit_write(1, lbn, w * BASE_T).is_admitted());
        }
        drop(h);
        let m = s.finish();
        assert_eq!(m.write_settled, 300);
        // Nothing failed and 11 LBNs fit the FTL: every copy of every
        // settled write is one host page, and each GC page relocates one.
        assert_eq!(m.gc_host_pages, m.write_settled * copies);
        assert_eq!(m.gc_pages, m.gc_relocated);
        assert!(m.gc_pages > 0, "no GC triggered: {m:#?}");
        assert!(m.gc_erases > 0);
        assert!(m.write_amplification() > 1.0);
        assert!(m.verdict().conserved, "{m:#?}");
    }

    /// One worker on `mixed_rw_gc`'s shape under `schedule`: reads and
    /// writes, a quarter of them writes, on an FTL small enough that GC
    /// stalls make reads hedge. The worker holds the board once per read,
    /// hedged or not, and once per write copy, whether the copy reaches its
    /// device or runs out of retries facing a dead one; the snapshots, taken
    /// on this thread, are not counted. Apart from one registry lookup, its
    /// view's first miss on the one tenant, it takes no other lock.
    fn worker_holds(schedule: crate::fault::FaultSchedule) -> MetricsSnapshot {
        use crate::config::GcConfig;
        use fqos_flashsim::FtlGeometry;
        let geometry = FtlGeometry {
            dies: 1,
            blocks_per_die: 16,
            pages_per_block: 8,
            overprovision: 0.1,
        };
        let cfg = ServerConfig::new(QosConfig::paper_9_3_1().with_accesses(2))
            .with_workers(1)
            .with_gc_model(GcConfig::new(geometry))
            .with_fault_schedule(schedule);
        let s = QosServer::new(cfg).unwrap();
        let engine = Arc::clone(&s.engine);
        s.register(1, 14, OverloadPolicy::Delay).unwrap();
        let mut h = s.handle();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for w in 0..400u64 {
            for i in 0..14u64 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let (lbn, at) = ((x >> 33) % (36 * 3), w * BASE_T + i);
                // Past `S(M)` a request waits for a later window or is
                // refused: only what is admitted reaches the worker.
                match x >> 62 {
                    0 => h.submit_write(1, lbn, at),
                    _ => h.submit(1, lbn, at),
                };
            }
        }
        drop(h);
        let m = s.finish();
        assert!(m.hedges_issued > 0 && m.gc_relocated > 0, "{m:#?}");
        let reads = m.served + m.hedges_cancelled;
        let copies = 3 * (m.write_settled + m.write_lost);
        let board = engine.fault.board();
        assert_eq!(board.worker_holds.get(), reads + copies);
        if cfg!(debug_assertions) {
            assert_eq!(board.worker_locks.get(), board.worker_holds.get() + 1);
        }
        m
    }

    #[test]
    fn a_worker_holds_the_board_once_per_read_and_per_write_copy() {
        worker_holds(crate::fault::FaultSchedule::new());
    }

    /// The same on a faulted array: a silently slow device the scorer
    /// condemns and then clears, and a device that fails and recovers,
    /// losing the write copies it is sent meanwhile. The timeline is read
    /// in the holds the healthy array takes.
    #[test]
    fn a_worker_holds_the_board_once_per_read_and_per_write_copy_on_a_faulted_array() {
        let schedule = crate::fault::FaultSchedule::parse(
            "slow:2@40x10,restore:2@160,fail:5@200,recover:5@300",
        )
        .unwrap();
        let m = worker_holds(schedule);
        assert!(m.slow_detected > 0 && m.write_lost > 0, "{m:#?}");
        assert!(m.hedges_won > 0 && m.retries > 0, "{m:#?}");
    }

    #[test]
    fn writes_admitted_before_a_scheduled_recovery_retry_onto_it() {
        // Replica dies at window 0 and recovers at window 1; the write's
        // dead-device copy is re-issued across the backoff budget and
        // lands once the recovery takes effect — no write_lost.
        let s = server();
        s.register(1, 1, OverloadPolicy::Delay).unwrap();
        let scheme = s.config().qos.scheme.clone();
        let dead = scheme.replicas(scheme.bucket_for_lbn(7))[0];
        s.inject(dead, FaultKind::Fail).unwrap();
        let mut h = s.handle();
        assert!(h.submit_write(1, 7, 10).is_admitted());
        // Recover before window 0 seals: execution (window 1) sees it live.
        s.inject(dead, FaultKind::Recover).unwrap();
        drop(h);
        let m = s.finish();
        assert_eq!(m.write_settled, 1, "{m:#?}");
        assert_eq!(m.write_lost, 0);
        assert!(m.verdict().conserved, "{m:#?}");
    }
}
