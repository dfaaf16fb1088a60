//! Fault injection and the device-health plane.
//!
//! An `(N, c, 1)` declustering tolerates any `c − 1` device failures with
//! zero data loss ([`fqos_decluster::retrieval::degraded`]), and the online
//! engine must keep its per-interval guarantee through them: a failed
//! device may never stall a worker queue or silently blow a deadline.
//!
//! The [`FaultPlane`] is the engine's shared view of device health, driven
//! by three sources:
//!
//! * a scripted [`FaultSchedule`] of `fail` / `recover` (fail-stop) and
//!   `slow` / `restore` (fail-slow) events, fixed at server construction
//!   (deterministic — the test harness and `fqos serve --fault-schedule`
//!   replay these),
//! * live injections ([`crate::QosServer::inject`] of a [`FaultKind`]),
//!   which take effect at the next unsealed window, and
//! * the **latency health scorer**: an EWMA + windowed-quantile tracker
//!   over per-device completion latencies reported by the worker pool,
//!   classifying each device [`DeviceHealth::Healthy`] / `Suspect` /
//!   `Slow`.
//!
//! Fail-stop health is resolved **per window**: `mask_at(w)` is the bitmap
//! of devices down during window `w`. A request admitted into window `t`
//! executes during window `t + 1`, so admission consults the conservative
//! union `admission_mask(t) = mask_at(t) | mask_at(t + 1)` — a device that
//! is down on arrival *or* scheduled to be down at execution time is
//! excluded from the feasibility graph. With a scripted schedule this makes
//! degraded serving loss-free by construction: the seal-time health view is
//! always a subset of the admission-time view, so every admitted request
//! still owns a live replica and the degraded max-flow bound keeps each
//! survivor within its `M`-access budget. Live injections can land
//! *between* admission and seal; the window ring then drains the failing
//! device at seal and re-dispatches onto surviving replicas within the same
//! interval (counted in [`FaultPlane::redispatches`]).
//!
//! Fail-slow health is deliberately different: a `slow:D@W` event silently
//! multiplies device `D`'s service time — **admission does not see it**.
//! A real GC stall or thermal throttle does not announce itself either;
//! the only honest signal is the latency the device actually delivers.
//! Detection is the scorer's job: once enough anomalous completions
//! promote a device to `Slow`, its bit enters [`FaultPlane::live_slow_mask`]
//! and *new* window schedules exclude it exactly like a failed device,
//! while in-flight work drains (hedged against healthy replicas by the
//! worker pool, see `engine.rs`). A `Slow` device starves of samples once
//! excluded, so the dispatcher probes it again after `PROBE_WINDOWS` (8)
//! sealed windows without observations.
//!
//! The scorer's thresholds are constants: `PROMOTE_STREAK` (3) anomalous
//! completions condemn a device, `RECOVER_STREAK` (8) normal ones clear
//! it, and a hedge threshold exists once `HEDGE_MIN_SAMPLES` (4) samples
//! have been seen.
//!
//! Lock class owned by this module (DESIGN.md, "Lock hierarchy"), a leaf:
//! `fault.health`, the board. It holds every fact about a device: the
//! fault timeline, and per device its score, model and speculative
//! frontier; the scorer's and the hedges' counts. Workers read the
//! timeline inside the hold they serve under; admission and the seal take
//! the board for it only once an event was ever scripted or injected.

use fqos_flashsim::{CalibratedSsd, Completion, Device, GcStats, IoRequest};
use fqos_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use fqos_sync::{Class, LineGap, Mutex, MutexGuard};

/// Largest device count the health bitmap covers.
pub const MAX_FAULT_DEVICES: usize = 64;

/// Service-time multiplier applied by `slow:D@W` tokens that do not carry
/// an explicit `x<factor>` suffix.
pub const DEFAULT_SLOW_FACTOR: u32 = 10;

/// What happens to a device at a scheduled window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The device stops serving at the start of the window.
    Fail,
    /// The device returns to service at the start of the window.
    Recover,
    /// The device keeps serving but every request takes `factor`× the
    /// calibrated latency from the start of the window (fail-slow).
    /// Invisible to admission — detection is the health scorer's job.
    Slow(u32),
    /// The device returns to calibrated speed at the start of the window.
    Restore,
}

/// One scripted health transition: `device` changes state at the start of
/// window `window`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Device index.
    pub device: usize,
    /// Window at whose start the transition applies.
    pub window: u64,
    /// Fail, recover, slow or restore.
    pub kind: FaultKind,
}

/// A malformed or geometry-violating fault schedule, reported at parse /
/// validation time instead of deep inside the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpecError {
    /// A token did not match `kind:<device>@<window>[x<factor>]`.
    BadToken {
        /// The offending token.
        token: String,
        /// What was wrong with it.
        reason: String,
    },
    /// The event keyword was not `fail`/`recover`/`slow`/`restore`.
    UnknownEvent {
        /// The offending token.
        token: String,
        /// The unrecognized keyword.
        event: String,
    },
    /// An event names a device the array does not have.
    DeviceOutOfRange {
        /// Device index named by the event.
        device: usize,
        /// Devices in the deployment.
        devices: usize,
    },
    /// The deployment exceeds what the health bitmap covers.
    TooManyDevices {
        /// Devices in the deployment.
        devices: usize,
    },
    /// An event is scheduled at or past the end of the run.
    WindowBeyondHorizon {
        /// Device index named by the event.
        device: usize,
        /// Window named by the event.
        window: u64,
        /// Number of windows the run will seal.
        horizon: u64,
    },
    /// A `slow` event carries a factor that does not slow anything down.
    SlowFactorTooSmall {
        /// Device index named by the event.
        device: usize,
        /// The offending factor.
        factor: u32,
    },
}

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSpecError::BadToken { token, reason } => {
                write!(f, "fault schedule token '{token}': {reason}")
            }
            FaultSpecError::UnknownEvent { token, event } => write!(
                f,
                "fault schedule token '{token}': unknown event '{event}' \
                 (expected fail, recover, slow or restore)"
            ),
            FaultSpecError::DeviceOutOfRange { device, devices } => write!(
                f,
                "fault event names device {device} but the array has only {devices} \
                 devices (0..={})",
                devices.saturating_sub(1)
            ),
            FaultSpecError::TooManyDevices { devices } => write!(
                f,
                "fault plane covers at most {MAX_FAULT_DEVICES} devices, \
                 deployment has {devices}"
            ),
            FaultSpecError::WindowBeyondHorizon {
                device,
                window,
                horizon,
            } => write!(
                f,
                "fault event for device {device} at window {window} is past the \
                 run horizon ({horizon} windows) and would never fire"
            ),
            FaultSpecError::SlowFactorTooSmall { device, factor } => write!(
                f,
                "slow event for device {device} has factor {factor}; a fail-slow \
                 multiplier must be at least 2 (use restore to clear)"
            ),
        }
    }
}

impl std::error::Error for FaultSpecError {}

/// One `kind:<index>@<time>[x<factor>]` token of a fault schedule spec,
/// split but not interpreted: the device grammar ([`FaultSchedule::parse`])
/// and the cluster's array grammar each map `kind` to their own events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultToken<'a> {
    /// The whole token, for error reports.
    pub text: &'a str,
    /// The event keyword.
    pub kind: &'a str,
    /// Device or array index.
    pub index: usize,
    /// Window or control tick the event fires at.
    pub at: u64,
    /// The `x<factor>` suffix, which only `slow` tokens may carry.
    pub factor: Option<u32>,
}

/// Split `spec` on commas and whitespace into [`FaultToken`]s. A token
/// that does not have the shape yields `Err((token, reason))`; `nouns`
/// name the grammar's index and time in the reason.
pub fn fault_tokens<'a>(
    spec: &'a str,
    nouns: [&'static str; 2],
) -> impl Iterator<Item = Result<FaultToken<'a>, (String, String)>> {
    fn num<T: std::str::FromStr>(text: &str, s: &str, noun: &str) -> Result<T, (String, String)> {
        s.parse()
            .map_err(|_| (text.to_string(), format!("bad {noun} '{s}'")))
    }
    let [index, at] = nouns;
    spec.split(|c: char| c == ',' || c.is_whitespace())
        .filter(|t| !t.is_empty())
        .map(move |text| {
            let bad = |reason: String| (text.to_string(), reason);
            let (kind, rest) = text
                .split_once(':')
                .ok_or_else(|| bad(format!("expected <event>:<{index}>@<{at}>")))?;
            let (i, time) = rest
                .split_once('@')
                .ok_or_else(|| bad(format!("missing @<{at}>")))?;
            let i = num(text, i, index)?;
            let (time, factor) = match time.split_once('x') {
                None => (time, None),
                Some(_) if kind != "slow" => {
                    return Err(bad("only slow events take an x<factor>".into()))
                }
                Some((t, f)) => (t, Some(num(text, f, "slow factor")?)),
            };
            Ok(FaultToken {
                text,
                kind,
                index: i,
                at: num(text, time, at)?,
                factor,
            })
        })
}

/// A scripted sequence of device failures, recoveries and fail-slow
/// degradations.
///
/// ```
/// use fqos_server::FaultSchedule;
/// let s = FaultSchedule::new().fail(0, 20).recover(0, 40).slow(1, 10, 10);
/// assert_eq!(
///     s,
///     FaultSchedule::parse("fail:0@20,recover:0@40,slow:1@10x10").unwrap()
/// );
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Empty schedule: all devices healthy forever.
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Script `device` to fail at the start of `window`.
    pub fn fail(mut self, device: usize, window: u64) -> Self {
        self.events.push(FaultEvent {
            device,
            window,
            kind: FaultKind::Fail,
        });
        self
    }

    /// Script `device` to recover at the start of `window`.
    pub fn recover(mut self, device: usize, window: u64) -> Self {
        self.events.push(FaultEvent {
            device,
            window,
            kind: FaultKind::Recover,
        });
        self
    }

    /// Script `device` to serve at `factor`× calibrated latency from the
    /// start of `window` (silent fail-slow; admission is not told).
    pub fn slow(mut self, device: usize, window: u64, factor: u32) -> Self {
        self.events.push(FaultEvent {
            device,
            window,
            kind: FaultKind::Slow(factor),
        });
        self
    }

    /// Script `device` to return to calibrated speed at the start of
    /// `window`.
    pub fn restore(mut self, device: usize, window: u64) -> Self {
        self.events.push(FaultEvent {
            device,
            window,
            kind: FaultKind::Restore,
        });
        self
    }

    /// True when no events are scripted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scripted events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Parse a schedule spec: comma- or whitespace-separated
    /// `fail:<device>@<window>`, `recover:<device>@<window>`,
    /// `slow:<device>@<window>[x<factor>]` (factor defaults to
    /// [`DEFAULT_SLOW_FACTOR`], and must be at least 2) and
    /// `restore:<device>@<window>` tokens.
    pub fn parse(spec: &str) -> Result<Self, FaultSpecError> {
        let mut schedule = FaultSchedule::new();
        for token in fault_tokens(spec, ["device", "window"]) {
            let t = token.map_err(|(token, reason)| FaultSpecError::BadToken { token, reason })?;
            schedule = match t.kind {
                "fail" => schedule.fail(t.index, t.at),
                "recover" => schedule.recover(t.index, t.at),
                "slow" => match t.factor.unwrap_or(DEFAULT_SLOW_FACTOR) {
                    factor @ 0..=1 => {
                        return Err(FaultSpecError::SlowFactorTooSmall {
                            device: t.index,
                            factor,
                        })
                    }
                    factor => schedule.slow(t.index, t.at, factor),
                },
                "restore" => schedule.restore(t.index, t.at),
                other => {
                    return Err(FaultSpecError::UnknownEvent {
                        token: t.text.to_string(),
                        event: other.to_string(),
                    })
                }
            };
        }
        Ok(schedule)
    }

    /// Check every event against the deployment's device count.
    pub fn validate(&self, devices: usize) -> Result<(), FaultSpecError> {
        self.validate_for(devices, None)
    }

    /// Check every event against the deployment's device count and, when
    /// the run length is known up front (`horizon` = number of windows the
    /// run will seal), reject events that could never fire.
    pub fn validate_for(&self, devices: usize, horizon: Option<u64>) -> Result<(), FaultSpecError> {
        if devices > MAX_FAULT_DEVICES {
            return Err(FaultSpecError::TooManyDevices { devices });
        }
        for e in &self.events {
            if e.device >= devices {
                return Err(FaultSpecError::DeviceOutOfRange {
                    device: e.device,
                    devices,
                });
            }
            if let FaultKind::Slow(factor) = e.kind {
                if factor < 2 {
                    return Err(FaultSpecError::SlowFactorTooSmall {
                        device: e.device,
                        factor,
                    });
                }
            }
            if let Some(h) = horizon {
                if e.window >= h {
                    return Err(FaultSpecError::WindowBeyondHorizon {
                        device: e.device,
                        window: e.window,
                        horizon: h,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Events plus the fail-stop masks compiled from them: `masks[i] = (w,
/// mask)` means `mask` holds for windows in `w .. masks[i+1].0`. Only
/// fail-stop events contribute to the masks; fail-slow events are kept in
/// `events` and scanned by `slow_factor_at` (they are few and silent).
#[derive(Debug, Default)]
pub(crate) struct Timeline {
    events: Vec<FaultEvent>,
    masks: Vec<(u64, u64)>,
}

impl Timeline {
    fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
        // Stable by window: same-window events apply in injection order.
        self.events.sort_by_key(|e| e.window);
        self.masks.clear();
        let mut mask = 0u64;
        for e in &self.events {
            match e.kind {
                FaultKind::Fail => mask |= 1 << e.device,
                FaultKind::Recover => mask &= !(1 << e.device),
                FaultKind::Slow(_) | FaultKind::Restore => continue,
            }
            match self.masks.last_mut() {
                Some(last) if last.0 == e.window => last.1 = mask,
                _ => self.masks.push((e.window, mask)),
            }
        }
    }

    /// Bitmap of devices down during `window`.
    pub(crate) fn mask_at(&self, window: u64) -> u64 {
        match self.masks.partition_point(|&(w, _)| w <= window) {
            0 => 0,
            i => self.masks[i - 1].1,
        }
    }

    /// Slow events on the timeline, scripted or injected.
    pub(crate) fn slowdowns(&self) -> u64 {
        let slow = |e: &&FaultEvent| matches!(e.kind, FaultKind::Slow(_));
        self.events.iter().filter(slow).count() as u64
    }

    /// The fail-slow multiplier in force on `device` during `window`.
    pub(crate) fn slow_factor_at(&self, device: usize, window: u64) -> u32 {
        let mut factor = 1;
        for e in &self.events {
            if e.window > window {
                break; // events are sorted by window
            }
            if e.device != device {
                continue;
            }
            match e.kind {
                FaultKind::Slow(f) => factor = f.max(1),
                FaultKind::Restore => factor = 1,
                FaultKind::Fail | FaultKind::Recover => {}
            }
        }
        factor
    }
}

/// Tri-state latency health of one device, as judged by the scorer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceHealth {
    /// Serving at (or near) its calibrated latency.
    Healthy,
    /// At least one recent anomalous completion; watching for a streak.
    Suspect,
    /// A sustained anomaly streak: excluded from new window schedules
    /// until it recovers or is re-probed.
    Slow,
}

/// Scorer recent-latency ring size per device (the quantile window).
const HEALTH_WINDOW: usize = 16;

/// A completion is anomalous when its service latency exceeds this
/// multiple of the device's EWMA baseline.
const SUSPECT_FACTOR: f64 = 3.0;

/// Percentile of the recent-latency ring used as the hedge base.
const HEDGE_PERCENTILE: f64 = 0.9;

/// Hedging fires only when the projected latency exceeds this multiple of
/// the percentile latency (guards against jitter).
const HEDGE_SLACK: f64 = 2.0;

/// Consecutive anomalous completions that promote `Suspect → Slow`.
const PROMOTE_STREAK: u32 = 3;

/// Consecutive normal completions that demote `Slow → Healthy`.
const RECOVER_STREAK: u32 = 8;

/// Sealed windows without a sample after which a `Slow` device is
/// re-probed (demoted to `Suspect`, bit cleared, schedulable again).
const PROBE_WINDOWS: u64 = 8;

/// Samples in a device's ring before a hedge threshold exists.
const HEDGE_MIN_SAMPLES: usize = 4;

/// The [`HEDGE_PERCENTILE`] quantile of a device's recent-latency ring
/// (`1..=HEALTH_WINDOW` samples, any order). Runs under the `fault.health`
/// leaf lock once per served read, so it neither copies nor sorts: the
/// quantile is the `k`-th largest sample, `k = n − index` (1 or 2 at 0.9
/// of at most 16), and one pass keeps the `k` largest seen, ascending.
fn hedge_base(samples: &[u64]) -> u64 {
    let n = samples.len();
    let k = n - (((n as f64 * HEDGE_PERCENTILE).ceil() as usize).clamp(1, n) - 1);
    let mut largest = [0u64; HEALTH_WINDOW];
    let largest = &mut largest[..k];
    for &s in samples {
        if s > largest[0] {
            let mut i = 0;
            while i + 1 < k && largest[i + 1] < s {
                largest[i] = largest[i + 1];
                i += 1;
            }
            largest[i] = s;
        }
    }
    largest[0]
}

/// Per-device scorer state. Latencies recorded are the *service*
/// component (finish − service start): queueing delay behind co-scheduled
/// work says nothing about the device's own speed.
#[derive(Debug, Clone)]
struct DeviceHealthState {
    state: DeviceHealth,
    /// Integer EWMA of normal-looking service latencies (α = 1/8),
    /// starting from the calibrated service time: a device that is already
    /// slow at its first sample is judged against what it should deliver.
    /// Not updated by anomalous samples: the baseline must not chase the
    /// degraded tail it is trying to detect.
    ewma_ns: u64,
    /// Ring of recent service latencies (anomalous or not) for quantiles.
    samples: Vec<u64>,
    next: usize,
    bad_streak: u32,
    good_streak: u32,
    last_sample_window: u64,
}

impl DeviceHealthState {
    fn new(calibrated_ns: u64) -> Self {
        DeviceHealthState {
            state: DeviceHealth::Healthy,
            ewma_ns: calibrated_ns.max(1),
            samples: Vec::new(),
            next: 0,
            bad_streak: 0,
            good_streak: 0,
            last_sample_window: 0,
        }
    }
}

/// Every device's simulated timeline, kept once: its FCFS model, FTL and GC
/// state included. Worker `w` serves the primaries and write copies of each
/// device `d` with `d % workers == w`, but a hedged read lands on a replica
/// another worker serves, so the models live on the board, not in the
/// workers.
///
/// Two frontiers per device, deliberately:
/// * the model's own (`next_free`) — the *primary* (guaranteed-path)
///   frontier, advanced only by `d`'s serving worker, in window order.
///   Hedges read it but never advance it: speculative reads ride the
///   device's spare bandwidth and must not delay reserved capacity —
///   otherwise a fast worker's hedge could push a lagging worker's
///   earlier-window primaries past their deadlines and break the paper's
///   guarantee from the side.
/// * `spec[d]` — the speculative frontier. Hedges serialize against each
///   other (and start no earlier than the primary work the device has
///   accepted so far); losers roll back off it.
///
/// Workers drift apart by up to a queue of windows, and a hedge issued in
/// exec window `W` queues behind the primaries its target accepted *up to
/// `W`* — work of later windows arrives after it in simulated time, however
/// far ahead the target's serving worker happens to run in real time.
/// `entered` keeps the primary frontier as each recent window first found
/// it, so [`Devices::busy_as_of`] can give the hedge that view.
#[derive(Debug)]
pub(crate) struct Devices {
    pub(crate) models: Vec<CalibratedSsd>,
    pub(crate) spec: Vec<u64>,
    /// Per device, the latest exec window its primary frontier holds work of.
    latest: Vec<u64>,
    /// Per device, `depth` slots indexed by `exec window % depth`:
    /// `(exec window, the primary frontier as its first primary found it)`.
    entered: Vec<(u64, u64)>,
    /// Windows a peer can run ahead: a full queue, the batch in service and
    /// the one the dispatcher is blocked on.
    depth: usize,
}

impl Devices {
    pub(crate) fn new(models: Vec<CalibratedSsd>, depth: usize) -> Self {
        let devices = models.len();
        Devices {
            models,
            spec: vec![0; devices],
            latest: vec![0; devices],
            entered: vec![(0, 0); devices * depth],
            depth,
        }
    }

    fn slot(&self, d: usize, window: u64) -> usize {
        d * self.depth + (window % self.depth as u64) as usize
    }

    /// Serve `req` on its device from `issue` at `factor` × calibrated
    /// speed, as the device's work in exec window `window` (windows reach
    /// a device in increasing order).
    fn submit(&mut self, req: &IoRequest, issue: u64, factor: u32, window: u64) -> Completion {
        let d = req.device;
        if self.latest[d] != window {
            self.latest[d] = window;
            let slot = self.slot(d, window);
            self.entered[slot] = (window, self.models[d].next_free(0));
        }
        let dev = &mut self.models[d];
        dev.set_degradation(factor);
        dev.submit(req, issue)
    }

    /// `d`'s primary frontier as a read issued in exec window `window`
    /// meets it: what it was before the first later window reached `d`.
    /// When no later window has reached `d` — always, on the asking
    /// worker's own devices — that is the live frontier. It is late when
    /// the serving worker is more than `depth` windows ahead and the slot
    /// is gone. It is *early* when the serving worker has not yet reached
    /// `window` itself: the live frontier then lacks that window's
    /// primaries, which the hedge should queue behind. With more than one
    /// worker a hedge's outcome therefore depends on how far its target's
    /// worker has run.
    pub(crate) fn busy_as_of(&self, d: usize, window: u64) -> u64 {
        (window + 1..=self.latest[d].min(window + self.depth as u64))
            .map(|later| (later, self.entered[self.slot(d, later)]))
            .find(|&(later, (entered, _))| entered == later)
            .map_or(self.models[d].next_free(0), |(_, (_, found))| found)
    }

    /// The GC work of every device so far.
    pub(crate) fn gc_stats(&self) -> GcStats {
        let sum = |a: GcStats, g: GcStats| GcStats {
            host_pages: a.host_pages + g.host_pages,
            gc_pages: a.gc_pages + g.gc_pages,
            relocated: a.relocated + g.relocated,
            erases: a.erases + g.erases,
            full_errors: a.full_errors + g.full_errors,
        };
        self.models
            .iter()
            .map(CalibratedSsd::gc_stats)
            .fold(GcStats::default(), sum)
    }
}

/// The state of each device as one server: when it fails or slows, the
/// scorer's view of it, its simulated timeline, and the hedges placed on
/// the array. Behind the `fault.health` leaf lock, which
/// [`FaultPlane::board`] takes.
#[derive(Debug)]
pub(crate) struct HealthBoard {
    pub(crate) timeline: Timeline,
    scores: Vec<DeviceHealthState>,
    pub(crate) devices: Devices,
    /// Reads that placed a hedge.
    pub(crate) hedges_issued: u64,
    /// Hedges that beat their primary; each cancelled it.
    pub(crate) hedges_won: u64,
    /// Devices the scorer promoted to `Slow` (entries, not a level).
    pub(crate) slow_detected: u64,
    /// Devices the scorer moved `Healthy → Suspect` (entries).
    pub(crate) suspects: u64,
    /// Devices the scorer demoted `Slow → Healthy` (entries).
    pub(crate) recoveries: u64,
    /// Holds taken by worker threads (`FaultPlane::board`).
    #[cfg(test)]
    pub(crate) worker_holds: std::cell::Cell<u64>,
    /// Locks of any class worker threads took, each counted as it exits
    /// (`FaultPlane::note_worker_locks`).
    #[cfg(test)]
    pub(crate) worker_locks: std::cell::Cell<u64>,
}

/// One hold of the board, with the plane whose verdict bitmap the scorer's
/// transitions update.
pub(crate) struct Board<'a> {
    plane: &'a FaultPlane,
    held: MutexGuard<'a, HealthBoard>,
}

impl std::ops::Deref for Board<'_> {
    type Target = HealthBoard;
    fn deref(&self) -> &HealthBoard {
        &self.held
    }
}

impl std::ops::DerefMut for Board<'_> {
    fn deref_mut(&mut self) -> &mut HealthBoard {
        &mut self.held
    }
}

impl Board<'_> {
    /// Serve `req` on its device from `issue` at `factor` × calibrated speed
    /// as its work in `exec_window`, and give the scorer the *service* part:
    /// queueing is the scheduler's doing, not the device's. Every read
    /// primary and write copy reaches its device here; a hedge does not.
    pub(crate) fn serve(
        &mut self,
        req: &IoRequest,
        issue: u64,
        factor: u32,
        exec_window: u64,
    ) -> Completion {
        let completion = self.devices.submit(req, issue, factor, exec_window);
        let service = completion.finish - completion.service_start;
        self.observe(req.device, service, exec_window);
        completion
    }

    /// Record one completion's service latency for the scorer, and publish
    /// a verdict that changes the schedulable set in `live_slow`.
    pub(crate) fn observe(&mut self, device: usize, service_ns: u64, window: u64) {
        use DeviceHealth::{Healthy, Slow, Suspect};
        let plane = self.plane;
        let board = &mut *self.held;
        let Some(st) = board.scores.get_mut(device) else {
            return;
        };
        st.last_sample_window = window;
        let anomalous = service_ns as f64 > SUSPECT_FACTOR * st.ewma_ns as f64;
        if st.samples.len() < HEALTH_WINDOW {
            st.samples.push(service_ns);
        } else {
            st.samples[st.next] = service_ns;
            st.next = (st.next + 1) % HEALTH_WINDOW;
        }
        if !anomalous {
            let delta = service_ns as i64 - st.ewma_ns as i64;
            st.ewma_ns = (st.ewma_ns as i64 + (delta >> 3)).max(1) as u64;
        }
        st.state = match (st.state, anomalous) {
            (Healthy, false) => Healthy,
            (Healthy, true) => {
                st.bad_streak = 1;
                board.suspects += 1;
                Suspect
            }
            (Suspect, true) if st.bad_streak + 1 >= PROMOTE_STREAK => {
                st.bad_streak += 1;
                st.good_streak = 0;
                board.slow_detected += 1;
                plane.live_slow.fetch_or(1 << device, Ordering::AcqRel);
                Slow
            }
            (Suspect, true) => {
                st.bad_streak += 1;
                Suspect
            }
            // One normal completion clears suspicion: a single outlier
            // never flaps a device out of schedules.
            (Suspect, false) => {
                st.bad_streak = 0;
                Healthy
            }
            (Slow, true) => {
                st.good_streak = 0;
                Slow
            }
            (Slow, false) if st.good_streak + 1 >= RECOVER_STREAK => {
                st.good_streak = 0;
                st.bad_streak = 0;
                board.recoveries += 1;
                plane.live_slow.fetch_and(!(1 << device), Ordering::AcqRel);
                Healthy
            }
            (Slow, false) => {
                st.good_streak += 1;
                Slow
            }
        };
    }

    /// [`FaultPlane::hedge_threshold`], in the caller's hold.
    pub(crate) fn hedge_threshold(&self, device: usize) -> Option<u64> {
        let st = self.scores.get(device)?;
        let armed = st.samples.len() >= HEDGE_MIN_SAMPLES;
        armed.then(|| (hedge_base(&st.samples) as f64 * HEDGE_SLACK) as u64)
    }

    /// `device`'s single-block service latency as the scorer believes it:
    /// its EWMA (the calibrated time before any sample), for hedge choice.
    pub(crate) fn service_estimate(&self, device: usize) -> u64 {
        self.scores[device].ewma_ns
    }
}

/// Shared device-health view plus the degraded-serving audit counters.
///
/// Owned by the engine, consulted by the window ring on every admission and
/// seal and by every worker completion. Every fact about a device — the
/// fault timeline, its score, model and frontier — is on the board behind
/// one leaf lock (`fault.health`). Two flags keep the healthy hot path off
/// it: while no fault has ever been scripted or injected, the fail-stop
/// masks are 0 and the slow factors 1 without a hold. The scorer's verdict
/// is published lock-free in `live_slow`, so admission never holds the
/// board to learn it. The audit counters are relaxed atomics.
///
/// Laid out by writer (DESIGN.md, "One writer per line"): what admission
/// and seal read per window and nobody writes while the array is healthy,
/// a gap, the audit counters the submitting side bumps, a gap, then the
/// board workers hold once per served read or write copy and the retry
/// count they bump.
#[derive(Debug)]
#[repr(C)]
pub struct FaultPlane {
    /// False until the first event exists: lets the healthy hot path skip
    /// the board's timeline entirely.
    any: AtomicBool,
    /// False until a fail-slow event exists: lets the healthy hot path
    /// skip the per-device factor lookup.
    any_slow: AtomicBool,
    /// Bitmap of devices the scorer currently classifies `Slow`. Excluded
    /// from new window schedules like failed devices, but their in-flight
    /// work drains.
    live_slow: AtomicU64,
    /// Devices on the board.
    devices: usize,
    _gap: LineGap,
    degraded_windows: AtomicU64,
    reroutes: AtomicU64,
    redispatches: AtomicU64,
    overloads: AtomicU64,
    unavailable_rejects: AtomicU64,
    _gap_workers: LineGap,
    health: Mutex<HealthBoard>,
    /// Workers' backoff hops; the seal's drains off a slow device too.
    retries: AtomicU64,
}

impl FaultPlane {
    /// Build the plane for `devices` paper-calibrated devices from a
    /// scripted schedule.
    pub fn new(devices: usize, schedule: FaultSchedule) -> Result<Self, String> {
        let devices = Devices::new(vec![CalibratedSsd::new(); devices], 1);
        FaultPlane::calibrated(schedule, devices, fqos_flashsim::BLOCK_READ_NS)
    }

    /// Build the plane for `devices`, whose calibrated single-block service
    /// time is `service_ns` (the scorer's starting baseline).
    pub(crate) fn calibrated(
        schedule: FaultSchedule,
        devices: Devices,
        service_ns: u64,
    ) -> Result<Self, String> {
        let count = devices.models.len();
        schedule.validate(count).map_err(|e| e.to_string())?;
        let any = !schedule.events.is_empty();
        let mut timeline = Timeline::default();
        schedule.events.into_iter().for_each(|e| timeline.push(e));
        let any_slow = timeline.slowdowns() > 0;
        Ok(FaultPlane {
            any: AtomicBool::new(any),
            any_slow: AtomicBool::new(any_slow),
            live_slow: AtomicU64::new(0),
            devices: count,
            _gap: LineGap::default(),
            degraded_windows: AtomicU64::new(0),
            reroutes: AtomicU64::new(0),
            redispatches: AtomicU64::new(0),
            overloads: AtomicU64::new(0),
            unavailable_rejects: AtomicU64::new(0),
            _gap_workers: LineGap::default(),
            health: Mutex::new(
                Class::FaultHealth,
                HealthBoard {
                    timeline,
                    scores: (0..count)
                        .map(|_| DeviceHealthState::new(service_ns))
                        .collect(),
                    devices,
                    hedges_issued: 0,
                    hedges_won: 0,
                    slow_detected: 0,
                    suspects: 0,
                    recoveries: 0,
                    #[cfg(test)]
                    worker_holds: std::cell::Cell::new(0),
                    #[cfg(test)]
                    worker_locks: std::cell::Cell::new(0),
                },
            ),
            retries: AtomicU64::new(0),
        })
    }

    /// Device count covered by the bitmap.
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// Bitmap of devices down during window `window` (bit `d` set = device
    /// `d` failed).
    pub fn mask_at(&self, window: u64) -> u64 {
        if !self.any.load(Ordering::Acquire) {
            return 0;
        }
        self.board().timeline.mask_at(window)
    }

    /// Conservative health view for admitting into window `window`:
    /// excludes devices down on arrival (`window`) *or* during the
    /// execution interval (`window + 1`).
    pub fn admission_mask(&self, window: u64) -> u64 {
        if !self.any.load(Ordering::Acquire) {
            return 0;
        }
        let board = self.board();
        board.timeline.mask_at(window) | board.timeline.mask_at(window + 1)
    }

    /// Bitmap of devices the scorer currently classifies `Slow`.
    pub fn live_slow_mask(&self) -> u64 {
        self.live_slow.load(Ordering::Acquire)
    }

    /// The fail-slow service-time multiplier in force on `device` during
    /// window `window` (1 = calibrated speed).
    pub fn slow_factor_at(&self, device: usize, window: u64) -> u32 {
        if !self.any_slow.load(Ordering::Acquire) {
            return 1;
        }
        self.board().timeline.slow_factor_at(device, window)
    }

    /// Inject a live health transition taking effect at window `window`.
    pub fn inject(&self, device: usize, kind: FaultKind, window: u64) -> Result<(), String> {
        if device >= self.devices {
            return Err(format!(
                "device {device} out of range (array has {} devices)",
                self.devices
            ));
        }
        if let FaultKind::Slow(factor) = kind {
            if factor < 2 {
                return Err(FaultSpecError::SlowFactorTooSmall { device, factor }.to_string());
            }
        }
        self.board().timeline.push(FaultEvent {
            device,
            window,
            kind,
        });
        if matches!(kind, FaultKind::Slow(_)) {
            self.any_slow.store(true, Ordering::Release);
        }
        self.any.store(true, Ordering::Release);
        Ok(())
    }

    /// The board: one hold of `fault.health`. Every hold starts here,
    /// which is where the tests count a worker's (`worker_holds`).
    pub(crate) fn board(&self) -> Board<'_> {
        let held = self.health.lock();
        #[cfg(test)]
        if std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("fqos-worker-"))
        {
            held.worker_holds.set(held.worker_holds.get() + 1);
        }
        Board { plane: self, held }
    }

    /// Add the locks an exiting worker took (`fqos_sync::taken`) to the
    /// board's count, in a hold `board` does not count.
    #[cfg(test)]
    pub(crate) fn note_worker_locks(&self, taken: u64) {
        let held = self.health.lock();
        held.worker_locks.set(held.worker_locks.get() + taken);
    }

    /// Record one completion's service latency for the scorer, in a hold
    /// of the board of its own.
    pub fn observe(&self, device: usize, service_ns: u64, window: u64) {
        self.board().observe(device, service_ns, window);
    }

    /// The scorer's current verdict for `device`.
    pub fn health_state(&self, device: usize) -> DeviceHealth {
        self.board()
            .scores
            .get(device)
            .map_or(DeviceHealth::Healthy, |s| s.state)
    }

    /// Latency above which a dispatch on `device` should be hedged:
    /// `HEDGE_SLACK` × the `HEDGE_PERCENTILE` quantile of the device's
    /// recent service latencies. `None` until `HEDGE_MIN_SAMPLES` have
    /// been observed — hedging with no baseline would be guessing.
    pub fn hedge_threshold(&self, device: usize) -> Option<u64> {
        self.board().hedge_threshold(device)
    }

    /// Dispatcher probe tick, called as each window seals: a `Slow` device
    /// that has been excluded from schedules stops producing samples and
    /// would stay `Slow` forever. After `PROBE_WINDOWS` sealed windows
    /// without an observation it is demoted to `Suspect` and its exclusion
    /// bit cleared, so the next schedules route a little work back to it —
    /// either the samples come back normal (full recovery) or the anomaly
    /// streak re-promotes it within `PROMOTE_STREAK` completions.
    pub(crate) fn health_tick(&self, sealed_window: u64) {
        let slow = self.live_slow.load(Ordering::Acquire);
        if slow == 0 {
            return;
        }
        let mut cleared = 0u64;
        let mut board = self.board();
        for (d, st) in board.scores.iter_mut().enumerate() {
            if slow >> d & 1 == 1
                && st.state == DeviceHealth::Slow
                && sealed_window.saturating_sub(st.last_sample_window) >= PROBE_WINDOWS
            {
                st.state = DeviceHealth::Suspect;
                st.bad_streak = 0;
                st.good_streak = 0;
                cleared |= 1 << d;
            }
        }
        if cleared != 0 {
            self.live_slow.fetch_and(!cleared, Ordering::AcqRel);
        }
    }

    pub(crate) fn note_degraded_window(&self) {
        self.degraded_windows.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_reroute(&self) {
        self.reroutes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_redispatch(&self) {
        self.redispatches.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_overload(&self) {
        self.overloads.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_unavailable_reject(&self) {
        self.unavailable_rejects.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Sealed windows whose execution interval had at least one device down.
    pub fn degraded_windows(&self) -> u64 {
        self.degraded_windows.load(Ordering::Relaxed)
    }

    /// Admitted requests steered away from a failed replica at admission
    /// time (the request named a down device; the feasibility graph routed
    /// it to a survivor).
    pub fn reroutes(&self) -> u64 {
        self.reroutes.load(Ordering::Relaxed)
    }

    /// Requests drained off a failing device at window seal and
    /// re-dispatched to a surviving replica within the same interval (live
    /// injections landing between admission and seal).
    pub fn redispatches(&self) -> u64 {
        self.redispatches.load(Ordering::Relaxed)
    }

    /// Degraded-window seal rebuilds that found no `M`-respecting slot for
    /// a request on any surviving replica and overloaded the least-loaded
    /// one instead. Can only happen when a *live* injection lands after
    /// admission and the already-admitted set is infeasible on the
    /// surviving subgraph; the request may then finish late — every such
    /// miss shows up in the deadline audit, never hidden. Scripted
    /// schedules keep this at zero by construction (the admission mask
    /// already covers the execution interval).
    pub fn overloads(&self) -> u64 {
        self.overloads.load(Ordering::Relaxed)
    }

    /// Submissions rejected because every replica of the block was down
    /// across the admissible horizon (≥ `c` co-hosting failures).
    pub fn unavailable_rejects(&self) -> u64 {
        self.unavailable_rejects.load(Ordering::Relaxed)
    }

    /// Deadline-aware re-dispatches: seal-time drains off a detected-slow
    /// device plus worker-side backoff retry hops past the first hedge.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{assert_one_side_per_line, span, Side};
    use fqos_flashsim::BLOCK_READ_NS;

    #[test]
    fn schedule_parse_round_trips() {
        let s = FaultSchedule::parse("fail:2@10, recover:2@20 fail:0@15").unwrap();
        assert_eq!(
            s,
            FaultSchedule::new().fail(2, 10).recover(2, 20).fail(0, 15)
        );
        assert!(FaultSchedule::parse("").unwrap().is_empty());
        assert!(FaultSchedule::parse("explode:1@2").is_err());
        assert!(FaultSchedule::parse("fail:x@2").is_err());
        assert!(FaultSchedule::parse("fail:1").is_err());
        assert!(FaultSchedule::parse("1@2").is_err());
    }

    #[test]
    fn schedule_parse_splits_on_every_separator() {
        let s = FaultSchedule::new().fail(1, 6).recover(1, 14);
        for sep in [",", " ", "\n", "\t", ", ", "\n\t", " ,\n"] {
            let spec = format!("fail:1@6{sep}recover:1@14{sep}");
            assert_eq!(FaultSchedule::parse(&spec).unwrap(), s, "{spec:?}");
        }
    }

    #[test]
    fn schedule_parse_slow_and_restore() {
        let s = FaultSchedule::parse("slow:2@10 restore:2@30, slow:1@5x4").unwrap();
        assert_eq!(
            s,
            FaultSchedule::new()
                .slow(2, 10, DEFAULT_SLOW_FACTOR)
                .restore(2, 30)
                .slow(1, 5, 4)
        );
        assert!(matches!(
            FaultSchedule::parse("slow:1@5xq"),
            Err(FaultSpecError::BadToken { .. })
        ));
        // The x<factor> suffix belongs to slow alone.
        assert!(FaultSchedule::parse("fail:1@5x4").is_err());
        assert!(matches!(
            FaultSchedule::parse("melt:1@5"),
            Err(FaultSpecError::UnknownEvent { .. })
        ));
    }

    #[test]
    fn schedule_validation_checks_device_range() {
        let s = FaultSchedule::new().fail(9, 5);
        assert_eq!(
            s.validate(9),
            Err(FaultSpecError::DeviceOutOfRange {
                device: 9,
                devices: 9
            })
        );
        assert!(s.validate(10).is_ok());
        assert_eq!(
            FaultSchedule::new().validate(65),
            Err(FaultSpecError::TooManyDevices { devices: 65 })
        );
    }

    #[test]
    fn schedule_validation_checks_horizon_and_factor() {
        let s = FaultSchedule::new().slow(1, 40, 10);
        assert!(s.validate_for(4, Some(41)).is_ok());
        assert_eq!(
            s.validate_for(4, Some(40)),
            Err(FaultSpecError::WindowBeyondHorizon {
                device: 1,
                window: 40,
                horizon: 40
            })
        );
        assert_eq!(
            FaultSchedule::new().slow(0, 1, 1).validate(4),
            Err(FaultSpecError::SlowFactorTooSmall {
                device: 0,
                factor: 1
            })
        );
        // Typed errors render with context for the CLI.
        let msg = FaultSpecError::WindowBeyondHorizon {
            device: 1,
            window: 40,
            horizon: 40,
        }
        .to_string();
        assert!(msg.contains("device 1") && msg.contains("window 40"));
    }

    #[test]
    fn masks_follow_the_timeline() {
        let plane = FaultPlane::new(
            4,
            FaultSchedule::new()
                .fail(1, 10)
                .fail(3, 12)
                .recover(1, 20)
                .recover(3, 20),
        )
        .unwrap();
        assert_eq!(plane.mask_at(0), 0);
        assert_eq!(plane.mask_at(9), 0);
        assert_eq!(plane.mask_at(10), 0b0010);
        assert_eq!(plane.mask_at(11), 0b0010);
        assert_eq!(plane.mask_at(12), 0b1010);
        assert_eq!(plane.mask_at(19), 0b1010);
        assert_eq!(plane.mask_at(20), 0);
    }

    #[test]
    fn admission_mask_is_the_arrival_exec_union() {
        // Fail at 10: window 9 admissions execute during 10, so window 9
        // already sees the device as down. Recover at 20: window 19
        // admissions execute during 20 but stay conservative.
        let plane = FaultPlane::new(2, FaultSchedule::new().fail(0, 10).recover(0, 20)).unwrap();
        assert_eq!(plane.admission_mask(8), 0);
        assert_eq!(plane.admission_mask(9), 1);
        assert_eq!(plane.admission_mask(15), 1);
        assert_eq!(plane.admission_mask(19), 1);
        assert_eq!(plane.admission_mask(20), 0);
    }

    #[test]
    fn healthy_plane_is_lock_free_zero() {
        let plane = FaultPlane::new(8, FaultSchedule::new()).unwrap();
        assert_eq!(plane.mask_at(123), 0);
        assert_eq!(plane.admission_mask(u64::MAX - 1), 0);
        assert_eq!(plane.slow_factor_at(3, 99), 1);
        assert_eq!(plane.live_slow_mask(), 0);
    }

    #[test]
    fn live_injection_extends_the_timeline() {
        let plane = FaultPlane::new(3, FaultSchedule::new().fail(2, 5)).unwrap();
        plane.inject(1, FaultKind::Fail, 7).unwrap();
        plane.inject(2, FaultKind::Recover, 8).unwrap();
        assert_eq!(plane.mask_at(6), 0b100);
        assert_eq!(plane.mask_at(7), 0b110);
        assert_eq!(plane.mask_at(8), 0b010);
        assert!(plane.inject(3, FaultKind::Fail, 0).is_err());
    }

    #[test]
    fn duplicate_events_are_idempotent() {
        let plane = FaultPlane::new(2, FaultSchedule::new().fail(0, 3).fail(0, 4)).unwrap();
        assert_eq!(plane.mask_at(4), 1);
        plane.inject(0, FaultKind::Recover, 9).unwrap();
        assert_eq!(plane.mask_at(9), 0);
    }

    #[test]
    fn slow_events_degrade_silently() {
        let plane =
            FaultPlane::new(4, FaultSchedule::new().slow(2, 10, 10).restore(2, 30)).unwrap();
        assert_eq!(plane.slow_factor_at(2, 9), 1);
        assert_eq!(plane.slow_factor_at(2, 10), 10);
        assert_eq!(plane.slow_factor_at(2, 29), 10);
        assert_eq!(plane.slow_factor_at(2, 30), 1);
        assert_eq!(plane.slow_factor_at(1, 15), 1);
        // Fail-slow never enters the fail-stop masks: admission is blind
        // to it until the scorer says otherwise.
        assert_eq!(plane.mask_at(15), 0);
        assert_eq!(plane.admission_mask(15), 0);
        assert_eq!(plane.live_slow_mask(), 0);
        // Live degradation injections extend the same timeline.
        plane.inject(1, FaultKind::Slow(4), 12).unwrap();
        assert_eq!(plane.slow_factor_at(1, 12), 4);
        plane.inject(1, FaultKind::Restore, 14).unwrap();
        assert_eq!(plane.slow_factor_at(1, 14), 1);
        assert!(plane.inject(1, FaultKind::Slow(1), 20).is_err());
    }

    const BASE: u64 = BLOCK_READ_NS;

    #[test]
    fn scorer_single_outlier_does_not_flap() {
        let plane = FaultPlane::new(4, FaultSchedule::new()).unwrap();
        for w in 0..5 {
            plane.observe(0, BASE, w);
        }
        assert_eq!(plane.health_state(0), DeviceHealth::Healthy);
        plane.observe(0, 10 * BASE, 5);
        assert_eq!(plane.health_state(0), DeviceHealth::Suspect);
        assert_eq!(plane.live_slow_mask(), 0, "suspect is still schedulable");
        plane.observe(0, BASE, 6);
        assert_eq!(plane.health_state(0), DeviceHealth::Healthy);
        assert_eq!(plane.board().slow_detected, 0);
        assert_eq!(plane.board().suspects, 1);
        // The outlier did not drag the baseline up: the next anomaly is
        // still judged against the calibrated EWMA.
        plane.observe(0, 10 * BASE, 7);
        assert_eq!(plane.health_state(0), DeviceHealth::Suspect);
    }

    #[test]
    fn scorer_promotes_on_streak_and_recovers_with_hysteresis() {
        let plane = FaultPlane::new(4, FaultSchedule::new()).unwrap();
        for w in 0..4 {
            plane.observe(1, BASE, w);
        }
        // Three consecutive anomalies: Healthy → Suspect → … → Slow.
        plane.observe(1, 10 * BASE, 4);
        plane.observe(1, 10 * BASE, 4);
        assert_eq!(plane.health_state(1), DeviceHealth::Suspect);
        plane.observe(1, 10 * BASE, 5);
        assert_eq!(plane.health_state(1), DeviceHealth::Slow);
        assert_eq!(plane.live_slow_mask(), 0b10);
        assert_eq!(plane.admission_mask(5), 0, "slow is not fail-stop");
        assert_eq!(plane.board().slow_detected, 1);
        // Recovery needs a sustained normal streak, not one good sample.
        for w in 6..13 {
            plane.observe(1, BASE, w);
            assert_eq!(plane.health_state(1), DeviceHealth::Slow, "window {w}");
        }
        plane.observe(1, BASE, 13);
        assert_eq!(plane.health_state(1), DeviceHealth::Healthy);
        assert_eq!(plane.live_slow_mask(), 0);
        assert_eq!(plane.board().recoveries, 1);
    }

    #[test]
    fn a_device_slow_from_its_first_sample_is_condemned() {
        // No healthy history to compare against: the calibrated service
        // time is the baseline, so the first sample already counts.
        let plane = FaultPlane::new(2, FaultSchedule::new()).unwrap();
        for w in 0..3 {
            plane.observe(0, 10 * BASE, w);
        }
        assert_eq!(plane.health_state(0), DeviceHealth::Slow);
        assert_eq!(plane.live_slow_mask(), 0b01);
        assert_eq!(plane.board().slow_detected, 1);
        assert_eq!(
            plane.board().service_estimate(0),
            BASE,
            "baseline did not chase"
        );
    }

    #[test]
    fn hedge_threshold_needs_samples_then_tracks_the_tail() {
        let plane = FaultPlane::new(2, FaultSchedule::new()).unwrap();
        assert_eq!(plane.hedge_threshold(0), None);
        for w in 0..3 {
            plane.observe(0, BASE, w);
        }
        assert_eq!(plane.hedge_threshold(0), None, "below min samples");
        plane.observe(0, BASE, 3);
        // Defaults: p90 of a flat ring is BASE, slack 2.0.
        assert_eq!(plane.hedge_threshold(0), Some(2 * BASE));
        assert_eq!(plane.board().service_estimate(0), BASE);
        assert_eq!(plane.board().service_estimate(1), BASE, "no samples yet");
        // A normal sample moves the baseline an eighth of the way.
        plane.observe(1, 2 * BASE, 4);
        assert_eq!(plane.board().service_estimate(1), BASE + BASE / 8);
    }

    /// What `hedge_threshold` ran under the scorer's lock before it
    /// sorted on the stack: clone the ring to the heap, sort, index.
    fn hedge_base_by_clone_and_sort(samples: &[u64]) -> u64 {
        let mut v = samples.to_vec();
        v.sort_unstable();
        v[((v.len() as f64 * HEDGE_PERCENTILE).ceil() as usize).clamp(1, v.len()) - 1]
    }

    #[test]
    fn hedge_base_on_the_stack_equals_clone_and_sort() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        for _ in 0..1000 {
            let ring: Vec<u64> = (0..rng.gen_range(1..=HEALTH_WINDOW))
                .map(|_| rng.gen_range(0..=20 * BASE))
                .collect();
            assert_eq!(
                hedge_base(&ring),
                hedge_base_by_clone_and_sort(&ring),
                "{ring:?}"
            );
        }
    }

    #[test]
    fn hedge_base_equals_clone_and_sort_at_every_length_with_ties() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x71e5);
        for len in 1..=HEALTH_WINDOW {
            // Few distinct values, so most rings repeat their largest.
            for distinct in [1u64, 2, 3, 5] {
                for _ in 0..200 {
                    let ring: Vec<u64> = (0..len)
                        .map(|_| rng.gen_range(0..distinct) * BASE)
                        .collect();
                    assert_eq!(
                        hedge_base(&ring),
                        hedge_base_by_clone_and_sort(&ring),
                        "{ring:?}"
                    );
                }
            }
        }
    }

    /// What a hedge is told about a peer's device must not depend on how
    /// far the peer's serving worker has run ahead (`faults.rs`'s GC storm
    /// missed 0–9 deadlines by it, with the thread interleaving).
    #[test]
    fn a_hedge_meets_the_frontier_of_its_own_window() {
        let mut devs = Devices::new(vec![CalibratedSsd::with_latencies(100, 100); 2], 4);
        // A 100 ns read on device 1, issued at `issue` as exec window
        // `window`'s work.
        let read = |devs: &mut Devices, issue, window| {
            let req = IoRequest::read_block(0, 0, 1, 0);
            devs.submit(&req, issue, 1, window)
        };
        read(&mut devs, 0, 5);
        read(&mut devs, 0, 5); // queues behind the first: finishes at 200
        read(&mut devs, 600, 7); // window 6 had nothing for the device
        let last = read(&mut devs, 750, 8);
        assert_eq!((last.service_start, last.finish), (750, 850));
        for (window, frontier) in [(4, 0), (5, 200), (6, 200), (7, 700), (8, 850)] {
            assert_eq!(devs.busy_as_of(1, window), frontier, "window {window}");
        }
        assert_eq!(devs.busy_as_of(0, 5), 0, "per device");
        // A hedge win cancels the primary; the entry of its window stands.
        assert!(devs.models[1].cancel(&last));
        assert_eq!((devs.busy_as_of(1, 7), devs.busy_as_of(1, 8)), (700, 750));
        // Serving worker more than `depth` windows ahead: the slots of 5
        // and 7 are reused, and the answer is late.
        read(&mut devs, 800, 9);
        read(&mut devs, 1000, 11);
        assert_eq!(devs.busy_as_of(1, 4), 700, "5, 7 gone; 8 entered at 700");
        assert_eq!(devs.busy_as_of(1, 5), 700);
        assert_eq!(devs.busy_as_of(1, 8), 750);
        assert_eq!(devs.busy_as_of(1, 10), 900);
        // Serving worker behind the asking window: the live frontier, which
        // lacks window 12's primaries, is early.
        assert_eq!(devs.busy_as_of(1, 12), 1100);
        read(&mut devs, 1050, 12);
        assert_eq!(devs.busy_as_of(1, 12), 1200);
    }

    #[test]
    fn layout_keeps_the_admission_view_off_the_lines_workers_write() {
        let plane = FaultPlane::new(9, FaultSchedule::new()).unwrap();
        let FaultPlane {
            any,
            any_slow,
            live_slow,
            devices,
            _gap,
            degraded_windows,
            reroutes,
            redispatches,
            overloads,
            unavailable_rejects,
            _gap_workers,
            health,
            retries,
        } = &plane;
        let spans = vec![
            // Read per window by admission and seal; written by an
            // injection or a scorer verdict.
            span("any", any, Side::ReadMostly),
            span("any_slow", any_slow, Side::ReadMostly),
            span("live_slow", live_slow, Side::ReadMostly),
            span("devices", devices, Side::ReadMostly),
            span("_gap", _gap, Side::Gap),
            // Bumped by admission and seal while a fault is in force.
            span("degraded_windows", degraded_windows, Side::Submitter),
            span("reroutes", reroutes, Side::Submitter),
            span("redispatches", redispatches, Side::Submitter),
            span("overloads", overloads, Side::Submitter),
            span("unavailable_rejects", unavailable_rejects, Side::Submitter),
            span("_gap_workers", _gap_workers, Side::Gap),
            // Held by workers once per served read and write copy.
            span("health", health, Side::Worker),
            span("retries", retries, Side::Worker),
        ];
        assert_one_side_per_line(&plane, spans);
    }

    #[test]
    fn probe_tick_reschedules_a_starved_slow_device() {
        let plane = FaultPlane::new(2, FaultSchedule::new()).unwrap();
        for w in 0..4 {
            plane.observe(0, BASE, w);
        }
        for _ in 0..3 {
            plane.observe(0, 10 * BASE, 4);
        }
        assert_eq!(plane.health_state(0), DeviceHealth::Slow);
        assert_eq!(plane.live_slow_mask(), 1);
        // Excluded from schedules → no samples. Before the probe TTL the
        // bit stays; once it expires the device is put back on probation.
        plane.health_tick(5);
        assert_eq!(plane.live_slow_mask(), 1);
        plane.health_tick(4 + PROBE_WINDOWS);
        assert_eq!(plane.live_slow_mask(), 0);
        assert_eq!(plane.health_state(0), DeviceHealth::Suspect);
        // Probation is not a counted recovery.
        assert_eq!(plane.board().recoveries, 0);
    }
}
