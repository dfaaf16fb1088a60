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
//! * live injections ([`crate::QosServer::inject_fault`],
//!   [`crate::QosServer::degrade_device`]), which take effect at the next
//!   unsealed window, and
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
//! Lock classes owned by this module (see DESIGN.md "Concurrency
//! invariants"): `fault.inner` (event timeline) and `fault.health` (scorer
//! state) — both leaves, acquired by workers holding no other lock and by
//! the dispatcher under `engine.dispatch`.

use fqos_flashsim::BLOCK_READ_NS;
use fqos_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use fqos_sync::{Class, LineGap, Mutex};

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

/// Events plus the timeline compiled from them: `timeline[i] = (w, mask)`
/// means `mask` holds for windows in `w .. timeline[i+1].0`. Only
/// fail-stop events contribute to the mask; fail-slow events are kept in
/// `events` and scanned by `slow_factor_at` (they are few and silent).
#[derive(Debug, Default)]
struct PlaneInner {
    events: Vec<FaultEvent>,
    timeline: Vec<(u64, u64)>,
}

impl PlaneInner {
    fn recompile(&mut self) {
        // Stable by window: same-window events apply in injection order.
        self.events.sort_by_key(|e| e.window);
        self.timeline.clear();
        let mut mask = 0u64;
        for e in &self.events {
            match e.kind {
                FaultKind::Fail => mask |= 1 << e.device,
                FaultKind::Recover => mask &= !(1 << e.device),
                FaultKind::Slow(_) | FaultKind::Restore => continue,
            }
            match self.timeline.last_mut() {
                Some(last) if last.0 == e.window => last.1 = mask,
                _ => self.timeline.push((e.window, mask)),
            }
        }
    }

    fn mask_at(&self, window: u64) -> u64 {
        match self.timeline.partition_point(|&(w, _)| w <= window) {
            0 => 0,
            i => self.timeline[i - 1].1,
        }
    }

    fn slow_factor_at(&self, device: usize, window: u64) -> u32 {
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

/// Scorer state for the whole array; behind the `fault.health` leaf lock.
#[derive(Debug)]
struct HealthBoard {
    devices: Vec<DeviceHealthState>,
}

/// Shared device-health view plus the degraded-serving audit counters.
///
/// Owned by the engine, consulted by the window ring on every admission and
/// seal and by every worker completion. All counter reads/writes are
/// relaxed atomics; the event timeline sits behind one small mutex
/// (`fault.inner`) with a lock-free fast path while no fault has ever been
/// scripted or injected, and the scorer behind another (`fault.health`).
/// The scorer's verdict is published lock-free in `live_slow`, so the
/// admission hot path never touches the scorer lock.
///
/// Laid out by writer (DESIGN.md, "One writer per line"): what admission
/// and seal read per window and nobody writes while the array is healthy,
/// a gap, the audit counters the submitting side bumps, a gap, then the
/// scorer lock workers take per completion and the counters they bump.
#[derive(Debug)]
#[repr(C)]
pub struct FaultPlane {
    devices: usize,
    inner: Mutex<PlaneInner>,
    /// False until the first event exists: lets the healthy hot path skip
    /// the timeline lock entirely.
    any: AtomicBool,
    /// False until a fail-slow event exists: lets workers skip the
    /// per-completion factor lookup on healthy arrays.
    any_slow: AtomicBool,
    /// False until the first GC observation: keeps the per-seal decay a
    /// no-op on read-only workloads.
    any_gc: AtomicBool,
    /// Bitmap of devices the scorer currently classifies `Slow`. Excluded
    /// from new window schedules like failed devices, but their in-flight
    /// work drains.
    live_slow: AtomicU64,
    /// Per-device write-amplification EWMA, fixed-point `×256`
    /// (`256` = WA 1.0). Two writers: the device's owning worker raises it
    /// per write copy ([`FaultPlane::observe_gc`]) and the sealing thread
    /// decays it per window, so both go through `fetch_update`. Read by
    /// window admission to size the GC-pressure reserve.
    gc_pressure: Vec<AtomicU64>,
    _gap: LineGap,
    degraded_windows: AtomicU64,
    reroutes: AtomicU64,
    redispatches: AtomicU64,
    overloads: AtomicU64,
    unavailable_rejects: AtomicU64,
    _gap_workers: LineGap,
    health: Mutex<HealthBoard>,
    /// Per device, the scorer's EWMA baseline as [`FaultPlane::observe`]
    /// last left it, published under the scorer's lock so that
    /// [`FaultPlane::service_estimate`] is a load.
    service_ewma: Vec<AtomicU64>,
    slow_detected: AtomicU64,
    suspects: AtomicU64,
    recoveries: AtomicU64,
    /// Workers' backoff hops; the seal's drains off a slow device too.
    retries: AtomicU64,
}

/// Fixed-point unit of the GC-pressure EWMA (`256` = write amplification 1.0).
const GC_FP_ONE: u64 = 256;

#[cfg(test)]
thread_local! {
    /// Stores to `any_gc` made from this thread (`observe_gc`).
    static ANY_GC_STORES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl FaultPlane {
    /// Build the plane for `devices` paper-calibrated devices from a
    /// scripted schedule.
    pub fn new(devices: usize, schedule: FaultSchedule) -> Result<Self, String> {
        FaultPlane::calibrated(devices, schedule, BLOCK_READ_NS)
    }

    /// Build the plane for devices whose calibrated single-block service
    /// time is `service_ns` (the scorer's starting baseline).
    pub(crate) fn calibrated(
        devices: usize,
        schedule: FaultSchedule,
        service_ns: u64,
    ) -> Result<Self, String> {
        schedule.validate(devices).map_err(|e| e.to_string())?;
        let any_slow = schedule
            .events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::Slow(_)));
        let mut inner = PlaneInner {
            events: schedule.events,
            timeline: Vec::new(),
        };
        inner.recompile();
        let any = !inner.events.is_empty();
        Ok(FaultPlane {
            devices,
            inner: Mutex::new(Class::FaultInner, inner),
            any: AtomicBool::new(any),
            any_slow: AtomicBool::new(any_slow),
            any_gc: AtomicBool::new(false),
            live_slow: AtomicU64::new(0),
            gc_pressure: (0..devices).map(|_| AtomicU64::new(GC_FP_ONE)).collect(),
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
                    devices: (0..devices)
                        .map(|_| DeviceHealthState::new(service_ns))
                        .collect(),
                },
            ),
            service_ewma: (0..devices)
                .map(|_| AtomicU64::new(service_ns.max(1)))
                .collect(),
            slow_detected: AtomicU64::new(0),
            suspects: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
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
        self.inner.lock().mask_at(window)
    }

    /// Conservative health view for admitting into window `window`:
    /// excludes devices down on arrival (`window`) *or* during the
    /// execution interval (`window + 1`).
    pub fn admission_mask(&self, window: u64) -> u64 {
        if !self.any.load(Ordering::Acquire) {
            return 0;
        }
        let inner = self.inner.lock();
        inner.mask_at(window) | inner.mask_at(window + 1)
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
        self.inner.lock().slow_factor_at(device, window)
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
        let mut inner = self.inner.lock();
        inner.events.push(FaultEvent {
            device,
            window,
            kind,
        });
        inner.recompile();
        drop(inner);
        if matches!(kind, FaultKind::Slow(_)) {
            self.any_slow.store(true, Ordering::Release);
        }
        self.any.store(true, Ordering::Release);
        Ok(())
    }

    /// Record one completion's service latency for the scorer. Called by
    /// workers after every (non-cancelled) device completion; takes only
    /// the `fault.health` leaf lock.
    pub fn observe(&self, device: usize, service_ns: u64, window: u64) {
        let mut board = self.health.lock();
        let Some(st) = board.devices.get_mut(device) else {
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
            self.service_ewma[device].store(st.ewma_ns, Ordering::Release);
        }
        let prev = st.state;
        let next = match prev {
            DeviceHealth::Healthy => {
                if anomalous {
                    st.bad_streak = 1;
                    DeviceHealth::Suspect
                } else {
                    DeviceHealth::Healthy
                }
            }
            DeviceHealth::Suspect => {
                if anomalous {
                    st.bad_streak += 1;
                    if st.bad_streak >= PROMOTE_STREAK {
                        st.good_streak = 0;
                        DeviceHealth::Slow
                    } else {
                        DeviceHealth::Suspect
                    }
                } else {
                    // One normal completion clears suspicion: a single
                    // outlier never flaps a device out of schedules.
                    st.bad_streak = 0;
                    DeviceHealth::Healthy
                }
            }
            DeviceHealth::Slow => {
                if anomalous {
                    st.good_streak = 0;
                    DeviceHealth::Slow
                } else {
                    st.good_streak += 1;
                    if st.good_streak >= RECOVER_STREAK {
                        st.good_streak = 0;
                        st.bad_streak = 0;
                        DeviceHealth::Healthy
                    } else {
                        DeviceHealth::Slow
                    }
                }
            }
        };
        st.state = next;
        drop(board);
        if next != prev {
            self.note_health_transition(device, prev, next);
        }
    }

    fn note_health_transition(&self, device: usize, prev: DeviceHealth, next: DeviceHealth) {
        match next {
            DeviceHealth::Suspect => {
                self.suspects.fetch_add(1, Ordering::Relaxed);
            }
            DeviceHealth::Slow => {
                self.slow_detected.fetch_add(1, Ordering::Relaxed);
                self.live_slow.fetch_or(1 << device, Ordering::AcqRel);
            }
            DeviceHealth::Healthy => {
                if prev == DeviceHealth::Slow {
                    self.recoveries.fetch_add(1, Ordering::Relaxed);
                    self.live_slow.fetch_and(!(1 << device), Ordering::AcqRel);
                }
            }
        }
    }

    /// The scorer's current verdict for `device`.
    pub fn health_state(&self, device: usize) -> DeviceHealth {
        self.health
            .lock()
            .devices
            .get(device)
            .map(|s| s.state)
            .unwrap_or(DeviceHealth::Healthy)
    }

    /// Latency above which a dispatch on `device` should be hedged:
    /// [`HEDGE_SLACK`] × the [`HEDGE_PERCENTILE`] quantile of the device's
    /// recent service latencies. `None` until `HEDGE_MIN_SAMPLES` have
    /// been observed — hedging with no baseline would be guessing.
    pub fn hedge_threshold(&self, device: usize) -> Option<u64> {
        let board = self.health.lock();
        let st = board.devices.get(device)?;
        if st.samples.len() < HEDGE_MIN_SAMPLES {
            return None;
        }
        Some((hedge_base(&st.samples) as f64 * HEDGE_SLACK) as u64)
    }

    /// Best current estimate of a single-block service latency on
    /// `device`: the scorer's EWMA baseline (the calibrated service time
    /// before any sample exists). Used for earliest-finish-time hedge
    /// target choice.
    pub fn service_estimate(&self, device: usize) -> u64 {
        self.service_ewma[device].load(Ordering::Acquire)
    }

    /// Dispatcher probe tick, called as each window seals: a `Slow` device
    /// that has been excluded from schedules stops producing samples and
    /// would stay `Slow` forever. After `PROBE_WINDOWS` sealed windows
    /// without an observation it is demoted to `Suspect` and its exclusion
    /// bit cleared, so the next schedules route a little work back to it —
    /// either the samples come back normal (full recovery) or the anomaly
    /// streak re-promotes it within `PROMOTE_STREAK` completions.
    pub(crate) fn health_tick(&self, sealed_window: u64) {
        self.gc_decay();
        let slow = self.live_slow.load(Ordering::Acquire);
        if slow == 0 {
            return;
        }
        let mut cleared = 0u64;
        let mut board = self.health.lock();
        for (d, st) in board.devices.iter_mut().enumerate() {
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
        drop(board);
        if cleared != 0 {
            self.live_slow.fetch_and(!cleared, Ordering::AcqRel);
        }
    }

    /// Record the FTL outcome of one host write on `device`: `programmed`
    /// total page programs (host + GC relocations) for `host` host pages.
    /// Feeds the write-amplification EWMA (α = 1/8) behind the GC-pressure
    /// admission reserve. The sealing thread's per-window decay writes the
    /// same cell, so the step is a `fetch_update`: neither is lost.
    pub fn observe_gc(&self, device: usize, host: u64, programmed: u64) {
        let Some(cell) = self.gc_pressure.get(device) else {
            return;
        };
        if host == 0 {
            return;
        }
        let sample = programmed * GC_FP_ONE / host;
        let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |ewma| {
            let delta = sample as i64 - ewma as i64;
            Some((ewma as i64 + (delta >> 3)).max(GC_FP_ONE as i64) as u64)
        });
        // Admission reads this flag every window: write the line once in
        // the plane's life (once per racing worker), not once per copy.
        if !self.any_gc.load(Ordering::Relaxed) {
            #[cfg(test)]
            ANY_GC_STORES.with(|n| n.set(n.get() + 1));
            self.any_gc.store(true, Ordering::Release);
        }
    }

    /// Decay every device's GC-pressure EWMA toward 1.0 (one step per
    /// sealed window): a device whose write storm ended gives its reserved
    /// headroom back to `S(M)` within a few windows.
    fn gc_decay(&self) {
        if !self.any_gc.load(Ordering::Acquire) {
            return;
        }
        for cell in &self.gc_pressure {
            let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |ewma| {
                (ewma > GC_FP_ONE).then(|| ewma - ((ewma - GC_FP_ONE) >> 4).max(1))
            });
        }
    }

    /// The device's current write-amplification estimate (EWMA; 1.0 when
    /// the device has seen no GC).
    pub fn write_amp_estimate(&self, device: usize) -> f64 {
        self.gc_pressure
            .get(device)
            .map(|c| c.load(Ordering::Relaxed) as f64 / GC_FP_ONE as f64)
            .unwrap_or(1.0)
    }

    /// Access slots window admission reserves on `device` out of a
    /// per-device budget of `accesses`: GC-pressure headroom stolen from
    /// `S(M)` in proportion to the amplification excess `WA − 1`, capped
    /// at half the budget so reads are never starved outright. Zero while
    /// the device shows no amplification.
    pub fn gc_reserve(&self, device: usize, accesses: usize) -> usize {
        if !self.any_gc.load(Ordering::Acquire) {
            return 0;
        }
        let Some(cell) = self.gc_pressure.get(device) else {
            return 0;
        };
        let excess = cell.load(Ordering::Relaxed).saturating_sub(GC_FP_ONE);
        ((excess as usize * accesses) / (2 * GC_FP_ONE as usize)).min(accesses / 2)
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

    /// Devices the scorer promoted to `Slow` (entries, not a level).
    pub fn slow_detected(&self) -> u64 {
        self.slow_detected.load(Ordering::Relaxed)
    }

    /// Devices the scorer moved `Healthy → Suspect` (entries).
    pub fn health_suspects(&self) -> u64 {
        self.suspects.load(Ordering::Relaxed)
    }

    /// Devices the scorer demoted `Slow → Healthy` (entries).
    pub fn health_recoveries(&self) -> u64 {
        self.recoveries.load(Ordering::Relaxed)
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
        assert_eq!(plane.slow_detected(), 0);
        assert_eq!(plane.health_suspects(), 1);
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
        assert_eq!(plane.slow_detected(), 1);
        // Recovery needs a sustained normal streak, not one good sample.
        for w in 6..13 {
            plane.observe(1, BASE, w);
            assert_eq!(plane.health_state(1), DeviceHealth::Slow, "window {w}");
        }
        plane.observe(1, BASE, 13);
        assert_eq!(plane.health_state(1), DeviceHealth::Healthy);
        assert_eq!(plane.live_slow_mask(), 0);
        assert_eq!(plane.health_recoveries(), 1);
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
        assert_eq!(plane.slow_detected(), 1);
        assert_eq!(plane.service_estimate(0), BASE, "baseline did not chase");
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
        assert_eq!(plane.service_estimate(0), BASE);
        assert_eq!(plane.service_estimate(1), BASE, "no samples yet");
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

    #[test]
    fn service_estimate_is_the_ewma_under_the_lock_after_every_sample() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xe57);
        let plane = FaultPlane::new(9, FaultSchedule::new()).unwrap();
        // Samples reach a device from its owner (primaries, write copies)
        // and from any worker whose hedge it won: any device, any order,
        // normal, GC-stalled (baseline untouched) and in between.
        for step in 0..20_000u64 {
            let d = rng.gen_range(0..9usize);
            let ns = match rng.gen_range(0..4u32) {
                0 => rng.gen_range(1..=BASE / 2),
                1 => 10 * BASE,
                _ => rng.gen_range(BASE..3 * BASE),
            };
            plane.observe(d, ns, step / 14);
            for dev in 0..9 {
                let under_the_lock = plane.health.lock().devices[dev].ewma_ns;
                assert_eq!(plane.service_estimate(dev), under_the_lock, "step {step}");
            }
        }
        assert!(
            (0..9).any(|d| plane.service_estimate(d) != BASE),
            "it moved"
        );
    }

    #[test]
    fn service_estimate_does_not_take_the_scorer_lock() {
        // A hedge asks once per candidate; the scorer's lock is for the
        // two holds a read cannot avoid (threshold, sample).
        let plane = std::sync::Arc::new(FaultPlane::new(3, FaultSchedule::new()).unwrap());
        let held = plane.health.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        let asker = {
            let plane = std::sync::Arc::clone(&plane);
            std::thread::spawn(move || tx.send(plane.service_estimate(1)))
        };
        let answered = rx.recv_timeout(std::time::Duration::from_secs(10));
        drop(held);
        asker.join().unwrap().unwrap();
        assert_eq!(answered, Ok(BASE));
    }

    #[test]
    fn layout_keeps_the_admission_view_off_the_lines_workers_write() {
        let plane = FaultPlane::new(9, FaultSchedule::new()).unwrap();
        let FaultPlane {
            devices,
            inner,
            any,
            any_slow,
            any_gc,
            live_slow,
            gc_pressure,
            _gap,
            degraded_windows,
            reroutes,
            redispatches,
            overloads,
            unavailable_rejects,
            _gap_workers,
            health,
            service_ewma,
            slow_detected,
            suspects,
            recoveries,
            retries,
        } = &plane;
        let spans = vec![
            // Read per window by admission and seal, per item by workers;
            // written by an injection or a scorer verdict.
            span("devices", devices, Side::ReadMostly),
            span("inner", inner, Side::ReadMostly),
            span("any", any, Side::ReadMostly),
            span("any_slow", any_slow, Side::ReadMostly),
            span("any_gc", any_gc, Side::ReadMostly),
            span("live_slow", live_slow, Side::ReadMostly),
            span("gc_pressure", gc_pressure, Side::ReadMostly),
            span("_gap", _gap, Side::Gap),
            // Bumped by admission and seal while a fault is in force.
            span("degraded_windows", degraded_windows, Side::Submitter),
            span("reroutes", reroutes, Side::Submitter),
            span("redispatches", redispatches, Side::Submitter),
            span("overloads", overloads, Side::Submitter),
            span("unavailable_rejects", unavailable_rejects, Side::Submitter),
            span("_gap_workers", _gap_workers, Side::Gap),
            // Locked by workers around every completion.
            span("health", health, Side::Worker),
            span("service_ewma", service_ewma, Side::Worker),
            span("slow_detected", slow_detected, Side::Worker),
            span("suspects", suspects, Side::Worker),
            span("recoveries", recoveries, Side::Worker),
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
        assert_eq!(plane.health_recoveries(), 0);
    }

    #[test]
    fn gc_pressure_reserve_grows_with_amplification_and_decays() {
        let plane = FaultPlane::new(2, FaultSchedule::new()).unwrap();
        assert_eq!(plane.gc_reserve(0, 8), 0, "no GC observed yet");
        assert_eq!(plane.write_amp_estimate(0), 1.0);
        // Sustained WA-3 writes on device 0: the EWMA converges toward 3.0
        // and the reserve toward (3−1)/2 × budget = the half-budget cap.
        for _ in 0..64 {
            plane.observe_gc(0, 1, 3);
        }
        assert!(plane.write_amp_estimate(0) > 2.5);
        assert_eq!(plane.gc_reserve(0, 8), 4, "capped at half the budget");
        assert_eq!(plane.gc_reserve(1, 8), 0, "other devices unaffected");
        // Writes stop: per-seal decay hands the headroom back.
        for w in 0..200 {
            plane.health_tick(w);
        }
        assert_eq!(plane.gc_reserve(0, 8), 0, "pressure decayed away");
        assert!(plane.write_amp_estimate(0) < 1.1);
    }

    #[test]
    fn gc_pressure_steps_are_the_load_store_formulas() {
        // What `observe_gc` and `gc_decay` computed when each was a plain
        // load → store; one thread at a time the `fetch_update`s must give
        // the same cell values.
        fn observed(ewma: u64, host: u64, programmed: u64) -> u64 {
            let delta = (programmed * GC_FP_ONE / host) as i64 - ewma as i64;
            (ewma as i64 + (delta >> 3)).max(GC_FP_ONE as i64) as u64
        }
        fn decayed(ewma: u64) -> u64 {
            if ewma > GC_FP_ONE {
                ewma - ((ewma - GC_FP_ONE) >> 4).max(1)
            } else {
                ewma
            }
        }
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x6c);
        let plane = FaultPlane::new(3, FaultSchedule::new()).unwrap();
        let mut expected = [GC_FP_ONE; 3];
        for step in 0..50_000u64 {
            if rng.gen_range(0..3u32) == 0 {
                plane.health_tick(step);
                expected = expected.map(decayed);
            } else {
                let d = rng.gen_range(0..3usize);
                let host = rng.gen_range(1..=4u64);
                let programmed = host + rng.gen_range(0..=8u64) * rng.gen_range(0..=1u64);
                plane.observe_gc(d, host, programmed);
                expected[d] = observed(expected[d], host, programmed);
            }
            let cells: Vec<u64> = plane
                .gc_pressure
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect();
            assert_eq!(cells, expected, "step {step}");
        }
    }

    #[test]
    fn any_gc_is_stored_once_in_a_planes_life() {
        // The layout test lists `any_gc` with what nobody writes per
        // request; a store per write copy would make that a lie again.
        let stores = || ANY_GC_STORES.with(std::cell::Cell::get);
        let before = stores();
        let plane = FaultPlane::new(2, FaultSchedule::new()).unwrap();
        plane.observe_gc(0, 0, 0);
        assert_eq!(stores(), before, "no host page, no observation");
        for i in 0..1_000u64 {
            plane.observe_gc((i % 2) as usize, 1, 1 + i % 3);
            plane.health_tick(i);
        }
        assert_eq!(stores(), before + 1);
        assert!(plane.gc_reserve(0, 8) > 0, "and the flag is up");
    }

    #[test]
    fn gc_reserve_never_exceeds_half_the_budget() {
        let plane = FaultPlane::new(1, FaultSchedule::new()).unwrap();
        for _ in 0..200 {
            plane.observe_gc(0, 1, 50);
        }
        for accesses in [1usize, 2, 3, 8, 27] {
            assert!(plane.gc_reserve(0, accesses) <= accesses / 2);
        }
    }
}
