//! Drives an online workload through the public front doors —
//! `QosServer`/`SubmitterHandle` for one array, `QosCluster`/
//! `ClusterHandle` for a fleet — and folds what the system reports into
//! one ledger.
//!
//! Host load is a closed loop: each submitter thread calls `submit` back
//! to back and the engine's bounded worker queues push back. In simulated
//! time arrivals are an open loop: window `w` offers request `i` at
//! `w·T + i` whatever the backlog, and the system counts response from
//! that stamp.

use crate::gen::{self, Epoch, Req};
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::{Spec, CONTROL_TICK_WINDOWS, MAX_DRIFT_WINDOWS, SEGMENT};
use flash_qos::cluster::{ClusterConfig, ClusterHandle, ClusterMetrics, QosCluster};
use flash_qos::server::{
    AssignmentMode, IoOp, MetricsSnapshot, QosServer, RejectReason, ServerConfig, SubmitOutcome,
    SubmitterHandle,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// One in this many `submit` calls also gets a span in the trace file;
/// every call's duration feeds the latency figures regardless.
const SPAN_SAMPLE: u64 = 1024;

/// How long a run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Limit {
    /// Offer windows until this much host time has passed, then stop at
    /// the next load-cycle boundary.
    Seconds(f64),
    /// Offer exactly this many windows: simulated results then repeat
    /// exactly on the pinned workloads.
    Windows(u64),
}

impl Limit {
    pub fn scaled(self, share: f64) -> Limit {
        match self {
            Limit::Seconds(s) => Limit::Seconds(s * share),
            Limit::Windows(n) => Limit::Windows(((n as f64 * share) as u64).max(1)),
        }
    }

    /// Windows of input a run under this limit needs generated: a timed
    /// run replays the workload's whole epoch, a fixed-size run no more
    /// than it offers (in whole load cycles).
    pub fn epoch_windows(self, spec: &Spec) -> usize {
        match self {
            Limit::Seconds(_) => spec.epoch_windows,
            Limit::Windows(n) => {
                let cycle = spec.arrivals.cycle();
                (n as usize)
                    .div_ceil(cycle)
                    .saturating_mul(cycle)
                    .min(spec.epoch_windows)
            }
        }
    }
}

/// What the benchmark itself saw come back from `submit`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    pub admitted: u64,
    pub delayed: u64,
    pub delay_windows: u64,
    pub overflow: u64,
    pub rejected_horizon: u64,
    pub rejected_unavailable: u64,
    pub rejected_other: u64,
}

impl Outcomes {
    fn count(&mut self, out: SubmitOutcome) {
        match out {
            SubmitOutcome::Admitted { .. } => self.admitted += 1,
            SubmitOutcome::Delayed {
                delayed_windows, ..
            } => {
                self.delayed += 1;
                self.delay_windows += delayed_windows;
            }
            SubmitOutcome::Overflow { .. } => self.overflow += 1,
            SubmitOutcome::Rejected(RejectReason::HorizonExhausted) => self.rejected_horizon += 1,
            SubmitOutcome::Rejected(RejectReason::ReplicasUnavailable) => {
                self.rejected_unavailable += 1;
            }
            SubmitOutcome::Rejected(_) => self.rejected_other += 1,
        }
    }

    fn add(&mut self, o: &Outcomes) {
        self.admitted += o.admitted;
        self.delayed += o.delayed;
        self.delay_windows += o.delay_windows;
        self.overflow += o.overflow;
        self.rejected_horizon += o.rejected_horizon;
        self.rejected_unavailable += o.rejected_unavailable;
        self.rejected_other += o.rejected_other;
    }

    pub fn rejected(&self) -> u64 {
        self.rejected_horizon + self.rejected_unavailable + self.rejected_other
    }

    pub fn submitted(&self) -> u64 {
        self.admitted + self.delayed + self.overflow + self.rejected()
    }
}

/// The system's own counters summed over every array of the run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    pub admitted: u64,
    pub overflow: u64,
    pub delayed: u64,
    pub rejected: u64,
    pub served: u64,
    pub write_settled: u64,
    pub write_lost: u64,
    pub fault_lost: u64,
    pub hedges_issued: u64,
    pub hedges_won: u64,
    pub hedges_cancelled: u64,
    pub retries: u64,
    pub slow_detected: u64,
    pub deadline_violations: u64,
    pub guaranteed_violations: u64,
    pub windows_sealed: u64,
    pub max_window_total: u64,
    pub gc_host_pages: u64,
    pub gc_pages: u64,
    pub gc_relocated: u64,
    pub gc_erases: u64,
    pub wal_records: u64,
    pub wal_fsyncs: u64,
    pub wal_compactions: u64,
    pub wal_misordered: u64,
    pub wal_io_errors: u64,
    /// Mean simulated response over the samples, as the histograms report.
    pub mean_latency_ns: f64,
    /// Worst array's p99 (a log₂ bucket edge today).
    pub p99_latency_ns: u64,
    pub max_latency_ns: u64,
}

impl Ledger {
    pub fn sum(arrays: &[MetricsSnapshot]) -> Ledger {
        let mut l = Ledger::default();
        let mut latency_sum = 0.0;
        for m in arrays {
            l.admitted += m.admitted;
            l.overflow += m.overflow;
            l.delayed += m.delayed;
            l.rejected += m.rejected;
            l.served += m.served;
            l.write_settled += m.write_settled;
            l.write_lost += m.write_lost;
            l.fault_lost += m.fault_lost;
            l.hedges_issued += m.hedges_issued;
            l.hedges_won += m.hedges_won;
            l.hedges_cancelled += m.hedges_cancelled;
            l.retries += m.retries;
            l.slow_detected += m.slow_detected;
            l.deadline_violations += m.deadline_violations;
            l.guaranteed_violations += m.guaranteed_violations;
            l.windows_sealed += m.windows_sealed;
            l.max_window_total = l.max_window_total.max(m.max_window_total);
            l.gc_host_pages += m.gc_host_pages;
            l.gc_pages += m.gc_pages;
            l.gc_relocated += m.gc_relocated;
            l.gc_erases += m.gc_erases;
            l.wal_records += m.wal_records;
            l.wal_fsyncs += m.wal_fsyncs;
            l.wal_compactions += m.wal_compactions;
            l.wal_misordered += m.wal_misordered;
            l.wal_io_errors += m.wal_io_errors;
            latency_sum += m.mean_latency_ns * (m.completed() + m.write_settled) as f64;
            l.p99_latency_ns = l.p99_latency_ns.max(m.p99_latency_ns);
            l.max_latency_ns = l.max_latency_ns.max(m.max_latency_ns);
        }
        if l.latency_samples() > 0 {
            l.mean_latency_ns = latency_sum / l.latency_samples() as f64;
        }
        l
    }

    pub fn admitted_total(&self) -> u64 {
        self.admitted + self.overflow
    }

    /// Left side of the conservation law.
    pub fn settled(&self) -> u64 {
        self.served + self.write_settled + self.fault_lost + self.hedges_cancelled + self.write_lost
    }

    /// Requests whose response the latency histogram recorded: primaries,
    /// hedge wins and fully landed writes.
    pub fn latency_samples(&self) -> u64 {
        self.served + self.hedges_won + self.write_settled
    }

    /// Rejected, lost to faults, or lost writes.
    pub fn failed(&self) -> u64 {
        self.rejected + self.fault_lost + self.write_lost
    }

    pub fn write_amp(&self) -> f64 {
        if self.gc_host_pages == 0 {
            0.0
        } else {
            (self.gc_host_pages + self.gc_pages) as f64 / self.gc_host_pages as f64
        }
    }
}

/// One submitter thread's measurements.
#[derive(Debug, Default)]
pub struct Lane {
    pub outcomes: Outcomes,
    /// Seconds each full [`SEGMENT`] of requests took, in order.
    pub segment_s: Vec<f64>,
    /// Traced run only: every `submit` call's duration, saturating.
    pub submit_ns: Vec<u32>,
    pub first: Option<Instant>,
    pub last: Option<Instant>,
}

/// Result of driving one front to its limit.
#[derive(Debug, Default)]
pub struct Drive {
    pub lanes: Vec<Lane>,
    /// Largest lead (in windows) any submitter had over the slowest one.
    pub max_drift: u64,
    pub control_tick_us: Vec<f64>,
}

impl Drive {
    pub fn outcomes(&self) -> Outcomes {
        let mut o = Outcomes::default();
        for l in &self.lanes {
            o.add(&l.outcomes);
        }
        o
    }

    /// Per-lane request rates of the measured segments: the first segment
    /// of each lane is warm-up (ring slots and device models are built on
    /// first touch) and is left out.
    pub fn segment_rates(&self) -> Vec<Vec<f64>> {
        self.lanes
            .iter()
            .map(|l| {
                l.segment_s
                    .iter()
                    .skip(1)
                    .map(|s| SEGMENT as f64 / s)
                    .collect()
            })
            .collect()
    }

    /// Requests per second: the sum over submitters of each one's median
    /// segment rate, so one scheduler hiccup spoils one segment, not the
    /// run. Runs too short for a measured segment fall back to the whole
    /// stretch.
    pub fn throughput_rps(&self) -> f64 {
        let rates = self.segment_rates();
        if rates.iter().all(|r| !r.is_empty()) {
            return rates.into_iter().map(|mut r| sys::median(&mut r)).sum();
        }
        let first = self.lanes.iter().filter_map(|l| l.first).min();
        let last = self.lanes.iter().filter_map(|l| l.last).max();
        match (first, last) {
            (Some(a), Some(b)) if b > a => {
                self.outcomes().submitted() as f64 / (b - a).as_secs_f64()
            }
            _ => 0.0,
        }
    }

    pub fn measured_segments(&self) -> usize {
        self.segment_rates().iter().map(Vec::len).sum()
    }

    /// Interquartile range of the segment rates, each taken relative to
    /// its own lane's median, in percent.
    pub fn segment_iqr_pct(&self) -> f64 {
        let mut pooled = Vec::new();
        for mut rates in self.segment_rates() {
            let m = sys::median(&mut rates);
            if m > 0.0 {
                pooled.extend(rates.iter().map(|r| r / m));
            }
        }
        100.0 * sys::iqr_share(&mut pooled)
    }
}

/// A built and registered system, ready for its first request.
pub enum Front {
    Server(QosServer, Box<ServerConfig>),
    Fleet(QosCluster),
}

enum Door {
    Server(SubmitterHandle),
    Fleet(ClusterHandle),
}

impl Door {
    #[inline]
    fn submit(&mut self, r: &Req, arrival_ns: u64) -> SubmitOutcome {
        match self {
            Door::Server(h) => {
                let op = if r.write { IoOp::Write } else { IoOp::Read };
                h.submit_op(u64::from(r.tenant), r.lbn, arrival_ns, op)
            }
            // The fleet workloads are read-only (ClusterHandle has no
            // write door).
            Door::Fleet(h) => h.submit(u64::from(r.tenant), r.lbn, arrival_ns),
        }
    }
}

/// How a run ended.
pub struct Ended {
    /// The final books: after `finish`, or after halt → recover → finish
    /// on a WAL workload.
    pub ledger: Ledger,
    pub finish_ms: f64,
    pub fleet: Option<ClusterMetrics>,
    pub recovery: Option<Recovery>,
}

/// The restart leg of a WAL workload.
pub struct Recovery {
    /// Books frozen by `halt` (open windows unsealed).
    pub halted: Ledger,
    pub recover_ms: f64,
    pub replay_records: u64,
    pub replay_ns: u64,
    pub replay_truncated: u64,
    /// Books after the recovered server drained.
    pub finished: Ledger,
}

/// Host time of one set-up, by part.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub construct_s: f64,
    pub register_s: f64,
    pub requests: usize,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.construct_s + self.register_s
    }
}

pub struct Ready {
    pub front: Front,
    pub epoch: Epoch,
    /// Each submitter's share of the epoch; empty with one submitter,
    /// which replays the epoch itself.
    split: Vec<Epoch>,
    pub times: SetupTimes,
}

/// What one set-up builds, beyond the workload itself.
#[derive(Debug, Clone, Copy)]
pub struct Plan<'a> {
    pub seed: u64,
    /// Windows of input to generate (see [`Limit::epoch_windows`]).
    pub epoch_windows: usize,
    pub submitters: usize,
    /// Worker threads per array.
    pub workers: usize,
    pub assignment: AssignmentMode,
    /// Directory for a WAL workload's log; `None` keeps the log in memory.
    pub wal_dir: Option<&'a Path>,
    /// Push log compaction out of reach, so the log file ends up holding
    /// every record it was sent.
    pub keep_log: bool,
}

/// Everything before the first timed request: generate the inputs,
/// construct the system (which builds the `P_k` table when ε > 0), register
/// the tenants.
pub fn setup(spec: &Spec, plan: &Plan<'_>, tracer: &mut Tracer) -> Result<Ready, String> {
    let Plan {
        seed,
        epoch_windows,
        submitters,
        workers,
        assignment,
        wal_dir,
        keep_log,
    } = *plan;
    let t0 = Instant::now();
    let (epoch, split) = tracer.span("setup.generate", seed, |_| {
        let epoch = gen::generate(spec, seed, epoch_windows);
        let split = if submitters > 1 {
            epoch.split(submitters)
        } else {
            Vec::new()
        };
        (epoch, split)
    });
    let t1 = Instant::now();
    let mut cfg = spec
        .server_config(workers, wal_dir)
        .with_assignment(assignment);
    if keep_log {
        cfg = cfg.with_wal_snapshot_interval(u64::MAX);
    }
    let front = tracer.span("setup.construct", 0, |_| -> Result<Front, String> {
        if spec.arrays == 1 {
            Ok(Front::Server(QosServer::new(cfg.clone())?, Box::new(cfg)))
        } else {
            QosCluster::new(ClusterConfig::uniform(spec.arrays, &cfg))
                .map(Front::Fleet)
                .map_err(|e| e.to_string())
        }
    })?;
    let t2 = Instant::now();
    tracer.span("setup.register", 0, |_| -> Result<(), String> {
        for (i, &reserved) in spec.reservations.iter().enumerate() {
            let tenant = i as u64 + 1;
            match &front {
                Front::Server(s, _) => {
                    s.register(tenant, reserved, spec.policy())
                        .map_err(|e| format!("register tenant {tenant}: {e}"))?;
                }
                Front::Fleet(c) => {
                    c.register_tenant(tenant, reserved, spec.policy())
                        .map_err(|e| format!("register tenant {tenant}: {e}"))?;
                }
            }
        }
        Ok(())
    })?;
    let t3 = Instant::now();
    let times = SetupTimes {
        generate_s: (t1 - t0).as_secs_f64(),
        construct_s: (t2 - t1).as_secs_f64(),
        register_s: (t3 - t2).as_secs_f64(),
        requests: epoch.reqs.len(),
    };
    Ok(Ready {
        front,
        epoch,
        split,
        times,
    })
}

/// Keeps submitter threads within [`MAX_DRIFT_WINDOWS`] of each other in
/// simulated time and makes them all stop at the same window.
struct Pace {
    progress: Vec<AtomicU64>,
    stop_window: AtomicU64,
    max_drift: AtomicU64,
}

impl Pace {
    /// Block while lane `k` at window `w` is too far ahead of the slowest
    /// lane still running.
    fn hold(&self, k: usize, w: u64) {
        self.progress[k].store(w, Ordering::Release);
        loop {
            let slowest = self
                .progress
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != k)
                .map(|(_, p)| p.load(Ordering::Acquire))
                .min()
                .unwrap_or(u64::MAX);
            let lead = w.saturating_sub(slowest);
            if lead <= MAX_DRIFT_WINDOWS {
                self.max_drift.fetch_max(lead, Ordering::Relaxed);
                return;
            }
            std::thread::yield_now();
        }
    }
}

impl Ready {
    /// Offer the epoch, replayed back to back, until `limit`.
    pub fn drive(&self, spec: &Spec, limit: Limit, tracer: &mut Tracer) -> Drive {
        let interval_ns = spec.qos().interval_ns;
        let inputs: Vec<&Epoch> = if self.split.is_empty() {
            vec![&self.epoch]
        } else {
            self.split.iter().collect()
        };
        let submitters = inputs.len();
        let cycle = spec.arrivals.cycle() as u64;
        // Look at the clock once per load cycle, and no more often than
        // every 64 windows.
        let check_every = cycle * 64u64.div_ceil(cycle);
        // Another lane may be up to the drift bound ahead; stopping that
        // far out (rounded to whole cycles) lets every lane reach the same
        // final window.
        let stop_pad = if submitters == 1 {
            0
        } else {
            check_every * MAX_DRIFT_WINDOWS.div_ceil(check_every)
        };
        let pace = Pace {
            progress: (0..submitters).map(|_| AtomicU64::new(0)).collect(),
            stop_window: AtomicU64::new(match limit {
                Limit::Windows(n) => n,
                Limit::Seconds(_) => u64::MAX,
            }),
            max_drift: AtomicU64::new(0),
        };
        let budget = match limit {
            Limit::Seconds(s) => Some(Duration::from_secs_f64(s)),
            Limit::Windows(_) => None,
        };
        // Every handle exists before the first submit, so the engine's
        // watermark protocol sees all of them from window 0.
        let doors: Vec<Door> = (0..submitters)
            .map(|_| match &self.front {
                Front::Server(s, _) => Door::Server(s.handle()),
                Front::Fleet(c) => Door::Fleet(c.handle()),
            })
            .collect();
        let cluster = match &self.front {
            Front::Fleet(c) => Some(c),
            Front::Server(..) => None,
        };
        let start_line = Barrier::new(submitters);
        let mut tracers: Vec<Tracer> = (0..submitters).map(|k| tracer.lane(k as u32 + 1)).collect();
        // Only lane 0 ticks, every CONTROL_TICK_WINDOWS windows: the lock
        // is never contended.
        let ticks = Mutex::new(Vec::new());

        let lanes: Vec<Lane> = tracer.span("drive", 0, |_| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = doors
                    .into_iter()
                    .zip(inputs)
                    .zip(tracers.iter_mut())
                    .enumerate()
                    .map(|(k, ((door, epoch), lane_tracer))| {
                        let pace = &pace;
                        let start_line = &start_line;
                        let ticks = &ticks;
                        scope.spawn(move || {
                            start_line.wait();
                            // Lane 0 also runs the fleet's control loop.
                            let on_window = |w: u64| {
                                if let Some(c) = cluster.filter(|_| k == 0) {
                                    if w > 0 && w.is_multiple_of(CONTROL_TICK_WINDOWS) {
                                        let t = Instant::now();
                                        c.control_tick();
                                        let us = t.elapsed().as_nanos() as f64 / 1e3;
                                        ticks.lock().expect("tick log poisoned").push(us);
                                    }
                                }
                            };
                            let env = LaneEnv {
                                k,
                                epoch,
                                interval_ns,
                                pace,
                                budget,
                                check_every,
                                stop_pad,
                            };
                            if lane_tracer.enabled() {
                                run_lane::<true>(door, &env, on_window, lane_tracer)
                            } else {
                                run_lane::<false>(door, &env, on_window, lane_tracer)
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("submitter thread panicked"))
                    .collect()
            })
        });
        tracer.adopt(tracers);
        Drive {
            lanes,
            max_drift: pace.max_drift.load(Ordering::Relaxed),
            control_tick_us: ticks.into_inner().expect("tick log poisoned"),
        }
    }

    /// Median host time of a live metrics snapshot, µs.
    pub fn snapshot_us(&self) -> f64 {
        let mut samples: Vec<f64> = (0..9)
            .map(|_| {
                let t = Instant::now();
                match &self.front {
                    Front::Server(s, _) => {
                        std::hint::black_box(s.metrics());
                    }
                    Front::Fleet(c) => {
                        std::hint::black_box(c.metrics());
                    }
                }
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        sys::median(&mut samples)
    }

    /// Drain and close the books; with `recover`, instead stop without
    /// draining, restart from the log and drain the recovered server. Hands
    /// the inputs back for the replays.
    pub fn end(self, recover: bool, tracer: &mut Tracer) -> Result<(Ended, Epoch), String> {
        let ended = match self.front {
            Front::Fleet(cluster) => {
                let t = Instant::now();
                let m = tracer.span("finish", 0, |_| cluster.finish());
                Ended {
                    ledger: Ledger::sum(&m.arrays),
                    finish_ms: t.elapsed().as_secs_f64() * 1e3,
                    fleet: Some(m),
                    recovery: None,
                }
            }
            Front::Server(server, _) if !recover => {
                let t = Instant::now();
                let m = tracer.span("finish", 0, |_| server.finish());
                Ended {
                    ledger: Ledger::sum(&[m]),
                    finish_ms: t.elapsed().as_secs_f64() * 1e3,
                    fleet: None,
                    recovery: None,
                }
            }
            Front::Server(server, cfg) => {
                let halted = tracer.span("halt", 0, |_| server.halt());
                let t = Instant::now();
                let restarted = tracer.span("recover", 0, |_| QosServer::recover(*cfg))?;
                let recover_ms = t.elapsed().as_secs_f64() * 1e3;
                let t = Instant::now();
                let finished = tracer.span("finish", 0, |_| restarted.finish());
                let finish_ms = t.elapsed().as_secs_f64() * 1e3;
                let halted_ledger = Ledger::sum(&[halted]);
                let finished_ledger = Ledger::sum(std::slice::from_ref(&finished));
                // Rejections, violations and the log's own counters are
                // not durable: the restarted server counts them from zero,
                // so the leg's books are the restarted ones plus those of
                // the halted server.
                let mut ledger = finished_ledger.clone();
                ledger.rejected += halted_ledger.rejected;
                ledger.guaranteed_violations += halted_ledger.guaranteed_violations;
                ledger.wal_records += halted_ledger.wal_records;
                ledger.wal_fsyncs += halted_ledger.wal_fsyncs;
                ledger.wal_compactions += halted_ledger.wal_compactions;
                ledger.wal_misordered += halted_ledger.wal_misordered;
                ledger.wal_io_errors += halted_ledger.wal_io_errors;
                Ended {
                    ledger,
                    finish_ms,
                    fleet: None,
                    recovery: Some(Recovery {
                        halted: halted_ledger,
                        recover_ms,
                        replay_records: finished.wal_replay_records,
                        replay_ns: finished.wal_replay_duration_ns,
                        replay_truncated: finished.wal_replay_truncated,
                        finished: finished_ledger,
                    }),
                }
            }
        };
        Ok((ended, self.epoch))
    }
}

struct LaneEnv<'a> {
    k: usize,
    epoch: &'a Epoch,
    interval_ns: u64,
    pace: &'a Pace,
    budget: Option<Duration>,
    check_every: u64,
    stop_pad: u64,
}

fn run_lane<const TRACE: bool>(
    mut door: Door,
    env: &LaneEnv<'_>,
    mut on_window: impl FnMut(u64),
    tracer: &mut Tracer,
) -> Lane {
    let mut lane = Lane::default();
    let epoch_windows = env.epoch.windows() as u64;
    let start = Instant::now();
    lane.first = Some(start);
    let mut segment_start = start;
    let mut segment_left = SEGMENT;
    let mut calls = 0u64;
    let mut w = 0u64;
    while w < env.pace.stop_window.load(Ordering::Acquire) {
        env.pace.hold(env.k, w);
        on_window(w);
        let base = w * env.interval_ns;
        for r in env.epoch.window((w % epoch_windows) as usize) {
            let arrival = base + u64::from(r.offset_ns);
            let out = if TRACE {
                let t0 = Instant::now();
                let out = door.submit(r, arrival);
                let t1 = Instant::now();
                lane.submit_ns
                    .push(u32::try_from((t1 - t0).as_nanos()).unwrap_or(u32::MAX));
                if calls.is_multiple_of(SPAN_SAMPLE) {
                    tracer.record("submit", calls, t0, t1);
                }
                calls += 1;
                out
            } else {
                door.submit(r, arrival)
            };
            lane.outcomes.count(out);
            segment_left -= 1;
            if segment_left == 0 {
                let now = Instant::now();
                lane.segment_s.push((now - segment_start).as_secs_f64());
                if TRACE {
                    tracer.record("segment", lane.segment_s.len() as u64, segment_start, now);
                }
                segment_start = now;
                segment_left = SEGMENT;
            }
        }
        w += 1;
        if let Some(budget) = env.budget {
            if w.is_multiple_of(env.check_every) && start.elapsed() >= budget {
                env.pace
                    .stop_window
                    .fetch_min(w + env.stop_pad, Ordering::AcqRel);
            }
        }
    }
    lane.last = Some(Instant::now());
    // A finished lane no longer holds the others back.
    env.pace.progress[env.k].store(u64::MAX, Ordering::Release);
    drop(door);
    lane
}

/// Scratch directory for a WAL workload, unique per process and removed
/// when the run ends.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn create(parent: &Path, tag: &str) -> Result<ScratchDir, String> {
        let dir = parent.join(format!("wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
