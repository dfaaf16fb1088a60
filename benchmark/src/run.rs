//! One benchmark run: set up (several times, median reported), measure,
//! end, check the outputs, name the end-to-end metrics. The traced run
//! goes on in [`crate::traced`].

use crate::offline;
use crate::online::{self, Drive, Ended, Limit, Plan, Ready, ScratchDir, SetupTimes};
use crate::report::{Checks, RunResult};
use crate::sys::{self, Host};
use crate::trace::{self, Tracer};
use crate::traced::{self, Measured};
use crate::workloads::{self, Kind, Spec, Workload, DISK_LEG_WINDOWS, MAX_DRIFT_WINDOWS};
use flash_qos::server::AssignmentMode;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    pub limit: Limit,
    pub trace: bool,
    /// Result files, the trace file and the WAL scratch directory go here.
    pub out_dir: PathBuf,
    /// `(submitters, workers)` instead of what the host's core count
    /// gives; the smoke test uses it to exercise the drift guard on a
    /// two-core host.
    pub threads: Option<(usize, usize)>,
}

/// Set-ups per run: at least three, and more while they are cheap, so the
/// reported median is steady.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 2.0;

pub fn run(workload: &Workload, opts: &RunOpts) -> Result<RunResult, String> {
    let mut result = RunResult::new(workload.name, opts.seed, opts.trace, Host::probe());
    let mut tracer = Tracer::new(opts.trace, Instant::now(), 0);
    match &workload.kind {
        Kind::Online(spec) => run_online(spec, opts, &mut tracer, &mut result)?,
        Kind::Offline(spec) => {
            offline::run(spec, opts.seed, opts.limit, &mut tracer, &mut result)?;
        }
    }
    result.end_to_end.set("peak_rss_mb", sys::peak_rss_mib());
    if opts.trace {
        let file = opts.out_dir.join(format!("trace-{}.json", workload.name));
        std::fs::create_dir_all(&opts.out_dir)
            .and_then(|()| std::fs::write(&file, trace::to_json(&tracer).line()))
            .map_err(|e| format!("write {}: {e}", file.display()))?;
    }
    Ok(result)
}

/// The set-up a run's main stretch uses: flow assignment, log in memory.
pub(crate) fn plan(spec: &Spec, opts: &RunOpts, threads: (usize, usize)) -> Plan<'static> {
    Plan {
        seed: opts.seed,
        epoch_windows: opts.limit.epoch_windows(spec),
        submitters: threads.0,
        workers: threads.1,
        assignment: AssignmentMode::OptimalFlow,
        wal_dir: None,
        keep_log: false,
    }
}

/// Set up repeatedly; every system but the last is drained and dropped
/// outside the timed part.
fn prepare(
    spec: &Spec,
    opts: &RunOpts,
    threads: (usize, usize),
    tracer: &mut Tracer,
) -> Result<(Ready, Vec<SetupTimes>), String> {
    let clock = Instant::now();
    let mut setups = Vec::new();
    loop {
        let ready = online::setup(spec, &plan(spec, opts, threads), tracer)?;
        setups.push(ready.times);
        if enough_setups(setups.len(), clock) {
            return Ok((ready, setups));
        }
        ready.end(false, &mut Tracer::new(false, clock, 0))?;
    }
}

/// Whether a run has set up often enough: at least [`MIN_SETUPS`] times,
/// and more while they are cheap.
pub(crate) fn enough_setups(done: usize, since: Instant) -> bool {
    done >= MIN_SETUPS && (done >= MAX_SETUPS || since.elapsed().as_secs_f64() >= SETUP_BUDGET_S)
}

pub(crate) fn median_of(setups: &[SetupTimes], part: impl Fn(&SetupTimes) -> f64) -> f64 {
    let mut v: Vec<f64> = setups.iter().map(part).collect();
    sys::median(&mut v)
}

fn run_online(
    spec: &Spec,
    opts: &RunOpts,
    tracer: &mut Tracer,
    result: &mut RunResult,
) -> Result<(), String> {
    let threads = opts
        .threads
        .unwrap_or_else(|| spec.threads(result.host.nproc));
    result.config = spec.describe();
    result.config.extend([
        ("submitters", threads.0.to_string()),
        ("workers_per_array", threads.1.to_string()),
        ("limit", format!("{:?}", opts.limit)),
    ]);

    // Generator guard: the device model keys its page map by raw LBN, so
    // a working set above the FTL's logical capacity would measure
    // refused programs, not garbage collection.
    if let Some(geometry) = &spec.ftl {
        let (need, have) = (
            spec.lbns_per_device(),
            workloads::ftl_logical_pages(geometry),
        );
        if need > have {
            return Err(format!(
                "{}: {need} LBNs per device exceed the FTL's {have} logical pages",
                spec.name
            ));
        }
    }

    let (ready, setups) = prepare(spec, opts, threads, tracer)?;
    result.fingerprint = ready.epoch.fingerprint;

    // Traced: half the budget under tracing; `traced` spends the rest.
    let main_limit = if opts.trace {
        opts.limit.scaled(0.5)
    } else {
        opts.limit
    };
    let drive = ready.drive(spec, main_limit, tracer);
    let snapshot_us = if opts.trace { ready.snapshot_us() } else { 0.0 };
    let (ended, epoch) = ready.end(false, tracer)?;
    check_outputs(spec, &drive, &ended, &mut result.checks);

    // A WAL workload's second leg: the same arrivals logged to disk, halt
    // without draining, restart from the log. Its flush cost is this
    // sandbox's, so it is checked on every run but reported per layer.
    let scratch = spec
        .wal
        .then(|| ScratchDir::create(&opts.out_dir, spec.name))
        .transpose()?;
    let disk = match &scratch {
        Some(dir) => Some(disk_leg(
            spec,
            opts,
            threads,
            &dir.0,
            tracer,
            &mut result.checks,
        )?),
        None => None,
    };

    let submitted = drive.outcomes().submitted();
    let ledger = &ended.ledger;
    result.attempted = submitted;
    result.failed = ledger.failed();
    result.samples_rps = drive.segment_rates();

    let share = |n: u64| 100.0 * n as f64 / submitted.max(1) as f64;
    let e2e = &mut result.end_to_end;
    e2e.set("setup_s", median_of(&setups, SetupTimes::total_s));
    e2e.set("throughput_rps", drive.throughput_rps());
    e2e.set("sim_resp_mean_us", ledger.mean_latency_ns / 1e3);
    e2e.set(
        "deadline_met_pct",
        share(
            ledger
                .latency_samples()
                .saturating_sub(ledger.deadline_violations),
        ),
    );
    e2e.set(
        "undelayed_pct",
        share(ledger.admitted_total().saturating_sub(ledger.delayed)),
    );

    if opts.trace {
        let measured = Measured {
            spec,
            opts,
            threads,
            setups: &setups,
            drive: &drive,
            ended: &ended,
            disk: disk.as_ref().zip(scratch.as_ref().map(|s| s.0.as_path())),
            snapshot_us,
            epoch: &epoch,
        };
        traced::per_layer(&measured, tracer, &mut result.per_layer)?;
    }
    Ok(())
}

/// The output checks every run makes; a failed check makes the run
/// incorrect and the command exit non-zero.
fn check_outputs(spec: &Spec, drive: &Drive, ended: &Ended, c: &mut Checks) {
    let seen = drive.outcomes();
    let l = &ended.ledger;
    c.eq(
        "law.settled==admitted_total",
        l.settled(),
        l.admitted_total(),
    );
    c.eq(
        "law.admitted+rejected==submitted",
        l.admitted_total() + l.rejected,
        seen.submitted(),
    );
    c.eq(
        "law.hedges_won==hedges_cancelled",
        l.hedges_won,
        l.hedges_cancelled,
    );
    c.eq(
        "outcomes.admitted",
        seen.admitted + seen.delayed,
        l.admitted,
    );
    c.eq("outcomes.delayed", seen.delayed, l.delayed);
    c.eq("outcomes.overflow", seen.overflow, l.overflow);
    c.eq("outcomes.rejected", seen.rejected(), l.rejected);
    if spec.epsilon == 0.0 && spec.ftl.is_none() {
        // Deterministic admission on healthy, GC-free devices: Theorem 1.
        c.eq(
            "guarantee.guaranteed_violations==0",
            l.guaranteed_violations,
            0,
        );
    }
    c.that(
        "generator.drift<=bound",
        drive.max_drift <= MAX_DRIFT_WINDOWS,
        format!("{} <= {MAX_DRIFT_WINDOWS} windows", drive.max_drift),
    );
    if spec.wal {
        c.eq("wal.io_errors==0", l.wal_io_errors, 0);
        c.eq("wal.misordered==0", l.wal_misordered, 0);
        c.that(
            "wal.logged",
            l.wal_records >= l.admitted_total(),
            format!(
                "{} records for {} admissions",
                l.wal_records,
                l.admitted_total()
            ),
        );
    }
    if let Some(fleet) = &ended.fleet {
        c.that("fleet.conserved", fleet.conserved(), fleet.render_audit());
    }
}

/// How much the on-disk leg offers: [`DISK_LEG_WINDOWS`], or the whole of
/// a shorter fixed-size run.
pub(crate) fn disk_leg_limit(run: Limit) -> Limit {
    match run {
        Limit::Seconds(_) => Limit::Windows(DISK_LEG_WINDOWS),
        Limit::Windows(n) => Limit::Windows(n.min(DISK_LEG_WINDOWS)),
    }
}

/// The on-disk leg of a WAL workload: offer [`DISK_LEG_WINDOWS`] windows
/// through a directory log, halt without draining, recover, drain, and
/// check the restart.
fn disk_leg(
    spec: &Spec,
    opts: &RunOpts,
    threads: (usize, usize),
    dir: &Path,
    tracer: &mut Tracer,
    c: &mut Checks,
) -> Result<(Drive, Ended), String> {
    let limit = disk_leg_limit(opts.limit);
    let (drive, ended) = tracer.span("disk_leg", 0, |tracer| -> Result<_, String> {
        let plan = Plan {
            epoch_windows: limit.epoch_windows(spec),
            wal_dir: Some(dir),
            ..plan(spec, opts, threads)
        };
        let ready = online::setup(spec, &plan, tracer)?;
        let drive = ready.drive(spec, limit, tracer);
        Ok((drive, ready.end(true, tracer)?.0))
    })?;
    let l = &ended.ledger;
    c.eq(
        "disk.settled==admitted_total",
        l.settled(),
        l.admitted_total(),
    );
    c.eq(
        "disk.admitted+rejected==submitted",
        l.admitted_total() + l.rejected,
        drive.outcomes().submitted(),
    );
    c.eq("disk.guaranteed_violations==0", l.guaranteed_violations, 0);
    c.eq("disk.wal_io_errors==0", l.wal_io_errors, 0);
    c.eq("disk.wal_misordered==0", l.wal_misordered, 0);
    c.that(
        "disk.fsynced",
        l.wal_fsyncs > 0,
        format!("{} fsyncs for {} records", l.wal_fsyncs, l.wal_records),
    );
    if let Some(r) = &ended.recovery {
        // halt() flushed the log, so every admission it acknowledged is
        // durable and must be back after the restart.
        c.eq(
            "recover.no_durable_admission_missing",
            r.finished.admitted_total(),
            r.halted.admitted_total(),
        );
        c.eq(
            "recover.conserved",
            r.finished.settled(),
            r.finished.admitted_total(),
        );
        c.eq("recover.clean_replay", r.replay_truncated, 0);
    }
    Ok((drive, ended))
}
