//! What the `--trace 1` run adds to an online workload: the run's own
//! counters by layer, the latency of every `submit` call, two untraced
//! reference stretches (same config; one variant that isolates a layer
//! from outside) and the single-threaded layer replays.

use crate::catalog::Metrics;
use crate::gen::Epoch;
use crate::layers;
use crate::online::{self, Drive, Ended, Limit, Plan, SetupTimes};
use crate::run::{disk_leg_limit, median_of, plan, RunOpts};
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::{self, Spec};
use flash_qos::server::AssignmentMode;
use std::path::Path;
use std::time::Instant;

/// Everything the main stretch of a traced run measured.
pub struct Measured<'a> {
    pub spec: &'a Spec,
    pub opts: &'a RunOpts,
    pub threads: (usize, usize),
    pub setups: &'a [SetupTimes],
    pub drive: &'a Drive,
    pub ended: &'a Ended,
    /// A WAL workload's on-disk leg and the directory it logged to.
    pub disk: Option<(&'a (Drive, Ended), &'a Path)>,
    pub snapshot_us: f64,
    pub epoch: &'a Epoch,
}

pub fn per_layer(m: &Measured<'_>, tracer: &mut Tracer, out: &mut Metrics) -> Result<(), String> {
    run_counters(m, out);
    submit_latency(m.drive, out);
    if let Some(((drive, ended), dir)) = m.disk {
        disk_leg(drive, ended, out);
        out.set(
            "server.wal.bytes_per_admit",
            tracer.span("replay.wal_bytes", 0, |_| wal_bytes_per_admit(m, dir))?,
        );
    }
    fleet(m, out);

    let cost_ns = references(m, out)?;
    // A fixed-size run replays its inputs once; a timed run repeats them
    // until every per-call figure is a mean over millions.
    let min_calls = match m.opts.limit {
        Limit::Seconds(_) => layers::MIN_CALLS,
        Limit::Windows(_) => 0,
    };
    let layer_sum_ns = tracer.span("replay.layers", 0, |_| {
        layers::replay(m.spec, m.epoch, min_calls, out)
    });
    out.set("server.engine.layer_sum_ns", layer_sum_ns);
    out.set("server.engine.sync_gap_ns", cost_ns - layer_sum_ns);
    Ok(())
}

/// Counters the system and the benchmark kept during the main stretch.
fn run_counters(m: &Measured<'_>, out: &mut Metrics) {
    let ledger = &m.ended.ledger;
    let seen = m.drive.outcomes();
    let share = |n: u64| 100.0 * n as f64 / seen.submitted().max(1) as f64;
    out.set("sim.resp_p99_us", ledger.p99_latency_ns as f64 / 1e3);
    out.set("sim.resp_max_us", ledger.max_latency_ns as f64 / 1e3);
    out.set("sim.delayed_pct", share(ledger.delayed));
    out.set("sim.failed_pct", share(ledger.failed()));
    out.set("sim.latency_samples", ledger.latency_samples() as f64);

    out.set("server.fault.hedges_issued", ledger.hedges_issued as f64);
    out.set("server.fault.hedges_won", ledger.hedges_won as f64);
    out.set(
        "server.fault.hedge_win_pct",
        100.0 * ledger.hedges_won as f64 / ledger.hedges_issued.max(1) as f64,
    );
    out.set("server.fault.retries", ledger.retries as f64);
    out.set("server.fault.slow_detected", ledger.slow_detected as f64);
    out.set("server.metrics.snapshot_us", m.snapshot_us);
    out.set(
        "server.engine.new_ms",
        median_of(m.setups, |s| s.construct_s) * 1e3 / m.spec.arrays as f64,
    );
    out.set("server.engine.finish_ms", m.ended.finish_ms);
    out.set("server.engine.windows_sealed", ledger.windows_sealed as f64);
    out.set(
        "server.engine.max_window_total",
        ledger.max_window_total as f64,
    );

    out.set("server.window.delayed", seen.delayed as f64);
    out.set(
        "server.window.delay_windows_mean",
        seen.delay_windows as f64 / seen.delayed.max(1) as f64,
    );
    out.set("server.window.overflow", seen.overflow as f64);
    out.set(
        "server.window.rejected_horizon",
        seen.rejected_horizon as f64,
    );
    out.set(
        "server.window.rejected_unavailable",
        seen.rejected_unavailable as f64,
    );

    out.set("flashsim.ftl.write_amp", ledger.write_amp());
    out.set("flashsim.ftl.erases", ledger.gc_erases as f64);
    out.set("flashsim.ftl.relocated_pages", ledger.gc_relocated as f64);

    out.set(
        "bench.gen_ns_per_req",
        median_of(m.setups, |s| s.generate_s * 1e9 / s.requests.max(1) as f64),
    );
    out.set("bench.segments", m.drive.measured_segments() as f64);
    out.set("bench.segment_iqr_pct", m.drive.segment_iqr_pct());
}

/// Host-time percentiles of `submit` live here, not end to end: they move
/// by a factor of two between identical runs.
fn submit_latency(drive: &Drive, out: &mut Metrics) {
    let mut calls: Vec<u32> = drive
        .lanes
        .iter()
        .flat_map(|l| l.submit_ns.iter().copied())
        .collect();
    calls.sort_unstable();
    let n = calls.len().max(1) as f64;
    out.set(
        "server.engine.submit_mean_ns",
        calls.iter().map(|&c| f64::from(c)).sum::<f64>() / n,
    );
    for (name, q) in [
        ("server.engine.submit_p50_ns", 0.5),
        ("server.engine.submit_p99_ns", 0.99),
        ("server.engine.submit_p999_ns", 0.999),
    ] {
        out.set(name, sys::quantile_sorted(&calls, q));
    }
    out.set(
        "server.engine.submit_max_us",
        calls.last().map_or(0.0, |&c| f64::from(c) / 1e3),
    );
    // A call past 10 µs ran a seal or hit back-pressure.
    let slow = calls.len() - calls.partition_point(|&c| c <= 10_000);
    out.set("server.engine.submit_slow_pct", 100.0 * slow as f64 / n);
}

/// The on-disk leg: what the log wrote and flushed, what a restart cost.
fn disk_leg(drive: &Drive, ended: &Ended, out: &mut Metrics) {
    let l = &ended.ledger;
    out.set(
        "server.wal.records_per_admit",
        l.wal_records as f64 / l.admitted_total().max(1) as f64,
    );
    out.set(
        "server.wal.fsyncs_per_window",
        l.wal_fsyncs as f64 / l.windows_sealed.max(1) as f64,
    );
    out.set("server.wal.compactions", l.wal_compactions as f64);
    out.set("server.wal.io_errors", l.wal_io_errors as f64);
    out.set("server.wal.disk_submit_ns", 1e9 / drive.throughput_rps());
    if let Some(r) = &ended.recovery {
        out.set("server.wal.recover_ms", r.recover_ms);
        out.set("server.wal.replay_records", r.replay_records as f64);
        out.set(
            "server.wal.replay_ns_per_record",
            r.replay_ns as f64 / r.replay_records.max(1) as f64,
        );
    }
}

/// Bytes one admission costs in the log: the disk leg again with
/// compaction out of reach, log size ÷ admissions.
fn wal_bytes_per_admit(m: &Measured<'_>, dir: &Path) -> Result<f64, String> {
    let limit = disk_leg_limit(m.opts.limit);
    let mut off = Tracer::new(false, Instant::now(), 0);
    let plan = Plan {
        epoch_windows: limit.epoch_windows(m.spec),
        wal_dir: Some(dir),
        keep_log: true,
        ..plan(m.spec, m.opts, m.threads)
    };
    let ready = online::setup(m.spec, &plan, &mut off)?;
    ready.drive(m.spec, limit, &mut off);
    let (ended, _) = ready.end(false, &mut off)?;
    let bytes = std::fs::metadata(dir.join("wal.log"))
        .map_err(|e| format!("stat wal.log: {e}"))?
        .len();
    Ok(bytes as f64 / ended.ledger.admitted_total().max(1) as f64)
}

fn fleet(m: &Measured<'_>, out: &mut Metrics) {
    let Some(fleet) = &m.ended.fleet else {
        return;
    };
    let mut ticks = m.drive.control_tick_us.clone();
    out.set("cluster.control_tick_us", sys::median(&mut ticks));
    out.set("cluster.rebalances", fleet.rebalances as f64);
    out.set("cluster.util_spread", fleet.utilization_spread());
    let mut renders: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(flash_qos::cluster::render(fleet));
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    out.set("cluster.prom.render_us", sys::median(&mut renders));
}

/// Two untraced stretches, a quarter of the budget each. The same config:
/// what tracing cost, and the per-request wall cost (returned, ns) the
/// layer sum is held against. One variant that isolates one layer from
/// outside: the fleet against a lone array, the WAL against no WAL, flow
/// against greedy EFT (the private window layer).
fn references(m: &Measured<'_>, out: &mut Metrics) -> Result<f64, String> {
    let plain_rps = reference_rps(m, m.spec, AssignmentMode::OptimalFlow, m.threads)?;
    out.set(
        "bench.trace_overhead_pct",
        100.0 * (plain_rps - m.drive.throughput_rps()) / plain_rps,
    );
    let cost_ns = 1e9 / plain_rps;

    if m.spec.arrays > 1 {
        let lone = workloads::spec("steady_read").expect("steady_read is an online workload");
        let rps = reference_rps(m, &lone, AssignmentMode::OptimalFlow, (1, 1))?;
        out.set("cluster.submit_overhead_ns", cost_ns - 1e9 / rps);
    } else if m.spec.wal {
        let bare = Spec {
            wal: false,
            ..m.spec.clone()
        };
        let rps = reference_rps(m, &bare, AssignmentMode::OptimalFlow, m.threads)?;
        out.set("server.wal.submit_overhead_ns", cost_ns - 1e9 / rps);
    } else {
        let rps = reference_rps(m, m.spec, AssignmentMode::Eft, m.threads)?;
        out.set("server.engine.flow_minus_eft_ns", cost_ns - 1e9 / rps);
    }
    Ok(cost_ns)
}

/// Throughput of an untraced stretch on a fresh system, with its books
/// checked; no metrics of its own.
fn reference_rps(
    m: &Measured<'_>,
    spec: &Spec,
    assignment: AssignmentMode,
    threads: (usize, usize),
) -> Result<f64, String> {
    let mut off = Tracer::new(false, Instant::now(), 0);
    let plan = Plan {
        assignment,
        ..plan(spec, m.opts, threads)
    };
    let ready = online::setup(spec, &plan, &mut off)?;
    let drive = ready.drive(spec, m.opts.limit.scaled(0.25), &mut off);
    let (ended, _) = ready.end(false, &mut off)?;
    if ended.ledger.settled() != ended.ledger.admitted_total() {
        return Err(format!(
            "reference stretch of {} ({assignment:?}) does not conserve: {} settled of {}",
            spec.name,
            ended.ledger.settled(),
            ended.ledger.admitted_total()
        ));
    }
    Ok(drive.throughput_rps())
}
