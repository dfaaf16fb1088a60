//! `fqos` — command-line front end for the flash-qos library.
//!
//! ```text
//! fqos design   --devices 9 [--copies 3]
//!     Print the design, its rotation table size and S(M) guarantees.
//!
//! fqos generate --blocks 5 --interval-ms 0.133 --total 10000 [--pool 36] [--seed N]
//!     Emit a synthetic DiskSim-style ASCII trace on stdout (§V-B1).
//!
//! fqos analyze  --trace FILE --devices 9 [--copies 3] [--interval-ms 0.133]
//!               [--epsilon 0.0] [--mapping fim|modulo|roundrobin]
//!               [--reporting-ms 100]
//!     Run a trace through the QoS pipeline and print the per-interval
//!     report plus the original-layout comparison.
//!
//! fqos serve    --devices 9 [--copies 3] [--accesses 1] [--workers 4]
//!               [--submitters 3] [--windows 500] [--epsilon 0.0]
//!               [--queue-depth 64] [--mode flow|eft] [--seed N]
//!               [--write-ratio F] [--burst HEIGHT@START+LEN] [--gc OP]
//!               [--fault-schedule "fail:D@W,recover:D@W,slow:D@W[xF],restore:D@W,..."]
//!               [--no-hedge] [--wal-dir DIR [--wal-batch N] [--wal-snapshot K]]
//!               [--recover]
//!     Replay a synthetic timestamped trace through the concurrent serving
//!     engine: one submitter thread per tenant against a worker pool, then
//!     print the serving report and the deadline audit. A fault schedule
//!     scripts device failures/recoveries and silent fail-slow episodes
//!     (`slow:D@W` degrades device D 10× from window W, `slow:D@WxF` by
//!     factor F, `restore:D@W` heals it) at window boundaries; the audit
//!     then also reports degraded windows, re-routes, losses, and the
//!     fail-slow counters (detections, hedges, retries). `--no-hedge`
//!     disables speculative re-dispatch so the two runs can be compared.
//!     `--write-ratio` converts that share of the workload into writes,
//!     each fanned out to all `c` replicas; `--burst HEIGHT@START+LEN`
//!     spikes every tenant's rate to HEIGHT blocks per window for LEN
//!     windows starting at START (a flash crowd); `--gc OP` turns on the
//!     FTL write/GC model at over-provisioning OP, so sustained writes
//!     trigger garbage collection whose relocation and erase stalls show
//!     up in the gc audit and the read-compliance line.
//!     `--wal-dir` makes every admission durable in a write-ahead log
//!     before it is acknowledged (fsynced every `--wal-batch` records,
//!     compacted every `--wal-snapshot` seals); after a crash — even a
//!     `kill -9` — `--recover` replays the log, re-parks what was admitted
//!     but unsettled, charges seal-stranded residue as crash losses, and
//!     continues the run from the first unsealed window.
//!
//! fqos cluster  --arrays 4 [--devices 9] [--copies 3] [--accesses 1]
//!               [--submitters 8] [--windows 200] [--seed N] [--reserve R]
//!               [--pin "T:A,..."] [--burst "T:RATE,..."]
//!               [--fault-schedules "A:SPEC;A:SPEC"]
//!               [--chaos-schedule "kill:A@T,restore:A@T,slow:A@T[xF]"]
//!               [--metrics-addr HOST:PORT] [--linger-ms MS]
//!               [--no-rebalance] [--no-hedge]
//!     Run N arrays as one fleet behind the consistent-hash routing tier:
//!     tenants shard across arrays, the ε-budget control loop migrates
//!     tenants off saturated arrays, a Prometheus endpoint serves per-array
//!     metrics, and the run fails unless the cluster conservation law
//!     closes. `--pin` + `--burst` provoke the skew that forces a
//!     rebalance. `--chaos-schedule` fail-stops, restores or fail-slows
//!     whole arrays at scripted control ticks; the health plane detects
//!     the symptom, evacuates dead arrays' tenants onto survivors, and
//!     the extended law (with `evacuation_lost`) must still close.
//! ```

use flash_qos::prelude::*;
use flash_qos::qos::config::OverloadPolicy;
use flash_qos::traces::ascii;
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: fqos <design|generate|analyze|serve|cluster> [options]  (see --help)");
        return ExitCode::FAILURE;
    };
    if command == "--help" || command == "-h" || command == "help" {
        print_help();
        return ExitCode::SUCCESS;
    }
    let opts = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "design" => cmd_design(&opts),
        "generate" => cmd_generate(&opts),
        "analyze" => cmd_analyze(&opts),
        "serve" => cmd_serve(&opts),
        "cluster" => cmd_cluster(&opts),
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!("fqos — replication-based QoS for flash arrays (CLUSTER 2012 reproduction)");
    println!();
    println!("commands:");
    println!("  design   --devices N [--copies C]          show a design and its guarantees");
    println!("  generate --blocks B --interval-ms T --total N [--pool P] [--seed S]");
    println!("                                              emit a synthetic ASCII trace");
    println!("  analyze  --trace FILE --devices N [--copies C] [--interval-ms T]");
    println!("           [--epsilon E] [--mapping fim|modulo|roundrobin] [--reporting-ms R]");
    println!("                                              run the QoS pipeline on a trace");
    println!("  serve    --devices N [--copies C] [--accesses M] [--workers W]");
    println!("           [--submitters S] [--windows K] [--epsilon E] [--queue-depth D]");
    println!("           [--write-ratio F] [--gc OP]        make F of the trace writes (fanned");
    println!("           [--burst HEIGHT@START+LEN]         to all replicas), model FTL GC at");
    println!("                                              over-provisioning OP, and spike the");
    println!("                                              rate to HEIGHT for LEN windows");
    println!("           [--mode flow|eft] [--seed S]      replay a synthetic trace through");
    println!("           [--fault-schedule \"fail:D@W,...\"]  the concurrent serving engine,");
    println!("           [--no-hedge]                       optionally failing/recovering or");
    println!("           [--wal-dir DIR] [--wal-batch N]    silently slowing (slow:D@W[xF],");
    println!("           [--wal-snapshot K] [--recover]     restore:D@W) devices at scripted");
    println!("                                              windows; --no-hedge disables");
    println!("                                              speculative re-dispatch. --wal-dir");
    println!("                                              logs admissions durably before the");
    println!("                                              ack; --recover replays that log");
    println!("                                              after a crash and resumes the run.");
    println!("                                              --queue-depth bounds each worker's");
    println!("                                              backlog: requests, rounded down to");
    println!("                                              whole per-worker window shares, at");
    println!("                                              least one (also for cluster)");
    println!("  cluster  --arrays N [--devices D] [--copies C] [--accesses M] [--workers W]");
    println!("           [--submitters S] [--windows K] [--epsilon E] [--queue-depth Q]");
    println!("           [--mode flow|eft] [--seed S] [--reserve R]");
    println!("           [--pin \"TENANT:ARRAY,...\"] [--burst \"TENANT:RATE,...\"]");
    println!("           [--fault-schedules \"ARRAY:SPEC;ARRAY:SPEC\"]");
    println!("           [--chaos-schedule \"kill:A@T,restore:A@T,slow:A@T[xF]\"]");
    println!("           [--metrics-addr HOST:PORT] [--linger-ms MS]");
    println!("           [--no-rebalance] [--no-hedge]");
    println!("                                              run N arrays as one fleet behind");
    println!("                                              the consistent-hash routing tier:");
    println!("                                              tenants shard across arrays, the");
    println!("                                              control loop migrates them off");
    println!("                                              saturated arrays (--burst overdrives");
    println!("                                              a tenant, --pin forces placement to");
    println!("                                              provoke skew), and the cluster");
    println!("                                              conservation audit must close.");
    println!("                                              --chaos-schedule kills/restores/");
    println!("                                              slows whole arrays at scripted");
    println!("                                              ticks; dead arrays are detected");
    println!("                                              and evacuated onto survivors.");
    println!("                                              --metrics-addr serves Prometheus");
    println!("                                              text format; --linger-ms keeps it");
    println!("                                              up after the run for scrapers.");
}

type Options = HashMap<String, String>;

/// Options that are bare flags: present-or-absent, no value.
const FLAG_KEYS: &[&str] = &["no-hedge", "no-rebalance", "recover"];

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --option, found '{}'", args[i]))?;
        if FLAG_KEYS.contains(&key) {
            out.insert(key.to_string(), String::new());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?
            .clone();
        out.insert(key.to_string(), value);
        i += 2;
    }
    Ok(out)
}

fn get_num<T: std::str::FromStr>(opts: &Options, key: &str, default: T) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: cannot parse '{v}'")),
    }
}

fn require_num<T: std::str::FromStr>(opts: &Options, key: &str) -> Result<T, String> {
    let v = opts
        .get(key)
        .ok_or_else(|| format!("--{key} is required"))?;
    v.parse()
        .map_err(|_| format!("--{key}: cannot parse '{v}'"))
}

/// The validated deployment of every subcommand that runs one: the
/// catalog's `(devices, copies, 1)` design, `accesses` per interval of
/// `interval_ns`, Delay on overload.
fn qos_config(
    devices: usize,
    copies: usize,
    accesses: usize,
    interval_ns: u64,
    epsilon: f64,
) -> Result<QosConfig, String> {
    let design = DesignCatalog
        .find(devices, copies)
        .map_err(|e| e.to_string())?;
    let qos = QosConfig {
        scheme: flash_qos::decluster::DesignTheoretic::new(design),
        accesses,
        interval_ns,
        epsilon,
        policy: OverloadPolicy::Delay,
        service_ns: BLOCK_READ_NS,
    };
    qos.validate()?;
    Ok(qos)
}

fn cmd_design(opts: &Options) -> Result<(), String> {
    let devices: usize = require_num(opts, "devices")?;
    let copies: usize = get_num(opts, "copies", 3)?;
    let design = DesignCatalog
        .find(devices, copies)
        .map_err(|e| e.to_string())?;
    design.verify().map_err(|e| e.to_string())?;
    println!(
        "({devices},{copies},1) design: {} blocks, replication number {}",
        design.num_blocks(),
        design.replication_number()
    );
    let g = RetrievalGuarantee::of(&design);
    println!("rotation-expanded buckets: {}", g.supported_buckets());
    println!("guarantees:");
    for m in 1..=4 {
        println!(
            "  any {:>4} buckets in {m} access(es)  (interval ≥ {:.3} ms on calibrated flash)",
            g.buckets_in(m),
            m as f64 * 0.132507
        );
    }
    println!("blocks:");
    for (i, b) in design.blocks().iter().enumerate() {
        let cells: Vec<String> = b.iter().map(std::string::ToString::to_string).collect();
        println!("  {i:>3}: ({})", cells.join(","));
    }
    Ok(())
}

fn cmd_generate(opts: &Options) -> Result<(), String> {
    let blocks: usize = require_num(opts, "blocks")?;
    let interval_ms: f64 = require_num(opts, "interval-ms")?;
    let total: usize = require_num(opts, "total")?;
    let pool: u64 = get_num(opts, "pool", 36)?;
    let seed: u64 = get_num(opts, "seed", 0x5EED)?;
    let cfg = SyntheticConfig {
        blocks_per_interval: blocks,
        interval_ns: (interval_ms * 1e6) as u64,
        total_requests: total,
        block_pool: pool,
        seed,
    };
    print!("{}", ascii::emit(&cfg.generate()));
    Ok(())
}

fn cmd_analyze(opts: &Options) -> Result<(), String> {
    let path = opts.get("trace").ok_or("--trace is required")?;
    let devices: usize = require_num(opts, "devices")?;
    let copies: usize = get_num(opts, "copies", 3)?;
    let interval_ms: f64 = get_num(opts, "interval-ms", 0.133)?;
    let epsilon: f64 = get_num(opts, "epsilon", 0.0)?;
    let reporting_ms: f64 = get_num(opts, "reporting-ms", 100.0)?;
    let mapping = match opts.get("mapping").map(String::as_str) {
        None | Some("fim") => MappingStrategy::Fim,
        Some("modulo") => MappingStrategy::Modulo,
        Some("roundrobin") => MappingStrategy::RoundRobin,
        Some(other) => return Err(format!("--mapping: unknown strategy '{other}'")),
    };

    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let trace = ascii::parse(&text, path.clone(), devices, (reporting_ms * 1e6) as u64)
        .map_err(|e| e.to_string())?;
    println!(
        "trace: {} requests, {} reporting intervals of {reporting_ms} ms",
        trace.len(),
        trace.num_intervals()
    );

    let config = qos_config(devices, copies, 1, (interval_ms * 1e6) as u64, epsilon)?;
    let limit = config.request_limit();
    let pipeline = QosPipeline::new(config).with_mapping(mapping);

    let qos = pipeline.run_online(&trace);
    let orig = pipeline.run_original(&trace);

    println!("\nQoS guarantee: {limit} requests per {interval_ms} ms interval\n");
    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>12} {:>12} {:>11}",
        "interval",
        "requests",
        "qos avg ms",
        "qos max ms",
        "orig avg ms",
        "orig max ms",
        "% delayed"
    );
    for i in 0..trace.num_intervals() {
        println!(
            "{:<10} {:>10} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>10.1}%",
            i,
            qos.intervals.requests[i],
            qos.intervals.response[i].mean_ms(),
            qos.intervals.response[i].max_ms(),
            orig.intervals.response[i].mean_ms(),
            orig.intervals.response[i].max_ms(),
            qos.intervals.delayed_pct(i),
        );
    }
    println!(
        "\ntotals: qos max {:.6} ms | original max {:.6} ms | {:.2}% delayed ({:.3} ms avg delay)",
        qos.total_response.max_ms(),
        orig.total_response.max_ms(),
        qos.delayed_pct(),
        qos.avg_delay_ms()
    );
    if !qos.matched_fraction.is_empty() {
        println!(
            "FIM re-match average: {:.1}%",
            100.0 * qos.avg_matched_fraction()
        );
    }
    Ok(())
}

fn cmd_serve(opts: &Options) -> Result<(), String> {
    use flash_qos::flashsim::time::BASE_INTERVAL_NS;

    let devices: usize = require_num(opts, "devices")?;
    let copies: usize = get_num(opts, "copies", 3)?;
    let accesses: usize = get_num(opts, "accesses", 1)?;
    let workers: usize = get_num(opts, "workers", 4)?;
    let submitters: usize = get_num(opts, "submitters", 3)?;
    let windows: u64 = get_num(opts, "windows", 500)?;
    let epsilon: f64 = get_num(opts, "epsilon", 0.0)?;
    let queue_depth: usize = get_num(opts, "queue-depth", 64)?;
    let seed: u64 = get_num(opts, "seed", 0x5EED)?;
    let mode = match opts.get("mode").map(String::as_str) {
        None | Some("flow") => AssignmentMode::OptimalFlow,
        Some("eft") => AssignmentMode::Eft,
        Some(other) => return Err(format!("--mode: unknown mode '{other}' (flow|eft)")),
    };
    let hedging = !opts.contains_key("no-hedge");
    let write_ratio: f64 = get_num(opts, "write-ratio", 0.0)?;
    if !(0.0..=1.0).contains(&write_ratio) {
        return Err("--write-ratio must be in 0.0..=1.0".into());
    }
    // `--gc OP` turns on the FTL write/GC model with the default geometry
    // at over-provisioning OP; low OP makes GC storms easy to provoke.
    let gc_overprovision: Option<f64> = match opts.get("gc") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("--gc: cannot parse over-provisioning '{v}'"))?,
        ),
    };
    // `--burst HEIGHT@START+LEN`: every tenant's request rate jumps to
    // HEIGHT blocks per window for LEN windows starting at window START —
    // a flash crowd on top of the reserved baseline.
    let burst: Option<(usize, u64, u64)> = match opts.get("burst") {
        None => None,
        Some(spec) => {
            let parse = || -> Option<(usize, u64, u64)> {
                let (height, rest) = spec.split_once('@')?;
                let (start, len) = rest.split_once('+')?;
                Some((
                    height.trim().parse().ok()?,
                    start.trim().parse().ok()?,
                    len.trim().parse().ok()?,
                ))
            };
            Some(
                parse()
                    .ok_or_else(|| format!("--burst: expected HEIGHT@START+LEN, found '{spec}'"))?,
            )
        }
    };
    let wal_dir = opts.get("wal-dir");
    let recover = opts.contains_key("recover");
    let wal_batch: u64 = get_num(opts, "wal-batch", 1)?;
    let wal_snapshot: u64 = get_num(opts, "wal-snapshot", 64)?;
    if recover && wal_dir.is_none() {
        return Err("--recover needs --wal-dir (the log to replay)".into());
    }
    let fault_schedule = match opts.get("fault-schedule") {
        None => FaultSchedule::new(),
        Some(spec) => FaultSchedule::parse(spec).map_err(|e| format!("--fault-schedule: {e}"))?,
    };
    if workers == 0 || submitters == 0 || windows == 0 {
        return Err("--workers, --submitters and --windows must be positive".into());
    }
    // Typed parse-time validation against the array geometry and the run
    // horizon: a schedule naming device 12 of 9 or window 600 of 500 is a
    // spec error, reported before the server spins up.
    fault_schedule
        .validate_for(devices, Some(windows))
        .map_err(|e| format!("--fault-schedule: {e}"))?;

    let qos = qos_config(
        devices,
        copies,
        accesses,
        accesses as u64 * BASE_INTERVAL_NS,
        epsilon,
    )?;
    let limit = qos.request_limit();
    let pool = AllocationScheme::num_buckets(&qos.scheme) as u64;
    let interval_ns = qos.interval_ns;
    let submitters = submitters.min(limit);

    let scripted_faults = !fault_schedule.is_empty();
    let scripted_slow = fault_schedule
        .events()
        .iter()
        .any(|e| matches!(e.kind, FaultKind::Slow(_)));
    let mut cfg = ServerConfig::new(qos)
        .with_workers(workers)
        .with_queue_depth(queue_depth)
        .with_assignment(mode)
        .with_fault_schedule(fault_schedule)
        .with_hedging(hedging);
    if let Some(op) = gc_overprovision {
        // A deliberately small per-device FTL (128 pages) so a few hundred
        // windows of sustained writes actually cycle the free-block pool
        // and trigger GC; the default geometry would need millions of
        // programs before the first erase.
        let geometry = FtlGeometry {
            dies: 1,
            blocks_per_die: 16,
            pages_per_block: 8,
            overprovision: op,
        };
        cfg = cfg.with_gc_model(GcConfig::new(geometry));
    }
    if let Some((height, _, _)) = burst {
        if height as u64 > pool {
            return Err(format!(
                "--burst: height {height} exceeds the {pool}-bucket pool"
            ));
        }
    }
    if let Some(dir) = wal_dir {
        cfg = cfg
            .with_wal(dir)
            .with_wal_fsync_batch(wal_batch)
            .with_wal_snapshot_interval(wal_snapshot);
    }
    let server = if recover {
        QosServer::recover(cfg)?
    } else {
        QosServer::new(cfg)?
    };
    // Recovery resumes the window sequence: the replayed log already
    // sealed `windows_sealed` windows, so fresh traffic starts there.
    let base_window = if recover {
        let m = server.metrics();
        println!(
            "recovered WAL: {} records replayed in {:.1} ms — {} admissions \
             re-parked, {} charged as crash losses, resuming at window {}",
            m.wal_replay_records,
            m.wal_replay_duration_ns as f64 / 1e6,
            m.recovered_admissions,
            m.recovered_lost,
            m.windows_sealed,
        );
        m.windows_sealed
    } else {
        0
    };

    // Split the S(M) budget across one tenant per submitter thread and give
    // each tenant its own synthetic timestamped trace at exactly its
    // reserved rate. Tenants the recovered log already registered live are
    // kept as-is rather than re-registered.
    let mut plan = Vec::with_capacity(submitters);
    for s in 0..submitters {
        let reserved = limit / submitters + usize::from(s < limit % submitters);
        plan.push((s as u64 + 1, reserved));
    }
    for &(tenant, reserved) in &plan {
        if recover && server.tenant(tenant).is_some() {
            continue;
        }
        server
            .register(tenant, reserved, OverloadPolicy::Delay)
            .map_err(|e| e.to_string())?;
    }
    println!(
        "serving {windows} windows of {:.3} ms on a ({devices},{copies},1) array: \
         S({accesses}) = {limit}, {} tenants, {} workers, {:?} assignment",
        interval_ns as f64 / 1e6,
        plan.len(),
        workers.min(devices),
        mode,
    );

    let wall = std::time::Instant::now();
    let threads: Vec<_> = plan
        .iter()
        .map(|&(tenant, reserved)| {
            let mut handle = server.handle();
            let trace = match burst {
                Some((height, start, len)) => BurstConfig {
                    base_blocks_per_interval: reserved,
                    burst_blocks_per_interval: height,
                    burst_start_interval: start,
                    burst_intervals: len,
                    total_intervals: windows,
                    interval_ns,
                    block_pool: pool,
                    write_fraction: write_ratio,
                    seed: seed ^ tenant,
                }
                .generate(),
                None => {
                    let base = SyntheticConfig {
                        blocks_per_interval: reserved,
                        interval_ns,
                        total_requests: reserved * windows as usize,
                        block_pool: pool,
                        seed: seed ^ tenant,
                    }
                    .generate();
                    if write_ratio > 0.0 {
                        rw::with_write_fraction(&base, write_ratio, seed ^ tenant)
                    } else {
                        base
                    }
                }
            };
            std::thread::spawn(move || {
                for r in &trace.records {
                    handle.submit_op(
                        tenant,
                        r.lbn,
                        r.arrival_ns + base_window * interval_ns,
                        r.op,
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join()
            .map_err(|_| "submitter thread panicked".to_string())?;
    }
    let m = server.finish();
    let wall = wall.elapsed();

    println!();
    println!(
        "served {} requests in {:.1} ms wall clock ({:.0} req/s)",
        m.completed(),
        wall.as_secs_f64() * 1e3,
        m.completed() as f64 / wall.as_secs_f64().max(1e-9),
    );
    println!(
        "admitted {} (overflow {}, delayed {}), rejected {}, windows sealed {}",
        m.admitted_total(),
        m.overflow,
        m.delayed,
        m.rejected,
        m.windows_sealed,
    );
    println!(
        "simulated latency: p50 ≤ {:.4} ms, p99 ≤ {:.4} ms, p99.9 ≤ {:.4} ms, \
         max {:.4} ms, mean {:.4} ms",
        m.p50_latency_ns as f64 / 1e6,
        m.p99_latency_ns as f64 / 1e6,
        m.p999_latency_ns as f64 / 1e6,
        m.max_latency_ns as f64 / 1e6,
        m.mean_latency_ns / 1e6,
    );
    println!(
        "busiest window: {} guaranteed (limit {limit}), {} total",
        m.max_window_guaranteed, m.max_window_total,
    );
    println!(
        "\n{:<8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>11}",
        "tenant", "reserved", "admitted", "delayed", "rejected", "served", "violations"
    );
    for t in &m.tenants {
        println!(
            "{:<8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>11}",
            t.tenant,
            t.reserved,
            t.ledger().admitted_total(),
            t.delayed,
            t.rejected,
            t.served,
            t.violations,
        );
    }
    println!(
        "\ndeadline audit: {} violations total, {} among guaranteed admissions {}",
        m.deadline_violations,
        m.guaranteed_violations,
        if m.guaranteed_violations == 0 {
            "✓"
        } else {
            "✗ GUARANTEE BROKEN"
        },
    );
    if scripted_faults || m.degraded_windows > 0 {
        println!(
            "fault audit: {} degraded windows, {} re-routed at admission, \
             {} re-dispatched at seal ({} overloaded), {} unavailable-rejected, {} lost {}",
            m.degraded_windows,
            m.fault_reroutes,
            m.fault_redispatches,
            m.fault_overloads,
            m.fault_rejected,
            m.fault_lost,
            if m.fault_lost == 0 {
                "✓"
            } else {
                "✗ REQUESTS LOST"
            },
        );
    }
    if scripted_faults || m.slow_detected > 0 || m.hedges_issued > 0 {
        println!(
            "fail-slow audit: {} slow verdicts ({} suspects, {} recoveries), \
             {} hedges issued / {} won / {} cancelled, {} retries",
            m.slow_detected,
            m.health_suspects,
            m.health_recoveries,
            m.hedges_issued,
            m.hedges_won,
            m.hedges_cancelled,
            m.retries,
        );
    }
    if write_ratio > 0.0 || m.write_settled > 0 || m.write_lost > 0 {
        println!(
            "write audit: {} writes settled on all replicas, {} lost a replica past retries {}",
            m.write_settled,
            m.write_lost,
            if m.write_lost == 0 {
                "✓"
            } else {
                "✗ COPIES LOST"
            },
        );
    }
    if gc_overprovision.is_some() || m.gc_host_pages > 0 {
        println!(
            "gc audit: {} host pages + {} gc pages (write-amp {:.3}), {} relocated, {} erases",
            m.gc_host_pages,
            m.gc_pages,
            m.write_amplification(),
            m.gc_relocated,
            m.gc_erases,
        );
    }
    let read_compliance = if m.served == 0 {
        100.0
    } else {
        100.0 * (1.0 - m.guaranteed_violations as f64 / m.served as f64)
    };
    println!(
        "read compliance: {read_compliance:.2}% of guaranteed reads met their deadline {}",
        if read_compliance >= 99.0 {
            "✓"
        } else {
            "✗"
        },
    );
    let conserved = m.conserved();
    println!(
        "conservation: {} {}",
        m.ledger().render(),
        if conserved {
            "✓"
        } else {
            "✗ ACCOUNTING BROKEN"
        },
    );
    // Fail-stop faults are masked by reroute/re-dispatch, so any guaranteed
    // violation is a bug. A scripted *silent* slowdown is different:
    // admission is blind until the scorer convicts, so pre-detection
    // violations are the modeled cost, reported above rather than fatal.
    // Like a silent slowdown, GC interference degrades service behind
    // admission's back: pre-detection read misses under a GC storm are the
    // modeled cost (reported above), not a fatal bug.
    if m.guaranteed_violations != 0 && !scripted_slow && gc_overprovision.is_none() && !recover {
        return Err("deterministic guarantee violated".into());
    }
    // A recovered run legitimately carries crash losses (admissions the
    // pre-crash process sealed but never settled); the conservation check
    // above still audits them exactly.
    if m.fault_lost != 0 && !recover {
        return Err("admitted requests lost to device failures".into());
    }
    if !conserved {
        return Err("completion accounting does not balance".into());
    }
    Ok(())
}

/// Parse `"KEY:VALUE,KEY:VALUE"` pair lists (`--pin`, `--burst`).
fn parse_pairs<K, V>(spec: &str, what: &str) -> Result<Vec<(K, V)>, String>
where
    K: std::str::FromStr,
    V: std::str::FromStr,
{
    spec.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|pair| {
            let (k, v) = pair
                .split_once(':')
                .ok_or_else(|| format!("--{what}: expected KEY:VALUE, found '{pair}'"))?;
            let k = k
                .trim()
                .parse()
                .map_err(|_| format!("--{what}: cannot parse '{k}'"))?;
            let v = v
                .trim()
                .parse()
                .map_err(|_| format!("--{what}: cannot parse '{v}'"))?;
            Ok((k, v))
        })
        .collect()
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[allow(clippy::too_many_lines)]
fn cmd_cluster(opts: &Options) -> Result<(), String> {
    use flash_qos::cluster::{new_page, render};
    use flash_qos::flashsim::time::BASE_INTERVAL_NS;

    let arrays: usize = get_num(opts, "arrays", 2)?;
    let devices: usize = get_num(opts, "devices", 9)?;
    let copies: usize = get_num(opts, "copies", 3)?;
    let accesses: usize = get_num(opts, "accesses", 1)?;
    let workers: usize = get_num(opts, "workers", 4)?;
    let submitters: usize = get_num(opts, "submitters", 2 * arrays.max(1))?;
    let windows: u64 = get_num(opts, "windows", 200)?;
    let epsilon: f64 = get_num(opts, "epsilon", 0.0)?;
    let queue_depth: usize = get_num(opts, "queue-depth", 64)?;
    let seed: u64 = get_num(opts, "seed", 0x5EED)?;
    let linger_ms: u64 = get_num(opts, "linger-ms", 0)?;
    let mode = match opts.get("mode").map(String::as_str) {
        None | Some("flow") => AssignmentMode::OptimalFlow,
        Some("eft") => AssignmentMode::Eft,
        Some(other) => return Err(format!("--mode: unknown mode '{other}' (flow|eft)")),
    };
    let rebalance = !opts.contains_key("no-rebalance");
    let hedging = !opts.contains_key("no-hedge");
    if arrays == 0 || workers == 0 || submitters == 0 || windows == 0 {
        return Err("--arrays, --workers, --submitters and --windows must be positive".into());
    }
    // Whole-array chaos: `kill:A@T,restore:A@T,slow:A@T[xF]` at control
    // ticks (one tick per window). Validated against the fleet size by
    // `ClusterConfig::validate` inside `QosCluster::new`.
    let chaos = match opts.get("chaos-schedule") {
        None => ClusterFaultSchedule::new(),
        Some(spec) => {
            ClusterFaultSchedule::parse(spec).map_err(|e| format!("--chaos-schedule: {e}"))?
        }
    };

    let pins: Vec<(u64, usize)> = match opts.get("pin") {
        None => Vec::new(),
        Some(spec) => parse_pairs(spec, "pin")?,
    };
    let bursts: HashMap<u64, u64> = match opts.get("burst") {
        None => HashMap::new(),
        Some(spec) => parse_pairs(spec, "burst")?.into_iter().collect(),
    };
    // Per-array fault schedules: `"0:fail:3@10,recover:3@20;1:slow:2@5"`.
    let mut schedules: Vec<FaultSchedule> = vec![FaultSchedule::new(); arrays];
    if let Some(spec) = opts.get("fault-schedules") {
        for entry in spec.split(';').filter(|s| !s.trim().is_empty()) {
            let (idx, rest) = entry
                .split_once(':')
                .ok_or_else(|| format!("--fault-schedules: expected ARRAY:SPEC in '{entry}'"))?;
            let idx: usize = idx
                .trim()
                .parse()
                .map_err(|_| format!("--fault-schedules: bad array index '{idx}'"))?;
            if idx >= arrays {
                return Err(format!("--fault-schedules: array {idx} of {arrays}"));
            }
            let schedule =
                FaultSchedule::parse(rest).map_err(|e| format!("--fault-schedules: {e}"))?;
            schedule
                .validate_for(devices, Some(windows))
                .map_err(|e| format!("--fault-schedules: {e}"))?;
            schedules[idx] = schedule;
        }
    }

    let qos = qos_config(
        devices,
        copies,
        accesses,
        accesses as u64 * BASE_INTERVAL_NS,
        epsilon,
    )?;
    let limit = qos.request_limit();
    let pool = AllocationScheme::num_buckets(&qos.scheme) as u64;
    let interval_ns = qos.interval_ns;

    let array_configs: Vec<ServerConfig> = schedules
        .into_iter()
        .map(|schedule| {
            ServerConfig::new(qos.clone())
                .with_workers(workers)
                .with_queue_depth(queue_depth)
                .with_assignment(mode)
                .with_fault_schedule(schedule)
                .with_hedging(hedging)
        })
        .collect();
    let cluster = QosCluster::new(
        ClusterConfig::new(array_configs)
            .with_rebalance(rebalance)
            .with_chaos(chaos),
    )
    .map_err(|e: ClusterError| e.to_string())?;

    // Uniform reservations sized so every tenant fits even in the worst
    // ring placement: ceil(submitters / arrays) tenants per array.
    let tenants_per_array = submitters.div_ceil(arrays);
    let reserve: usize = get_num(opts, "reserve", (limit / tenants_per_array).max(1))?;
    let pinned: HashMap<u64, usize> = pins.iter().copied().collect();
    for t in 1..=submitters as u64 {
        match pinned.get(&t) {
            Some(&array) => {
                if array >= arrays {
                    return Err(format!("--pin: array {array} of {arrays}"));
                }
                cluster
                    .register_pinned(array, t, reserve, OverloadPolicy::Delay)
                    .map_err(|e| e.to_string())?;
            }
            None => {
                cluster
                    .register_tenant(t, reserve, OverloadPolicy::Delay)
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    println!(
        "cluster: {arrays} × ({devices},{copies},1) arrays, S({accesses}) = {limit} each, \
         {submitters} tenants reserving {reserve}, {windows} windows of {:.3} ms, \
         rebalance {}",
        interval_ns as f64 / 1e6,
        if rebalance { "on" } else { "off" },
    );
    for t in 1..=submitters as u64 {
        let home = cluster.route_of(t).ok_or("tenant lost by the router")?;
        let rate = bursts.get(&t).copied().unwrap_or(reserve as u64);
        println!("  tenant {t}: array {home}, {rate} req/window");
    }

    // Prometheus endpoint: refreshed at window cadence, served from a
    // background thread for the life of the run (plus --linger-ms).
    let page = new_page();
    let exporter = match opts.get("metrics-addr") {
        None => None,
        Some(addr) => {
            let e = MetricsExporter::bind(addr, page.clone())?;
            println!("metrics: http://{}/metrics", e.local_addr());
            Some(e)
        }
    };

    let wall = std::time::Instant::now();
    let mut handle = cluster.handle();
    for w in 0..windows {
        let mut i = 0u64;
        for t in 1..=submitters as u64 {
            let rate = bursts.get(&t).copied().unwrap_or(reserve as u64);
            for _ in 0..rate {
                let lbn = splitmix64(seed ^ (w << 16) ^ (t << 8) ^ i) % pool;
                handle.submit(t, lbn, w * interval_ns + i * 1_000);
                i += 1;
            }
        }
        if let Some(event) = cluster.control_tick() {
            println!(
                "window {w}: rebalanced tenant {} array {} → {} (reservation {})",
                event.tenant, event.from, event.to, event.reserved,
            );
        }
        if exporter.is_some() {
            *page.lock() = render(&cluster.metrics());
        }
    }
    drop(handle);
    let m = cluster.finish(); // prints the cluster audit line
    let wall = wall.elapsed();
    *page.lock() = render(&m);

    println!();
    println!(
        "fleet: {} completed in {:.1} ms wall clock ({:.0} req/s aggregate)",
        m.completed(),
        wall.as_secs_f64() * 1e3,
        m.completed() as f64 / wall.as_secs_f64().max(1e-9),
    );
    println!(
        "admitted {} / rejected {} / unrouted {}, utilization spread {:.3}, \
         p99 ≤ {:.4} ms, p99.9 ≤ {:.4} ms",
        m.admitted_total(),
        m.rejected(),
        m.unrouted,
        m.utilization_spread(),
        m.p99_latency_ns() as f64 / 1e6,
        m.p999_latency_ns() as f64 / 1e6,
    );
    println!(
        "\n{:<7} {:>9} {:>9} {:>9} {:>9} {:>11} {:>9}",
        "array", "routed", "admitted", "rejected", "served", "fault_lost", "sealed"
    );
    for (i, s) in m.arrays.iter().enumerate() {
        println!(
            "{:<7} {:>9} {:>9} {:>9} {:>9} {:>11} {:>9}",
            i,
            m.routed[i],
            s.admitted_total(),
            s.rejected,
            s.served,
            s.fault_lost,
            s.windows_sealed,
        );
    }
    for e in &m.events {
        println!(
            "migration @tick {}: tenant {} array {} → {} (reservation {})",
            e.tick, e.tenant, e.from, e.to, e.reserved,
        );
    }
    for ev in &m.evacuations {
        println!(
            "evacuation @tick {}: array {} dead, {} tenant(s) moved, {} unplaced",
            ev.tick,
            ev.array,
            ev.moved.len(),
            ev.unplaced.len(),
        );
    }
    if m.evacuation_lost != 0 || m.health_verdicts_dead != 0 {
        println!(
            "failures: {} stranded admissions, {} dead verdicts, {} slow verdicts, \
             {} transport refusals",
            m.evacuation_lost,
            m.health_verdicts_dead,
            m.health_verdicts_slow,
            m.refused_unavailable,
        );
    }

    if linger_ms > 0 && exporter.is_some() {
        println!("lingering {linger_ms} ms for scrapers…");
        std::thread::sleep(std::time::Duration::from_millis(linger_ms));
    }
    drop(exporter);

    if m.deadline_violations() != 0 {
        println!("deadline audit: {} violations ✗", m.deadline_violations());
    }
    if !m.conserved() {
        return Err("cluster conservation law violated".into());
    }
    Ok(())
}
