//! `fqos` — command-line front end for the flash-qos library.
//!
//! The subcommands and their flags are described once, in [`USAGE`]
//! (`fqos --help`), and declared once, in [`COMMANDS`]: a flag that is
//! not in its subcommand's table, is given twice, or gives a value to a
//! bare flag is a usage error (exit 1), never silently ignored.

use flash_qos::prelude::*;
use flash_qos::qos::config::OverloadPolicy;
use flash_qos::traces::ascii;
use std::collections::HashMap;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::{Arc, Barrier};

/// The one usage text: printed by `fqos --help`, and after a usage error.
const USAGE: &str = "\
fqos — replication-based QoS for flash arrays (CLUSTER 2012 reproduction)

fqos design   --devices N [--copies 3]
    Print a design, its rotation table size and its S(M) guarantees.
fqos generate --blocks B --interval-ms T --total N [--pool 36] [--seed S]
    Emit a synthetic DiskSim-style ASCII trace on stdout (§V-B1).
fqos analyze  --trace FILE --devices N [--copies 3] [--interval-ms 0.133] [--epsilon 0]
              [--mapping fim|modulo|roundrobin] [--reporting-ms 100]
    Run a trace through the QoS pipeline; compare with the original layout.
fqos serve    --devices N [--submitters 3] [--windows 500] ARRAY-FLAGS
              [--write-ratio F] [--burst HEIGHT@START+LEN] [--gc OP]
              [--fault-schedule \"fail:D@W,recover:D@W,slow:D@W[xF],restore:D@W\"]
              [--wal-dir DIR [--wal-batch 1] [--wal-snapshot 64] [--recover]]
    Replay one synthetic trace per tenant, each from its own thread, through
    the serving engine, then audit it: a guaranteed miss, a lost admission or
    unbalanced books print a ✗ and exit 1, but misses on a run with a slowdown
    or a GC erase are priced, not fatal. Writes fan out to all c replicas;
    --burst lifts every tenant to HEIGHT blocks per window; --gc models FTL
    garbage collection at over-provisioning OP. --wal-dir logs each admission
    before its ack; --recover replays the log after a crash and counts the
    admissions it strands as crash losses, not as lost.
fqos cluster  [--arrays 2] [--devices 9] [--submitters 2*arrays] [--windows 200]
              ARRAY-FLAGS [--reserve R] [--pin \"TENANT:ARRAY,...\"]
              [--burst \"TENANT:RATE,...\"] [--fault-schedules \"ARRAY:SPEC;...\"]
              [--chaos-schedule \"kill:A@T,restore:A@T,slow:A@T[xF]\"]
              [--metrics-addr HOST:PORT] [--linger-ms MS] [--no-rebalance]
    Run a fleet behind the consistent-hash router: the control loop migrates
    tenants off saturated arrays, chaos kills, restores or slows whole arrays,
    dead arrays are evacuated, and the run fails unless the fleet's
    conservation law closes. --metrics-addr serves Prometheus text.
ARRAY-FLAGS   [--copies 3] [--accesses 1] [--workers 4] [--epsilon 0]
              [--queue-depth 64] [--seed S] [--no-hedge]
    Each array is the (devices, copies, 1) design at M = --accesses; a worker
    queues up to --queue-depth requests. --no-hedge turns off hedged reads
    and the seal's drain off a device detected slow; write copies still retry
    against a failed replica.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = args
        .split_first()
        .map_or(("", &[][..]), |(c, rest)| (c.as_str(), rest));
    if matches!(command, "--help" | "-h" | "help") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = match parse_options(command, rest) {
        Err(e) => Err(format!("{e}\n\n{}", USAGE.trim_end())),
        Ok(opts) => match opts.command {
            "design" => cmd_design(&opts),
            "generate" => cmd_generate(&opts),
            "analyze" => cmd_analyze(&opts),
            "serve" => cmd_serve(&opts),
            _ => cmd_cluster(&opts),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Trace windows between two meetings of `serve`'s submitter threads: how
/// far one may run ahead of another, a quarter of the default window ring.
const LANE_WINDOWS: u64 = 256;

/// The flags `serve` and `cluster` share, read by [`ArrayArgs::parse`];
/// then each one's own.
const ARRAY_FLAGS: &str =
    "devices= copies= accesses= workers= submitters= windows= epsilon= queue-depth= seed= no-hedge";
const SERVE_FLAGS: &str =
    "write-ratio= burst= gc= fault-schedule= wal-dir= wal-batch= wal-snapshot= recover";
const CLUSTER_FLAGS: &str =
    "arrays= reserve= pin= burst= fault-schedules= chaos-schedule= metrics-addr= linger-ms= \
     no-rebalance";

/// Every subcommand and its flags, the one place a flag is declared:
/// `name=` takes the next argument as its value, a bare `name` stands
/// alone.
const COMMANDS: &[(&str, &[&str])] = &[
    ("design", &["devices= copies="]),
    ("generate", &["blocks= interval-ms= total= pool= seed="]),
    (
        "analyze",
        &["trace= devices= copies= interval-ms= epsilon= mapping= reporting-ms="],
    ),
    ("serve", &[ARRAY_FLAGS, SERVE_FLAGS]),
    ("cluster", &[ARRAY_FLAGS, CLUSTER_FLAGS]),
];

/// A subcommand's flags as `(name, takes a value)`.
fn flags_of(table: &'static [&'static str]) -> impl Iterator<Item = (&'static str, bool)> {
    table
        .iter()
        .flat_map(|t| t.split_whitespace())
        .map(|f| f.strip_suffix('=').map_or((f, false), |name| (name, true)))
}

/// One subcommand's flags as given on the command line.
struct Options {
    command: &'static str,
    table: &'static [&'static str],
    given: HashMap<&'static str, String>,
}

/// Check `args` against `command`'s table. A flag not in it (another
/// subcommand's included), a repeated flag and a value after a bare flag
/// are errors, and the error lists the flags `command` takes.
fn parse_options(command: &str, args: &[String]) -> Result<Options, String> {
    let &(command, table) = COMMANDS
        .iter()
        .find(|(name, _)| *name == command)
        .ok_or_else(|| format!("unknown command '{command}'"))?;
    let mut given = HashMap::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let flag = arg
            .strip_prefix("--")
            .and_then(|name| flags_of(table).find(|&(n, _)| n == name));
        let problem = match (flag, rest.as_slice().first()) {
            (None, _) => format!("{arg} is not a flag of {command}"),
            (Some((name, false)), Some(v)) if !v.starts_with("--") => {
                format!("--{name} takes no value, found '{v}'")
            }
            (Some((name, true)), None) => format!("--{name} needs a value"),
            (Some((name, takes_value)), _) => {
                let value = if takes_value { rest.next() } else { None };
                match given.insert(name, value.cloned().unwrap_or_default()) {
                    None => continue,
                    Some(_) => format!("--{name} is given twice"),
                }
            }
        };
        let takes: Vec<String> = flags_of(table).map(|(n, _)| format!("--{n}")).collect();
        return Err(format!("{problem}; {command} takes {}", takes.join(" ")));
    }
    Ok(Options {
        command,
        table,
        given,
    })
}

impl Options {
    fn get(&self, flag: &str) -> Option<&str> {
        debug_assert!(
            flags_of(self.table).any(|(n, _)| n == flag),
            "--{flag} is read but not declared for {}",
            self.command
        );
        self.given.get(flag).map(String::as_str)
    }

    /// The flag's value, parsed, if it was given.
    fn opt<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| format!("--{flag}: cannot parse '{v}'"))
        };
        self.get(flag).map(parse).transpose()
    }

    /// The flag's value, else `default`; with no default the flag is
    /// required.
    fn value<T: FromStr>(&self, flag: &str, default: Option<T>) -> Result<T, String> {
        let v = self.opt(flag)?.or(default);
        v.ok_or_else(|| format!("--{flag} is required"))
    }

    /// A number that must be above zero.
    fn positive<T: FromStr + PartialOrd + Default>(
        &self,
        flag: &str,
        default: Option<T>,
    ) -> Result<T, String> {
        let v = self.value(flag, default)?;
        (v > T::default())
            .then_some(v)
            .ok_or_else(|| format!("--{flag} must be positive"))
    }

    /// A duration given in milliseconds, as `(ms, ns)`; it must be at
    /// least one nanosecond.
    fn millis(&self, flag: &str, default: Option<f64>) -> Result<(f64, u64), String> {
        let ms: f64 = self.value(flag, default)?;
        let ns = (ms * 1e6) as u64;
        (ns > 0)
            .then_some((ms, ns))
            .ok_or_else(|| format!("--{flag} must be positive (at least 1 ns)"))
    }
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
        scheme: AllocationScheme::design(&design),
        accesses,
        interval_ns,
        epsilon,
        policy: OverloadPolicy::Delay,
        service_ns: BLOCK_READ_NS,
    };
    qos.validate()?;
    Ok(qos)
}

/// The options `serve` and `cluster` share ([`ARRAY_FLAGS`]): one array's
/// deployment, its worker pool, and the run's tenants and length.
struct ArrayArgs {
    devices: usize,
    copies: usize,
    accesses: usize,
    workers: usize,
    submitters: usize,
    windows: u64,
    queue_depth: usize,
    seed: u64,
    hedging: bool,
    qos: QosConfig,
}

impl ArrayArgs {
    /// `devices`, `submitters` and `windows` are the subcommand's defaults;
    /// `devices: None` makes `--devices` required.
    fn parse(
        opts: &Options,
        devices: Option<usize>,
        submitters: usize,
        windows: u64,
    ) -> Result<Self, String> {
        use flash_qos::flashsim::time::BASE_INTERVAL_NS;

        let devices = opts.value("devices", devices)?;
        let copies = opts.value("copies", Some(3))?;
        let accesses: usize = opts.positive("accesses", Some(1))?;
        let epsilon = opts.value("epsilon", Some(0.0))?;
        Ok(ArrayArgs {
            devices,
            copies,
            accesses,
            workers: opts.positive("workers", Some(4))?,
            submitters: opts.positive("submitters", Some(submitters))?,
            windows: opts.positive("windows", Some(windows))?,
            queue_depth: opts.value("queue-depth", Some(64))?,
            seed: opts.value("seed", Some(0x5EED))?,
            hedging: opts.get("no-hedge").is_none(),
            qos: qos_config(
                devices,
                copies,
                accesses,
                accesses as u64 * BASE_INTERVAL_NS,
                epsilon,
            )?,
        })
    }

    /// The device fault schedule `spec` (empty without one), checked
    /// against the array's devices and the run's windows before any server
    /// spins up: device 12 of 9, or window 600 of 500, is an error of
    /// `--flag`.
    fn fault_schedule(&self, flag: &str, spec: Option<&str>) -> Result<FaultSchedule, String> {
        let schedule = spec.map_or_else(|| Ok(FaultSchedule::new()), FaultSchedule::parse);
        schedule
            .and_then(|s| s.validate_for(self.devices, Some(self.windows)).map(|()| s))
            .map_err(|e| format!("--{flag}: {e}"))
    }

    /// One array's server configuration, with its own fault schedule.
    fn server_config(&self, schedule: FaultSchedule) -> ServerConfig {
        ServerConfig::new(self.qos.clone())
            .with_workers(self.workers)
            .with_queue_depth(self.queue_depth)
            .with_fault_schedule(schedule)
            .with_hedging(self.hedging)
    }
}

fn cmd_design(opts: &Options) -> Result<(), String> {
    let devices: usize = opts.value("devices", None)?;
    let copies: usize = opts.value("copies", Some(3))?;
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
    let blocks: usize = opts.positive("blocks", None)?;
    let (_, interval_ns) = opts.millis("interval-ms", None)?;
    let total: usize = opts.value("total", None)?;
    let pool: u64 = opts.positive("pool", Some(36))?;
    let seed: u64 = opts.value("seed", Some(0x5EED))?;
    if blocks as u64 > pool {
        return Err(format!("--blocks {blocks} exceeds the --pool of {pool}"));
    }
    let cfg = SyntheticConfig {
        blocks_per_interval: blocks,
        interval_ns,
        total_requests: total,
        block_pool: pool,
        seed,
    };
    print!("{}", ascii::emit(&cfg.generate()));
    Ok(())
}

fn cmd_analyze(opts: &Options) -> Result<(), String> {
    let path: String = opts.value("trace", None)?;
    let devices: usize = opts.value("devices", None)?;
    let copies: usize = opts.value("copies", Some(3))?;
    let (interval_ms, interval_ns) = opts.millis("interval-ms", Some(0.133))?;
    let epsilon: f64 = opts.value("epsilon", Some(0.0))?;
    let (reporting_ms, reporting_ns) = opts.millis("reporting-ms", Some(100.0))?;
    let mapping = match opts.get("mapping") {
        None | Some("fim") => MappingStrategy::Fim,
        Some("modulo") => MappingStrategy::Modulo,
        Some("roundrobin") => MappingStrategy::RoundRobin,
        Some(other) => return Err(format!("--mapping: unknown strategy '{other}'")),
    };

    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let trace = ascii::parse(&text, path, devices, reporting_ns).map_err(|e| e.to_string())?;
    println!(
        "trace: {} requests, {} reporting intervals of {reporting_ms} ms",
        trace.len(),
        trace.num_intervals()
    );

    let config = qos_config(devices, copies, 1, interval_ns, epsilon)?;
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
    let args = ArrayArgs::parse(opts, None, 3, 500)?;
    let write_ratio: f64 = opts.value("write-ratio", Some(0.0))?;
    if !(0.0..=1.0).contains(&write_ratio) {
        return Err("--write-ratio must be in 0.0..=1.0".into());
    }
    // `--gc OP` turns on the FTL write/GC model at over-provisioning OP;
    // low OP makes GC storms easy to provoke.
    let gc_overprovision: Option<f64> = opts.opt("gc")?;
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
    let recover = opts.get("recover").is_some();
    let wal_batch: u64 = opts.value("wal-batch", Some(1))?;
    let wal_snapshot: u64 = opts.value("wal-snapshot", Some(64))?;
    if recover && wal_dir.is_none() {
        return Err("--recover needs --wal-dir (the log to replay)".into());
    }
    let fault_schedule = args.fault_schedule("fault-schedule", opts.get("fault-schedule"))?;

    // At most the layout's bucket count, so each tenant can draw its share
    // as distinct buckets a window.
    let limit = args.qos.request_limit();
    let pool = args.qos.scheme.num_buckets() as u64;
    let interval_ns = args.qos.interval_ns;
    let submitters = args.submitters.min(limit);

    let scripted_faults = !fault_schedule.is_empty();
    let mut cfg = args.server_config(fault_schedule);
    if let Some(op) = gc_overprovision {
        // An FTL sized from what a device holds: the trace's LBNs are the
        // `pool` buckets, one each, and every replica of a bucket stores
        // it. Live pages fill three fifths of the logical space, so GC
        // victims still hold live pages to relocate and a higher OP means
        // less of it; four-page blocks keep that true at a dozen LBNs, and
        // three blocks past the live set keep GC's two-block floor clear.
        let scheme = &args.qos.scheme;
        let mut held = vec![0usize; scheme.devices()];
        for b in 0..scheme.num_buckets() {
            scheme.replicas(b).iter().for_each(|&d| held[d] += 1);
        }
        let lbns = held.into_iter().max().unwrap_or(1);
        let physical = (lbns as f64 * 5.0 / 3.0 / (1.0 - op)).ceil() as usize;
        let geometry = FtlGeometry {
            dies: 1,
            blocks_per_die: physical.div_ceil(4).max(lbns.div_ceil(4) + 3),
            pages_per_block: 4,
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
             re-parked, {} reads charged as crash losses over the log's life, resuming at \
             window {}",
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
        "serving {} windows of {:.3} ms on a ({},{},1) array: \
         limit {limit}, {} tenants, {} workers",
        args.windows,
        interval_ns as f64 / 1e6,
        args.devices,
        args.copies,
        plan.len(),
        args.workers.min(args.devices),
    );

    // Every trace is built before the first submitter starts, and the
    // submitters meet at a barrier every `LANE_WINDOWS` trace windows, each
    // passing it the same number of times: no lane gets further ahead of
    // another than the window ring holds.
    let traces: Vec<_> = plan
        .iter()
        .map(|&(tenant, reserved)| match burst {
            Some((height, start, len)) => BurstConfig {
                base_blocks_per_interval: reserved,
                burst_blocks_per_interval: height,
                burst_start_interval: start,
                burst_intervals: len,
                total_intervals: args.windows,
                interval_ns,
                block_pool: pool,
                write_fraction: write_ratio,
                seed: args.seed ^ tenant,
            }
            .generate(),
            None => {
                let base = SyntheticConfig {
                    blocks_per_interval: reserved,
                    interval_ns,
                    total_requests: reserved * args.windows as usize,
                    block_pool: pool,
                    seed: args.seed ^ tenant,
                }
                .generate();
                if write_ratio > 0.0 {
                    rw::with_write_fraction(&base, write_ratio, args.seed ^ tenant)
                } else {
                    base
                }
            }
        })
        .collect();
    let lanes = Arc::new(Barrier::new(traces.len()));
    let meetings = args.windows / LANE_WINDOWS;
    let wall = std::time::Instant::now();
    let threads: Vec<_> = plan
        .iter()
        .zip(traces)
        .map(|(&(tenant, _), trace)| {
            let mut handle = server.handle();
            let lanes = Arc::clone(&lanes);
            std::thread::spawn(move || {
                let mut met = 0;
                for r in &trace.records {
                    let due = (r.arrival_ns / interval_ns / LANE_WINDOWS).min(meetings);
                    while met < due {
                        lanes.wait();
                        met += 1;
                    }
                    handle.submit_op(
                        tenant,
                        r.lbn,
                        r.arrival_ns + base_window * interval_ns,
                        r.op,
                    );
                }
                while met < meetings {
                    lanes.wait();
                    met += 1;
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
    let v = m.verdict();
    let [guarantee, lost, books] = v
        .clauses()
        .map(|(held, mark, _)| if held { "✓" } else { mark });
    println!(
        "\ndeadline audit: {} violations total, {} forbidden and {} priced among guaranteed \
         admissions {}",
        m.deadline_violations, v.missed, v.priced, guarantee,
    );
    if scripted_faults || m.degraded_windows > 0 || v.lost > 0 {
        println!(
            "fault audit: {} degraded windows, {} re-routed at admission, \
             {} re-dispatched at seal ({} overloaded), {} unavailable-rejected, {} lost {}",
            m.degraded_windows,
            m.fault_reroutes,
            m.fault_redispatches,
            m.fault_overloads,
            m.fault_rejected,
            v.lost,
            lost,
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
            "write audit: {} writes settled on all replicas, {} lost a replica past retries",
            m.write_settled, m.write_lost,
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
    println!(
        "read compliance: {:.2}% of guaranteed reads met their deadline",
        m.read_compliance_pct(),
    );
    println!("conservation: {} {}", m.ledger().render(), books,);
    v.broken().map_or(Ok(()), |e| Err(e.into()))
}

/// Parse a `"KEY:VALUE,KEY:VALUE"` pair list (`--pin`, `--burst`); an
/// absent flag is an empty list.
fn parse_pairs<K, V>(opts: &Options, what: &str) -> Result<HashMap<K, V>, String>
where
    K: std::str::FromStr + Eq + std::hash::Hash,
    V: std::str::FromStr,
{
    let spec = opts.get(what).unwrap_or_default();
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

    let arrays: usize = opts.positive("arrays", Some(2))?;
    let args = ArrayArgs::parse(opts, Some(9), 2 * arrays, 200)?;
    let linger_ms: u64 = opts.value("linger-ms", Some(0))?;
    let rebalance = opts.get("no-rebalance").is_none();
    // Whole-array chaos: `kill:A@T,restore:A@T,slow:A@T[xF]` at control
    // ticks (one tick per window). Validated against the fleet size by
    // `ClusterConfig::validate` inside `QosCluster::new`.
    let chaos = match opts.get("chaos-schedule") {
        None => ClusterFaultSchedule::new(),
        Some(spec) => {
            ClusterFaultSchedule::parse(spec).map_err(|e| format!("--chaos-schedule: {e}"))?
        }
    };

    let pinned: HashMap<u64, usize> = parse_pairs(opts, "pin")?;
    let bursts: HashMap<u64, u64> = parse_pairs(opts, "burst")?;
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
            schedules[idx] = args.fault_schedule("fault-schedules", Some(rest))?;
        }
    }

    let limit = args.qos.request_limit();
    let pool = args.qos.scheme.num_buckets() as u64;
    let interval_ns = args.qos.interval_ns;

    let array_configs: Vec<ServerConfig> = schedules
        .into_iter()
        .map(|schedule| args.server_config(schedule))
        .collect();
    let cluster = QosCluster::new(
        ClusterConfig::new(array_configs)
            .with_rebalance(rebalance)
            .with_chaos(chaos),
    )
    .map_err(|e: ClusterError| e.to_string())?;

    // Uniform reservations sized so every tenant fits even in the worst
    // ring placement: ceil(submitters / arrays) tenants per array.
    let tenants_per_array = args.submitters.div_ceil(arrays);
    let reserve: usize = opts.value("reserve", Some((limit / tenants_per_array).max(1)))?;
    for t in 1..=args.submitters as u64 {
        let placed = match pinned.get(&t) {
            Some(&a) if a >= arrays => return Err(format!("--pin: array {a} of {arrays}")),
            Some(&a) => cluster.register_pinned(a, t, reserve, OverloadPolicy::Delay),
            None => cluster
                .register_tenant(t, reserve, OverloadPolicy::Delay)
                .map(drop),
        };
        placed.map_err(|e| e.to_string())?;
    }
    println!(
        "cluster: {arrays} × ({},{},1) arrays, S({}) = {limit} each, \
         {} tenants reserving {reserve}, {} windows of {:.3} ms, rebalance {}",
        args.devices,
        args.copies,
        args.accesses,
        args.submitters,
        args.windows,
        interval_ns as f64 / 1e6,
        if rebalance { "on" } else { "off" },
    );
    for t in 1..=args.submitters as u64 {
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
    for w in 0..args.windows {
        let mut i = 0u64;
        for t in 1..=args.submitters as u64 {
            let rate = bursts.get(&t).copied().unwrap_or(reserve as u64);
            for _ in 0..rate {
                let lbn = splitmix64(args.seed ^ (w << 16) ^ (t << 8) ^ i) % pool;
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
