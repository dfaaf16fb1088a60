//! Shared plumbing for the fqos-server integration suites: one seed source
//! (the `FQOS_TEST_SEED` environment variable), independent per-stream
//! RNGs derived from it, and a deterministic replay harness that drives
//! seeded traces through a server built with a scripted fault schedule and
//! audits the paper's guarantee on the result.
//!
//! Every suite pulls its randomness through [`seed`]/[`rng`], so one
//! `FQOS_TEST_SEED=0xDEADBEEF cargo test` reproduces a failure across the
//! stress, property and fault binaries at once.
#![allow(dead_code)] // each test binary links its own subset of helpers

use fqos_core::{OverloadPolicy, QosConfig};
use fqos_decluster::{AllocationScheme, DesignTheoretic};
use fqos_designs::DesignCatalog;
use fqos_flashsim::time::{BASE_INTERVAL_NS, BLOCK_READ_NS};
use fqos_server::{
    AssignmentMode, FaultSchedule, GcConfig, IoOp, MetricsSnapshot, QosServer, ServerConfig,
    SubmitOutcome,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Base seed when `FQOS_TEST_SEED` is unset.
pub const DEFAULT_SEED: u64 = 0x5EED_F00D;

/// The suite-wide base seed: `FQOS_TEST_SEED` parsed as decimal or
/// `0x`-prefixed hex, falling back to [`DEFAULT_SEED`]. Panics on a value
/// that parses as neither, so a typo'd override fails loudly instead of
/// silently testing the default.
pub fn seed() -> u64 {
    match std::env::var("FQOS_TEST_SEED") {
        Err(_) => DEFAULT_SEED,
        Ok(v) => {
            let v = v.trim();
            let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            };
            parsed.unwrap_or_else(|_| panic!("FQOS_TEST_SEED: cannot parse '{v}'"))
        }
    }
}

/// An RNG on an independent stream derived from the base seed. Streams are
/// decorrelated with a splitmix64 finalizer so `rng(0)` and `rng(1)` do
/// not overlap even though they share one seed.
pub fn rng(stream: u64) -> StdRng {
    let mut z = seed() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// QoS deployment over a catalog `(n, c, 1)` design with `m` accesses per
/// interval and deterministic admission (ε = 0).
pub fn qos(n: usize, c: usize, m: usize) -> QosConfig {
    let design = DesignCatalog.find(n, c).expect("catalog design");
    QosConfig {
        scheme: DesignTheoretic::new(design),
        accesses: m,
        interval_ns: m as u64 * BASE_INTERVAL_NS,
        epsilon: 0.0,
        policy: OverloadPolicy::Delay,
        service_ns: BLOCK_READ_NS,
    }
}

/// What one replayed scenario produced.
pub struct Replay {
    /// Final engine metrics (fault counters included).
    pub metrics: MetricsSnapshot,
    /// Requests pushed through `submit` across all tenants.
    pub submitted: u64,
    /// Outcomes that were `Rejected(_)` at submit time.
    pub rejected: u64,
}

/// A deterministic replay scenario: per-tenant seeded traces against a
/// server carrying a scripted fault schedule. Each tenant contributes
/// `reserved` requests per window at jittered in-window arrival offsets
/// over uniform random buckets; the traces are merged into one
/// arrival-ordered stream and submitted from a single thread, so a replay
/// is bit-reproducible for a given `FQOS_TEST_SEED` (thread-interleaving
/// nondeterminism is the stress suite's job, not this harness's).
pub struct Scenario {
    pub qos: QosConfig,
    pub mode: AssignmentMode,
    pub schedule: FaultSchedule,
    /// `(tenant id, reserved = per-window rate, policy)`.
    pub tenants: Vec<(u64, usize, OverloadPolicy)>,
    pub windows: u64,
    /// RNG stream id; vary to decorrelate scenarios within one suite.
    pub stream: u64,
    pub workers: usize,
    pub queue_depth: usize,
    /// Fraction of the trace issued as writes (fanned out to every
    /// replica by the engine). 0.0 keeps the historical read-only stream
    /// byte-identical — the op draw is skipped entirely.
    pub write_fraction: f64,
    /// FTL write/GC model attached to every worker device.
    pub gc: Option<GcConfig>,
    /// Speculative re-dispatch of late reads (on by default, matching the
    /// server default); GC-storm scenarios compare both settings.
    pub hedging: bool,
    /// Crash suites only: the log's `fsync_batch`. 1 makes every admission
    /// durable before its ack; more leaves up to `fsync_batch − 1` records
    /// unsynced in each stage and in the shared buffer.
    pub fsync_batch: u64,
    /// Crash-child only: after the trace, deregister this tenant (while
    /// its tail windows are still unsealed) and abort — the recipe for a
    /// durable `DrainPending` state.
    pub deregister_after: Option<u64>,
    /// The `(n, c, m)` catalog triple behind `qos`, recorded by
    /// [`Scenario::sized`] so crash suites can serialize the scenario for
    /// a subprocess; `(0, 0, 0)` when built from a raw [`QosConfig`].
    design: (usize, usize, usize),
}

impl Scenario {
    /// Scenario over `qos` with a schedule; add tenants before replaying.
    pub fn new(qos: QosConfig, schedule: FaultSchedule) -> Self {
        Scenario {
            qos,
            mode: AssignmentMode::OptimalFlow,
            schedule,
            tenants: Vec::new(),
            windows: 60,
            stream: 0,
            workers: 4,
            queue_depth: 16,
            write_fraction: 0.0,
            gc: None,
            hedging: true,
            fsync_batch: 1,
            deregister_after: None,
            design: (0, 0, 0),
        }
    }

    /// Issue `fraction` of the trace as writes (0.0–1.0).
    pub fn write_fraction(mut self, fraction: f64) -> Self {
        self.write_fraction = fraction;
        self
    }

    /// Attach an FTL write/GC model to every worker device.
    pub fn gc(mut self, gc: GcConfig) -> Self {
        self.gc = Some(gc);
        self
    }

    /// Enable or disable hedged reads.
    pub fn hedging(mut self, on: bool) -> Self {
        self.hedging = on;
        self
    }

    /// See [`Scenario::fsync_batch`].
    pub fn fsync_batch(mut self, batch: u64) -> Self {
        self.fsync_batch = batch;
        self
    }

    /// See [`Scenario::deregister_after`].
    pub fn deregister_after(mut self, tenant: u64) -> Self {
        self.deregister_after = Some(tenant);
        self
    }

    pub fn mode(mut self, mode: AssignmentMode) -> Self {
        self.mode = mode;
        self
    }

    pub fn windows(mut self, windows: u64) -> Self {
        self.windows = windows;
        self
    }

    pub fn stream(mut self, stream: u64) -> Self {
        self.stream = stream;
        self
    }

    pub fn tenant(mut self, id: u64, reserved: usize, policy: OverloadPolicy) -> Self {
        self.tenants.push((id, reserved, policy));
        self
    }

    /// Build the server, replay every tenant's seeded trace and drain.
    pub fn replay(self) -> Replay {
        let interval_ns = self.qos.interval_ns;
        let pool = AllocationScheme::num_buckets(&self.qos.scheme) as u64;
        let mut cfg = ServerConfig::new(self.qos)
            .with_workers(self.workers)
            .with_queue_depth(self.queue_depth)
            .with_assignment(self.mode)
            .with_fault_schedule(self.schedule)
            .with_hedging(self.hedging);
        if let Some(g) = self.gc {
            cfg = cfg.with_gc_model(g);
        }
        let server = QosServer::new(cfg).expect("scenario config");
        for &(t, r, p) in &self.tenants {
            server.register(t, r, p).expect("scenario registration");
        }
        let events = merged_events(
            &self.tenants,
            self.windows,
            self.stream,
            interval_ns,
            pool,
            self.write_fraction,
        );
        let (mut submitted, mut rejected) = (0u64, 0u64);
        let mut h = server.handle();
        for &(at, tenant, lbn, is_write) in &events {
            let op = if is_write { IoOp::Write } else { IoOp::Read };
            if let SubmitOutcome::Rejected(_) = h.submit_op(tenant, lbn, at, op) {
                rejected += 1;
            }
            submitted += 1;
        }
        drop(h);
        Replay {
            metrics: server.finish(),
            submitted,
            rejected,
        }
    }
}

/// The degraded-mode contract, asserted in one place: the deterministic
/// guarantee holds (no deadline misses at all under ε = 0), nothing
/// admitted was lost to a failure, and accounting balances.
pub fn assert_guarantee_held(r: &Replay) {
    let m = &r.metrics;
    assert_eq!(
        m.guaranteed_violations, 0,
        "guaranteed admission missed its interval deadline"
    );
    assert_eq!(m.deadline_violations, 0, "deadline missed");
    assert_eq!(m.fault_lost, 0, "admitted request lost to a failure");
    assert_eq!(
        m.fault_overloads, 0,
        "scripted schedules admit under the execution mask, so the seal \
         rebuild can never be infeasible"
    );
    assert_eq!(
        m.hedges_won, m.hedges_cancelled,
        "a hedge win must cancel exactly one primary"
    );
    assert_eq!(m.write_lost, 0, "logical write lost a replica");
    assert_eq!(
        m.settled(),
        m.admitted_total(),
        "admitted and settled diverge"
    );
    assert_eq!(m.rejected, r.rejected, "rejection accounting diverges");
    assert_eq!(
        m.admitted_total() + m.rejected,
        r.submitted,
        "requests leaked"
    );
}

/// The replica set of design bucket `b` under the `(n, c, 1)` catalog
/// design — lets fault tests script a failure that co-hosts a bucket.
pub fn bucket_replicas(n: usize, c: usize, bucket: u64) -> Vec<usize> {
    let scheme = DesignTheoretic::new(DesignCatalog.find(n, c).expect("catalog design"));
    scheme.replicas(scheme.bucket_for_lbn(bucket)).to_vec()
}

// --- crash-consistency harness -------------------------------------------
//
// The crash suites need a real process death (`std::process::abort` at a
// named WAL crash point), so the trace runs in a subprocess: the parent
// re-execs its own test binary filtered down to a `crash_child` test whose
// body is [`crash_child_entry`]. The scenario travels through
// `FQOS_CRASH_SCENARIO` (see [`Scenario::to_spec`]); the child appends one
// line to an acks file per submit-time acknowledgement, so the parent can
// compare what was promised against what recovery restores.

/// Environment variable that arms [`crash_child_entry`]; without it the
/// `crash_child` test is a no-op, so plain `cargo test` skips it.
pub const CRASH_CHILD_ENV: &str = "FQOS_CRASH_CHILD";

/// What a crashed (or cleanly finished) child run left behind.
pub struct CrashRun {
    /// True when the child died (the armed crash point fired); false on a
    /// clean exit.
    pub aborted: bool,
    /// Submissions the child acknowledged (complete lines in the acks
    /// file) before it stopped.
    pub acked: u64,
}

/// A scratch path under the system temp dir, unique per process and tag.
/// Any leftover from a previous run at the same path is removed first.
pub fn scratch_path(tag: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("fqos-crash-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    let _ = std::fs::remove_file(&p);
    p
}

/// Merge per-tenant seeded traces into one arrival-ordered
/// `(arrival_ns, tenant, lbn, is_write)` stream — the same derivation
/// [`Scenario::replay`] uses, so parent and child agree on the trace.
/// With `write_fraction == 0.0` the op draw is skipped, keeping the
/// read-only stream identical to the historical derivation.
fn merged_events(
    tenants: &[(u64, usize, OverloadPolicy)],
    windows: u64,
    stream: u64,
    interval_ns: u64,
    pool: u64,
    write_fraction: f64,
) -> Vec<(u64, u64, u64, bool)> {
    let mut events: Vec<(u64, u64, u64, bool)> = Vec::new();
    for &(tenant, rate, _) in tenants {
        let mut rng = rng(stream.wrapping_mul(101).wrapping_add(tenant));
        for w in 0..windows {
            for _ in 0..rate {
                let lbn = rng.gen_range(0..pool);
                let at = w * interval_ns + rng.gen_range(0..interval_ns);
                let is_write = write_fraction > 0.0 && rng.gen_bool(write_fraction);
                events.push((at, tenant, lbn, is_write));
            }
        }
    }
    events.sort_unstable();
    events
}

impl Scenario {
    /// Scenario over the catalog `(n, c, 1)` design with `m` accesses per
    /// interval, remembering the triple so the scenario can be serialized
    /// for a crash-child subprocess ([`Scenario::to_spec`]).
    pub fn sized(n: usize, c: usize, m: usize) -> Self {
        let mut s = Scenario::new(qos(n, c, m), FaultSchedule::new());
        s.design = (n, c, m);
        s
    }

    /// Serialize for `FQOS_CRASH_SCENARIO`:
    /// `n,c,m,windows,stream,workers,queue_depth,writepct,fsync_batch;tenant:rate:policy;...`
    /// (policy `d`elay / `r`eject; `writepct` is the write fraction in
    /// percent). Requires [`Scenario::sized`].
    pub fn to_spec(&self) -> String {
        let (n, c, m) = self.design;
        assert!(n != 0, "to_spec needs a Scenario::sized scenario");
        let mut spec = format!(
            "{n},{c},{m},{},{},{},{},{},{}",
            self.windows,
            self.stream,
            self.workers,
            self.queue_depth,
            (self.write_fraction * 100.0).round() as u64,
            self.fsync_batch
        );
        for &(t, r, p) in &self.tenants {
            let p = match p {
                OverloadPolicy::Delay => 'd',
                OverloadPolicy::Reject => 'r',
            };
            spec.push_str(&format!(";{t}:{r}:{p}"));
        }
        spec
    }

    /// Parse a [`Scenario::to_spec`] string.
    pub fn from_spec(spec: &str) -> Self {
        let mut parts = spec.split(';');
        let head = parts.next().expect("spec head");
        let nums: Vec<u64> = head
            .split(',')
            .map(|v| v.parse().expect("spec number"))
            .collect();
        assert_eq!(
            nums.len(),
            9,
            "spec head: n,c,m,windows,stream,workers,depth,writepct,fsync_batch"
        );
        let mut s = Scenario::sized(nums[0] as usize, nums[1] as usize, nums[2] as usize);
        s.windows = nums[3];
        s.stream = nums[4];
        s.workers = nums[5] as usize;
        s.queue_depth = nums[6] as usize;
        s.write_fraction = nums[7] as f64 / 100.0;
        s.fsync_batch = nums[8];
        for t in parts {
            let f: Vec<&str> = t.split(':').collect();
            assert_eq!(f.len(), 3, "tenant spec: id:rate:policy");
            let policy = match f[2] {
                "d" => OverloadPolicy::Delay,
                "r" => OverloadPolicy::Reject,
                other => panic!("tenant policy '{other}'"),
            };
            s = s.tenant(
                f[0].parse().expect("tenant id"),
                f[1].parse().expect("rate"),
                policy,
            );
        }
        s
    }

    /// The WAL-backed server config this scenario runs under (child and
    /// recovery sides must build the identical config).
    pub fn wal_config(&self, wal_dir: &std::path::Path) -> ServerConfig {
        let (n, c, m) = self.design;
        assert!(n != 0, "wal_config needs a Scenario::sized scenario");
        ServerConfig::new(qos(n, c, m))
            .with_workers(self.workers)
            .with_queue_depth(self.queue_depth)
            .with_assignment(self.mode)
            .with_wal(wal_dir)
            .with_wal_fsync_batch(self.fsync_batch)
            .with_wal_snapshot_interval(4)
    }

    /// Re-exec the current test binary filtered to `child_test` (whose
    /// body must call [`crash_child_entry`]), arm `crash_point`
    /// (`name[:N]`), and wait. Returns the exit shape plus how many
    /// submissions the child acknowledged before stopping.
    pub fn spawn_with_crash_point(
        &self,
        child_test: &str,
        wal_dir: &std::path::Path,
        crash_point: Option<&str>,
    ) -> CrashRun {
        let acks = scratch_path(&format!("acks-{}", self.stream));
        let exe = std::env::current_exe().expect("test binary path");
        let mut cmd = std::process::Command::new(exe);
        cmd.arg(child_test)
            .arg("--exact")
            .arg("--nocapture")
            .arg("--test-threads")
            .arg("1")
            .env(CRASH_CHILD_ENV, "1")
            .env("FQOS_CRASH_SCENARIO", self.to_spec())
            .env("FQOS_WAL_DIR", wal_dir)
            .env("FQOS_ACKS_PATH", &acks)
            .env("FQOS_TEST_SEED", format!("{:#x}", seed()));
        match crash_point {
            Some(p) => cmd.env("FQOS_CRASH_POINT", p),
            None => cmd.env_remove("FQOS_CRASH_POINT"),
        };
        match self.deregister_after {
            Some(t) => cmd.env("FQOS_CRASH_DEREGISTER", t.to_string()),
            None => cmd.env_remove("FQOS_CRASH_DEREGISTER"),
        };
        let out = cmd.output().expect("spawn crash child");
        let acked = std::fs::read_to_string(&acks)
            .map(|s| s.lines().filter(|l| !l.is_empty()).count() as u64)
            .unwrap_or(0);
        let _ = std::fs::remove_file(&acks);
        if crash_point.is_none() && self.deregister_after.is_none() && !out.status.success() {
            panic!(
                "clean child run failed:\n{}\n{}",
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            );
        }
        CrashRun {
            aborted: !out.status.success(),
            acked,
        }
    }

    /// Recover the WAL at `wal_dir` under this scenario's config, drain the
    /// re-parked work, and audit the crash-consistency contract: the
    /// conservation law restricted to durable admissions, the hedge
    /// exactly-once invariant, and an empty per-tenant in-flight ledger.
    pub fn recover_and_verify(&self, wal_dir: &std::path::Path) -> MetricsSnapshot {
        let server = QosServer::recover(self.wal_config(wal_dir)).expect("recover");
        let m = server.finish();
        assert_eq!(
            m.settled(),
            m.admitted_total(),
            "recovered accounting diverges: served {} + write_settled {} + lost {} \
             + cancelled {} + write_lost {} != admitted {}",
            m.served,
            m.write_settled,
            m.fault_lost,
            m.hedges_cancelled,
            m.write_lost,
            m.admitted_total()
        );
        assert_eq!(
            m.hedges_won, m.hedges_cancelled,
            "a hedge win must cancel exactly one primary"
        );
        for t in &m.tenants {
            assert_eq!(
                t.in_flight(),
                0,
                "tenant {} still in flight after recovery drain",
                t.tenant
            );
        }
        m
    }
}

/// Body of the `crash_child` test every crash suite declares: no-op unless
/// [`CRASH_CHILD_ENV`] is set, otherwise replays the scenario from
/// `FQOS_CRASH_SCENARIO` against a WAL at `FQOS_WAL_DIR`, appending one
/// line to `FQOS_ACKS_PATH` per acknowledged submission. An armed
/// `FQOS_CRASH_POINT` aborts the process mid-run; otherwise the child
/// drains and exits cleanly.
pub fn crash_child_entry() {
    if std::env::var(CRASH_CHILD_ENV).is_err() {
        return;
    }
    use std::io::Write as _;
    let spec = std::env::var("FQOS_CRASH_SCENARIO").expect("FQOS_CRASH_SCENARIO");
    let wal_dir = std::env::var("FQOS_WAL_DIR").expect("FQOS_WAL_DIR");
    let acks_path = std::env::var("FQOS_ACKS_PATH").expect("FQOS_ACKS_PATH");
    let scenario = Scenario::from_spec(&spec);
    let interval_ns = scenario.qos.interval_ns;
    let pool = AllocationScheme::num_buckets(&scenario.qos.scheme) as u64;
    let server =
        QosServer::new(scenario.wal_config(std::path::Path::new(&wal_dir))).expect("child server");
    for &(t, r, p) in &scenario.tenants {
        server.register(t, r, p).expect("child registration");
    }
    let events = merged_events(
        &scenario.tenants,
        scenario.windows,
        scenario.stream,
        interval_ns,
        pool,
        scenario.write_fraction,
    );
    let mut acks = std::fs::File::create(&acks_path).expect("acks file");
    let mut h = server.handle();
    for &(at, tenant, lbn, is_write) in &events {
        let op = if is_write { IoOp::Write } else { IoOp::Read };
        let outcome = h.submit_op(tenant, lbn, at, op);
        if !matches!(outcome, SubmitOutcome::Rejected(_)) {
            // The ack line is the durability promise made to the caller:
            // with fsync_batch = 1 the admit record hit stable storage
            // before `submit` returned (with more, it may still be staged).
            writeln!(acks, "{tenant} {lbn} {at}").expect("ack write");
            acks.flush().expect("ack flush");
        }
    }
    if let Ok(t) = std::env::var("FQOS_CRASH_DEREGISTER") {
        // The handle stays open, so the tail windows cannot seal: the
        // departing tenant dies with durable unsettled admissions — the
        // persisted shape of a `DrainPending` record.
        let t: u64 = t.parse().expect("FQOS_CRASH_DEREGISTER tenant id");
        server.deregister(t);
        std::process::abort();
    }
    drop(h);
    server.finish();
}
