//! Property tests over small `(N, c, M)` deployments: whatever the design,
//! the access budget, the tenant mix or the load pattern, a deterministic
//! engine run must
//!
//! * keep every window's guaranteed aggregate within `S(M)`,
//! * meet the interval deadline of every admitted request,
//! * and conserve requests (admitted + rejected = submitted, served =
//!   admitted),
//!
//! and the same must survive scripted device failures within the design's
//! `c − 1` tolerance, while co-hosted failures beyond it must reject
//! rather than stall. Proptest seeds are mixed with `FQOS_TEST_SEED` (see
//! `tests/common/mod.rs`) so the whole suite re-rolls together.

mod common;

use fqos_core::{OverloadPolicy, QosConfig};
use fqos_decluster::{AllocationScheme, DesignTheoretic};
use fqos_designs::DesignCatalog;
use fqos_flashsim::time::{BASE_INTERVAL_NS, BLOCK_READ_NS};
use fqos_server::CRASH_POINTS;
use fqos_server::{
    AssignmentMode, FaultSchedule, QosServer, RejectReason, ServerConfig, SubmitOutcome,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Small constructible `(N, c)` pairs spanning both copy counts the
/// catalog knows how to build.
const DESIGNS: &[(usize, usize)] = &[(7, 3), (9, 3), (13, 3), (13, 4)];

fn qos_for(design_idx: usize, m: usize, epsilon: f64) -> QosConfig {
    let (n, c) = DESIGNS[design_idx % DESIGNS.len()];
    let design = DesignCatalog.find(n, c).expect("catalog design");
    QosConfig {
        scheme: DesignTheoretic::new(design),
        accesses: m,
        interval_ns: m as u64 * BASE_INTERVAL_NS,
        epsilon,
        policy: OverloadPolicy::Delay,
        service_ns: BLOCK_READ_NS,
    }
}

/// Split the full `S(M)` budget into 1..=4 tenant reservations with mixed
/// policies.
fn tenant_plan(limit: usize, rng: &mut StdRng) -> Vec<(u64, usize, OverloadPolicy)> {
    let mut plan = Vec::new();
    let mut remaining = limit;
    let mut id = 1u64;
    while remaining > 0 && plan.len() < 4 {
        let r = if plan.len() == 3 {
            remaining
        } else {
            rng.gen_range(1..=remaining)
        };
        let policy = if rng.gen_range(0..3usize) == 0 {
            OverloadPolicy::Reject
        } else {
            OverloadPolicy::Delay
        };
        plan.push((id, r, policy));
        remaining -= r;
        id += 1;
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Two racing submitter threads over a random small deployment.
    #[test]
    fn deterministic_admission_meets_every_deadline(
        design_idx in 0..4usize,
        m in 1..=3usize,
        eft in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let seed = seed ^ common::seed();
        let qos = qos_for(design_idx, m, 0.0);
        let limit = qos.request_limit();
        let t_ns = qos.interval_ns;
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = tenant_plan(limit, &mut rng);
        let total_reserved: usize = plan.iter().map(|&(_, r, _)| r).sum();
        prop_assert!(total_reserved <= limit);

        let mode = if eft { AssignmentMode::Eft } else { AssignmentMode::OptimalFlow };
        let server = QosServer::new(
            ServerConfig::new(qos)
                .with_workers(rng.gen_range(1..=4))
                .with_queue_depth(rng.gen_range(1..=8))
                .with_assignment(mode),
        )
        .map_err(proptest::TestCaseError::fail)?;
        for &(t, r, p) in &plan {
            server.register(t, r, p).map_err(|e| proptest::TestCaseError::fail(e.to_string()))?;
        }

        let server = Arc::new(server);
        let windows = 25u64;
        // Both handles exist before either thread runs: a handle opened
        // after the first thread has let windows seal starts at the seal
        // frontier, and its early arrivals would be clamped forward
        // without counting as delayed.
        let handles: Vec<_> = (0..2u64).map(|thread| (thread, server.handle())).collect();
        let threads: Vec<_> = handles
            .into_iter()
            .map(|(thread, mut h)| {
                let plan = plan.clone();
                let mut rng = StdRng::seed_from_u64(seed ^ (thread + 1));
                std::thread::spawn(move || {
                    let mut submitted = 0u64;
                    for w in 0..windows {
                        for &(tenant, reserved, _) in &plan {
                            // Sometimes idle, sometimes past the reservation.
                            let burst = rng.gen_range(0..=reserved + 1);
                            for _ in 0..burst {
                                let lbn = rng.gen_range(0..10_000u64);
                                h.submit(tenant, lbn, w * t_ns + rng.gen_range(0..t_ns));
                                submitted += 1;
                            }
                        }
                    }
                    submitted
                })
            })
            .collect();
        let submitted: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        let m = Arc::into_inner(server).unwrap().finish();

        prop_assert!(m.max_window_guaranteed <= limit as u64,
            "window carried {} > S(M) = {limit}", m.max_window_guaranteed);
        prop_assert_eq!(m.guaranteed_violations, 0);
        prop_assert_eq!(m.deadline_violations, 0);
        prop_assert_eq!(m.overflow, 0);
        prop_assert_eq!(m.served, m.admitted);
        // Healthy devices never cross the hedge threshold and guaranteed
        // admissions never project past their deadline, so a clean run
        // must not speculate at all.
        prop_assert_eq!(m.hedges_issued, 0);
        prop_assert_eq!(m.admitted + m.rejected, submitted);
        let per_tenant_admitted: u64 = m.tenants.iter().map(|t| t.admitted).sum();
        prop_assert_eq!(per_tenant_admitted, m.admitted);
        // A request admitted k windows late finishes by (k+2)·T after its
        // arrival window, so the delay horizon bounds every response time.
        let horizon = 64; // ServerConfig default delay_horizon
        prop_assert!(m.max_latency_ns <= (horizon + 2) * t_ns,
            "latency {} beyond the delay horizon {}", m.max_latency_ns, (horizon + 2) * t_ns);
        if m.delayed == 0 {
            prop_assert!(m.max_latency_ns <= 2 * t_ns);
        }
    }

    /// The statistical path never lets the *guaranteed* aggregate past
    /// `S(M)`, and every overflow admission is audited.
    #[test]
    fn statistical_mode_keeps_the_guarantee_separate(
        design_idx in 0..4usize,
        m in 1..=2usize,
        seed in any::<u64>(),
    ) {
        let qos = qos_for(design_idx, m, 0.25);
        let limit = qos.request_limit();
        let t_ns = qos.interval_ns;
        let server = QosServer::new(ServerConfig::new(qos).with_workers(2))
            .map_err(proptest::TestCaseError::fail)?;
        server
            .register(1, limit, OverloadPolicy::Reject)
            .map_err(|e| proptest::TestCaseError::fail(e.to_string()))?;
        let mut rng = StdRng::seed_from_u64(seed ^ common::seed());
        let mut h = server.handle();
        for w in 0..40u64 {
            // Oscillate between calm and over-subscribed windows.
            let load = if w % 4 == 3 { limit + 3 } else { rng.gen_range(0..=limit / 2) };
            for i in 0..load as u64 {
                h.submit(1, rng.gen_range(0..10_000u64), w * t_ns + i);
            }
        }
        drop(h);
        let m = server.finish();
        prop_assert!(m.max_window_guaranteed <= limit as u64);
        // Overflow admissions may project past their deadline and hedge;
        // each completes exactly once, by the primary or a winning hedge.
        prop_assert_eq!(m.hedges_won, m.hedges_cancelled);
        prop_assert_eq!(m.served + m.hedges_won, m.admitted_total());
        prop_assert!(m.max_window_total >= m.max_window_guaranteed);
        let t_overflow: u64 = m.tenants.iter().map(|t| t.overflow).sum();
        prop_assert_eq!(t_overflow, m.overflow);
    }

    /// Any single scripted failure — any device, any window, any duration
    /// — stays within every catalog design's `c − 1` tolerance (c ≥ 3),
    /// so a full-rate deterministic replay must finish with zero deadline
    /// misses and zero lost requests.
    #[test]
    fn single_failure_within_tolerance_never_misses(
        design_idx in 0..4usize,
        m in 1..=2usize,
        device in any::<usize>(),
        fail_at in 0..20u64,
        duration in 1..=15u64,
        eft in any::<bool>(),
        stream in any::<u64>(),
    ) {
        let (n, _) = DESIGNS[design_idx % DESIGNS.len()];
        let qos = qos_for(design_idx, m, 0.0);
        // Stay within the degraded cap M · (n − 1) so the failure tightens
        // admission without forcing rejections.
        let rate = qos.request_limit().min(m * (n - 1));
        let device = device % n;
        let r = common::Scenario::new(
            qos,
            FaultSchedule::new().fail(device, fail_at).recover(device, fail_at + duration),
        )
        .mode(if eft { AssignmentMode::Eft } else { AssignmentMode::OptimalFlow })
        .windows(30)
        .stream(stream)
        .tenant(1, rate, OverloadPolicy::Delay)
        .replay();
        common::assert_guarantee_held(&r);
        prop_assert!(r.metrics.degraded_windows > 0);
        prop_assert_eq!(r.metrics.served, r.submitted - r.rejected);
    }

    /// Any mix of one fail-stop device and one silently degraded device —
    /// within every catalog design's `c − 1` co-hosting tolerance — must
    /// conserve requests exactly: every admission completes once (primary
    /// or winning hedge, never both) or is audited as lost, and a hedge
    /// win always cancels exactly one primary.
    #[test]
    fn fail_slow_mix_conserves_and_never_double_serves(
        design_idx in 0..4usize,
        fail_dev in any::<usize>(),
        slow_dev in any::<usize>(),
        factor in 2..=12u32,
        fail_at in 0..15u64,
        slow_at in 0..15u64,
        duration in 1..=10u64,
        eft in any::<bool>(),
        stream in any::<u64>(),
    ) {
        let (n, _) = DESIGNS[design_idx % DESIGNS.len()];
        let qos = qos_for(design_idx, 1, 0.0);
        let fail_dev = fail_dev % n;
        // Distinct devices: one fail-stop, one fail-slow — two affected
        // devices, within c − 1 for every catalog design (c ≥ 3).
        let slow_dev = if slow_dev % n == fail_dev { (fail_dev + 1) % n } else { slow_dev % n };
        let rate = qos.request_limit().min(n - 2);
        let r = common::Scenario::new(
            qos,
            FaultSchedule::new()
                .fail(fail_dev, fail_at)
                .recover(fail_dev, fail_at + duration)
                .slow(slow_dev, slow_at, factor)
                .restore(slow_dev, slow_at + duration),
        )
        .mode(if eft { AssignmentMode::Eft } else { AssignmentMode::OptimalFlow })
        .windows(40)
        .stream(stream)
        .tenant(1, rate, OverloadPolicy::Delay)
        .replay();
        let m = &r.metrics;
        prop_assert_eq!(m.hedges_won, m.hedges_cancelled);
        prop_assert!(
            m.ledger().conserved(),
            "conservation: {}",
            m.ledger().render()
        );
        prop_assert_eq!(m.fault_lost, 0, "one failed device is within tolerance");
        prop_assert_eq!(m.admitted_total() + m.rejected, r.submitted);
    }

    /// Failing every replica of a bucket (≥ c co-hosted failures, beyond
    /// tolerance) must reject submissions naming it — promptly, never by
    /// stalling the engine or silently dropping them.
    #[test]
    fn co_hosted_failures_reject_not_stall(
        design_idx in 0..4usize,
        bucket in any::<u64>(),
        stream in any::<u64>(),
    ) {
        let (n, c) = DESIGNS[design_idx % DESIGNS.len()];
        let deployment = qos_for(design_idx, 1, 0.0);
        let pool = AllocationScheme::num_buckets(&deployment.scheme) as u64;
        let bucket = bucket % pool;
        let failed = common::bucket_replicas(n, c, bucket);
        let mut schedule = FaultSchedule::new();
        for &d in &failed {
            schedule = schedule.fail(d, 0);
        }
        let server = QosServer::new(
            ServerConfig::new(deployment).with_fault_schedule(schedule),
        )
        .map_err(proptest::TestCaseError::fail)?;
        server
            .register(1, 2, OverloadPolicy::Delay)
            .map_err(|e| proptest::TestCaseError::fail(e.to_string()))?;
        let mut h = server.handle();
        let mut rng = common::rng(stream);
        let mut live = 0u64;
        for w in 0..10u64 {
            prop_assert_eq!(
                h.submit(1, bucket, w * BASE_INTERVAL_NS),
                SubmitOutcome::Rejected(RejectReason::ReplicasUnavailable)
            );
            // A bucket avoiding the dead replica set must keep flowing
            // (rotations can hand other buckets the same dead triple —
            // skip those, they are correctly refused too).
            let other = rng.gen_range(0..pool);
            let other_dead =
                common::bucket_replicas(n, c, other).iter().all(|d| failed.contains(d));
            if !other_dead && h.submit(1, other, w * BASE_INTERVAL_NS + 1).is_admitted() {
                live += 1;
            }
        }
        drop(h);
        let metrics = server.finish();
        prop_assert_eq!(metrics.fault_rejected, 10);
        prop_assert_eq!(metrics.fault_lost, 0);
        prop_assert_eq!(metrics.served, live, "no stall: finish() drains exactly the admitted");
        prop_assert_eq!(metrics.guaranteed_violations, 0);
    }
}

/// Subprocess entry point for the crash-recovery property below: a no-op
/// unless the parent armed `FQOS_CRASH_CHILD` (see
/// `common::crash_child_entry`).
#[test]
fn crash_child() {
    common::crash_child_entry();
}

/// Crash-property case count: `PROPTEST_CASES` (CI sets 64), defaulting
/// low locally — every case re-execs the test binary as a subprocess.
fn crash_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(crash_cases()))]

    /// Any random trace crashed at any named WAL point (at any hit, or not
    /// crashed at all) recovers to a state where the conservation law
    /// holds over the durable record, at most the single
    /// logged-but-unacked admission is resurrected, and no acknowledged
    /// admission is lost beyond what the log's `fsync_batch` leaves
    /// unsynced: nothing at 1, at most `fsync_batch − 1` records in the
    /// submitting handle's stage and as many in the shared buffer at 8 or
    /// 64. The scenario is shrinkable through the `Scenario` spec codec
    /// like every other property here.
    #[test]
    fn any_crash_point_recovers_to_a_conserved_state(
        design_idx in 0..4usize,
        m in 1..=2usize,
        two_tenants in any::<bool>(),
        windows in 8..24u64,
        stream in any::<u64>(),
        point_idx in 0..=6usize,
        nth in 1..=30u64,
        write_pct in 0..=50u64,
        batch_idx in 0..3usize,
    ) {
        let (n, c) = DESIGNS[design_idx % DESIGNS.len()];
        let mut scenario = common::Scenario::sized(n, c, m)
            .windows(windows)
            .stream(stream)
            .write_fraction(write_pct as f64 / 100.0)
            .fsync_batch([1, 8, 64][batch_idx])
            .tenant(1, 1, OverloadPolicy::Delay);
        if two_tenants {
            scenario = scenario.tenant(2, 1, OverloadPolicy::Reject);
        }
        // Index 6 (one past the named points) means "no crash"; a named
        // point whose `nth` hit never occurs also exits cleanly, which the
        // clean-run branch below must accept. The write fraction mixes
        // replica fan-out groups into the trace, so crashes can now land
        // with a write group half-programmed across its replicas.
        let point = CRASH_POINTS.get(point_idx).map(|p| format!("{p}:{nth}"));
        let wal_dir = common::scratch_path(&format!("prop-{stream}-{point_idx}"));
        let run = scenario.spawn_with_crash_point("crash_child", &wal_dir, point.as_deref());
        let metrics = scenario.recover_and_verify(&wal_dir);
        let _ = std::fs::remove_dir_all(&wal_dir);
        let unsynced = 2 * (scenario.fsync_batch - 1);
        prop_assert!(
            metrics.admitted_total() + unsynced >= run.acked,
            "recovery lost acked admissions beyond the unsynced tail: \
             admitted {} acked {} fsync_batch {}",
            metrics.admitted_total(), run.acked, scenario.fsync_batch
        );
        if run.aborted {
            prop_assert!(
                metrics.admitted_total() <= run.acked + 1,
                "at most the submit in flight is logged and unacked: \
                 admitted {} acked {}",
                metrics.admitted_total(), run.acked
            );
        } else {
            prop_assert_eq!(
                metrics.admitted_total(), run.acked,
                "a clean run's durable record must match its acks exactly"
            );
        }
    }
}
