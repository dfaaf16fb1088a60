//! Deterministic whole-array chaos scenarios (seed via `FQOS_TEST_SEED`):
//! scripted fail-stop / fail-slow / restore events drive the health plane,
//! emergency evacuation and elastic membership end to end, and every run
//! must close the extended conservation law
//! `Σ served + Σ fault_lost + Σ hedges_cancelled + migrated_in_flight +
//! evacuation_lost == Σ admitted_total` exactly.

use fqos_cluster::{ArrayHealth, ClusterConfig, ClusterError, ClusterFaultSchedule, QosCluster};
use fqos_core::QosConfig;
use fqos_server::{OverloadPolicy, RejectReason, ServerConfig, SubmitOutcome};

/// One paper window (`T`), matching `QosConfig::paper_9_3_1`.
const BASE_T: u64 = 133_000;
const DEFAULT_SEED: u64 = 0x5EED_F00D;

fn seed() -> u64 {
    match std::env::var("FQOS_TEST_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = s
                .strip_prefix("0x")
                .map_or_else(|| s.parse(), |hex| u64::from_str_radix(hex, 16));
            parsed.unwrap_or(DEFAULT_SEED)
        }
        Err(_) => DEFAULT_SEED,
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Fresh scratch directory for a WAL-backed array.
fn scratch_path(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "fqos-chaos-{tag}-{}-{:x}",
        std::process::id(),
        splitmix64(seed() ^ tag.len() as u64)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Wait for the worker threads to settle the first `sealed` admissions:
/// device health samples are observed at completion, so a tick that must
/// see them cannot run before the workers catch up. `sealed` counts the
/// admissions whose window the caller has sealed — every one of them has
/// been dispatched and settles; one delayed into a later window (its
/// replicas all scorer-condemned until a probe readmits a device) is not
/// waited for. Bounded by passes, not by a clock: a settle that never
/// comes (or a wrong `sealed`) fails here with the audit instead of
/// hanging the job.
fn drain(cluster: &QosCluster, sealed: u64) {
    for _ in 0..DRAIN_PASSES {
        if cluster.metrics().ledger().settled() >= sealed {
            return;
        }
        std::thread::yield_now();
    }
    let m = cluster.metrics();
    panic!(
        "workers settled {} of {sealed} sealed admissions after {DRAIN_PASSES} passes\n{}",
        m.ledger().settled(),
        m.render_audit()
    );
}

/// A wait takes 1 pass at the median and 429 at the most (3 000 waits,
/// debug build, all six tests sharing two cores); each pass yields the
/// core to the workers, so the cap is seconds of their time.
const DRAIN_PASSES: u32 = 1_000_000;

/// `arrays` paper arrays, rebalancing off (chaos dynamics only), two
/// weight-1 tenants pinned per array: array `a` serves tenants
/// `2a + 1` and `2a + 2`.
fn pinned_fleet(arrays: usize, chaos: ClusterFaultSchedule) -> QosCluster {
    let array = ServerConfig::new(QosConfig::paper_9_3_1());
    let cluster = QosCluster::new(
        ClusterConfig::uniform(arrays, &array)
            .with_rebalance(false)
            .with_chaos(chaos),
    )
    .unwrap();
    for a in 0..arrays {
        for t in [2 * a as u64 + 1, 2 * a as u64 + 2] {
            cluster
                .register_pinned(a, t, 1, OverloadPolicy::Delay)
                .unwrap();
        }
    }
    cluster
}

/// The acceptance matrix: kill ANY of four arrays at an arbitrary control
/// tick. Every tenant of the victim must be evacuated within the health
/// plane's detection bound (`dead_after = 2` ticks of the kill), the
/// detection gap must surface only as typed `ArrayUnavailable` refusals
/// (never a hang, never a spurious `UnknownTenant`), the extended law must
/// close exactly, and the survivors must keep fleet deadline compliance
/// at ≥ 99%.
#[test]
fn killing_any_array_at_any_tick_evacuates_within_bound_and_conserves() {
    const ARRAYS: usize = 4;
    const WINDOWS: u64 = 16;
    let seed = seed();
    for victim in 0..ARRAYS {
        for kill_tick in [3u64, 9] {
            let chaos = ClusterFaultSchedule::parse(&format!("kill:{victim}@{kill_tick}")).unwrap();
            let cluster = pinned_fleet(ARRAYS, chaos);
            let mut handle = cluster.handle();
            let mut refused = 0u64;
            for w in 0..WINDOWS {
                for t in 1..=(2 * ARRAYS as u64) {
                    let lbn = splitmix64(seed ^ (w << 16) ^ t);
                    if let SubmitOutcome::Rejected(r) = handle.submit(t, lbn, w * BASE_T + t * 500)
                    {
                        // The only legal refusal in this scenario is
                        // the transport-typed outage report for the
                        // victim's tenants during the detection gap.
                        assert_eq!(r, RejectReason::ArrayUnavailable);
                        assert!(t == 2 * victim as u64 + 1 || t == 2 * victim as u64 + 2);
                        assert!(w + 1 >= kill_tick, "refused before the kill");
                        refused += 1;
                    }
                }
                cluster.control_tick();
            }
            assert!(refused >= 1, "the detection gap was never observed");
            drop(handle);

            let m = cluster.finish();
            assert!(m.conserved(), "{}", m.render_audit());
            assert_eq!(m.health[victim], ArrayHealth::Dead);
            assert_eq!(m.evacuations.len(), 1, "exactly one evacuation");
            let e = &m.evacuations[0];
            assert_eq!(e.array, victim);
            assert!(
                e.tick <= kill_tick + 2,
                "evacuation at tick {} missed the dead_after bound for a kill at {}",
                e.tick,
                kill_tick
            );
            assert!(e.unplaced.is_empty(), "survivors had headroom for weight 1");
            let mut moved: Vec<u64> = e.moved.iter().map(|&(t, _)| t).collect();
            moved.sort_unstable();
            assert_eq!(moved, vec![2 * victim as u64 + 1, 2 * victim as u64 + 2]);
            for &(_, to) in &e.moved {
                assert_ne!(to, victim, "evacuated onto the corpse");
            }
            assert_eq!(m.evacuated_tenants, 2);
            assert!(m.refused_unavailable >= refused);
            // Survivors stay compliant: ≥ 99% of completions met their
            // deadline across the whole run, outage included.
            let compliant = m.completed() - m.deadline_violations();
            assert!(
                compliant * 100 >= m.completed() * 99,
                "compliance collapsed: {compliant}/{} ({})",
                m.completed(),
                m.render_audit()
            );
        }
    }
}

/// A WAL-backed array fail-stops with admissions in flight and later
/// restores: recovery replays the durable record, the `evacuation_lost`
/// charge is reversed exactly, tenants the evacuation already moved stay
/// on their survivors (the recovered registration is dropped as a drain
/// record), and the law closes with nothing lost.
#[test]
fn wal_restore_reverses_the_evacuation_charge() {
    let wal0 = scratch_path("wal0");
    let wal1 = scratch_path("wal1");
    let base = ServerConfig::new(QosConfig::paper_9_3_1());
    let cluster = QosCluster::new(
        ClusterConfig::new(vec![
            base.clone().with_wal(&wal0).with_wal_fsync_batch(1),
            base.clone().with_wal(&wal1).with_wal_fsync_batch(1),
        ])
        .with_rebalance(false),
    )
    .unwrap();
    cluster
        .register_pinned(0, 1, 2, OverloadPolicy::Delay)
        .unwrap();
    cluster
        .register_pinned(1, 2, 2, OverloadPolicy::Delay)
        .unwrap();
    let mut handle = cluster.handle();
    // Three admissions parked in array 0's open window: stranded by the
    // kill, durable in its log.
    for i in 0..3u64 {
        assert!(handle.submit(1, 100 + i, i * 1_000).is_admitted());
    }
    let stranded = cluster.kill_array(0).unwrap();
    assert_eq!(stranded, 3, "open-window admissions never settled");
    assert_eq!(cluster.evacuation_lost(), 3);

    // Two bad heartbeats → Dead verdict → evacuation to the survivor.
    cluster.control_tick();
    cluster.control_tick();
    assert_eq!(
        cluster.route_of(1),
        Some(1),
        "tenant 1 evacuated to array 1"
    );

    // Restore from the log: the ledger charge is reversed — the stranded
    // work is the recovered engine's own accounting now.
    assert_eq!(cluster.restore_array(0), Ok(true));
    assert_eq!(cluster.evacuation_lost(), 0, "charge fully reversed");
    assert_eq!(
        cluster.route_of(1),
        Some(1),
        "evacuated tenant stays on the survivor after the source returns"
    );

    // Both tenants keep submitting; the recovered in-flight settles at
    // the restored array's own seals.
    for w in 1..6u64 {
        assert!(handle.submit(1, 200 + w, w * BASE_T).is_admitted());
        assert!(handle.submit(2, 300 + w, w * BASE_T).is_admitted());
        cluster.control_tick();
    }
    drop(handle);
    let m = cluster.finish();
    assert!(m.conserved(), "{}", m.render_audit());
    assert_eq!(m.evacuation_lost, 0);
    assert_eq!(m.migrated_in_flight, 0, "recovered drain fully settled");
    assert_eq!(
        m.health[0],
        ArrayHealth::Healthy,
        "restore resets the verdict"
    );
    let _ = std::fs::remove_dir_all(&wal0);
    let _ = std::fs::remove_dir_all(&wal1);
}

/// Without a WAL the restore starts an empty incarnation: the frozen
/// counters are archived as permanent history (still part of the fleet
/// totals), the stranded residue stays charged to `evacuation_lost`
/// forever, and the law closes around the archive.
#[test]
fn fresh_restore_archives_the_frozen_history_and_keeps_the_charge() {
    let cluster = pinned_fleet(2, ClusterFaultSchedule::new());
    let mut handle = cluster.handle();
    assert!(handle.submit(1, 0, 0).is_admitted());
    let stranded = cluster.kill_array(0).unwrap();
    assert_eq!(stranded, 1);
    assert_eq!(cluster.restore_array(0), Ok(false), "no log to recover");
    assert_eq!(cluster.evacuation_lost(), 1, "losses are permanent");
    // The restored incarnation serves its still-routed tenants again.
    for w in 1..4u64 {
        for t in 1..=4u64 {
            assert!(handle.submit(t, w * 16 + t, w * BASE_T).is_admitted());
        }
        cluster.control_tick();
    }
    drop(handle);
    let m = cluster.finish();
    assert!(m.conserved(), "{}", m.render_audit());
    assert_eq!(m.evacuation_lost, 1);
    assert_eq!(m.past.len(), 1, "one archived incarnation");
    assert_eq!(m.past[0].admitted_total(), 1, "the archive holds the kill");
}

/// Elastic membership under load: grow the fleet at runtime, then retire
/// an original member. The retiree's tenants re-register on survivors
/// and its in-flight drains cooperatively — at the end the law closes
/// with zero migrated in-flight and every tenant routed to a live array.
#[test]
fn elastic_add_and_remove_under_load_conserve_the_law() {
    let cluster = pinned_fleet(2, ClusterFaultSchedule::new());
    let mut handle = cluster.handle();
    for w in 0..4u64 {
        for t in 1..=4u64 {
            assert!(handle.submit(t, w * 16 + t, w * BASE_T).is_admitted());
        }
        cluster.control_tick();
    }
    let epoch_before = cluster.epoch();
    let added = cluster
        .add_array(ServerConfig::new(QosConfig::paper_9_3_1()))
        .unwrap();
    assert_eq!(added, 2);
    assert!(cluster.epoch() > epoch_before, "membership bumps the epoch");

    // Retire array 0: both its tenants must land on the survivors.
    let placements = cluster.remove_array(0).unwrap();
    assert_eq!(placements.len(), 2);
    for &(t, to) in &placements {
        let to = to.expect("survivors had headroom");
        assert_ne!(to, 0);
        assert_eq!(cluster.route_of(t), Some(to));
    }
    assert!(matches!(
        cluster.remove_array(0),
        Err(ClusterError::ArrayNotLive { .. })
    ));

    for w in 4..8u64 {
        for t in 1..=4u64 {
            assert!(
                handle.submit(t, w * 16 + t, w * BASE_T).is_admitted(),
                "tenant {t} lost service during membership churn"
            );
        }
        cluster.control_tick();
    }
    drop(handle);
    let m = cluster.finish();
    assert!(m.conserved(), "{}", m.render_audit());
    assert_eq!(m.migrated_in_flight, 0, "retiree drained fully");
    assert!(m.retired[0], "array 0 left the fleet");
    assert_eq!(
        m.admitted_total(),
        8 * 4,
        "every submission admitted across the churn"
    );
}

/// Fail-slow: a scripted 20× whole-array degradation draws a `Slow`
/// verdict from the health plane (no evacuation — the data is readable),
/// and healing it draws a recovery after the scorer's clean streak.
/// The array-level verdict rides on the per-device scorer, so the
/// timeline is warm-up (EWMA baselines) → degrade → device condemned
/// after three anomalous samples → array `Slow` after two slow ticks →
/// heal → device re-probed after eight sample-less windows and cleared →
/// array `Healthy` after four clean ticks (tick 25 of the 32 run here).
#[test]
fn fail_slow_draws_a_slow_verdict_and_recovery() {
    let array = ServerConfig::new(QosConfig::paper_9_3_1());
    let chaos = ClusterFaultSchedule::new().slow(0, 4, 20).restore(0, 9);
    let cluster = QosCluster::new(
        ClusterConfig::uniform(2, &array)
            .with_rebalance(false)
            .with_chaos(chaos),
    )
    .unwrap();
    cluster
        .register_pinned(0, 1, 2, OverloadPolicy::Delay)
        .unwrap();
    cluster
        .register_pinned(1, 2, 1, OverloadPolicy::Delay)
        .unwrap();
    let mut handle = cluster.handle();
    let mut saw_slow = false;
    let mut admitted_into: Vec<u64> = Vec::new();
    for w in 0..32u64 {
        // One bucket's worth of traffic so its replica devices sample
        // densely enough for the scorer to act within the run.
        for (tenant, lbn, at) in [(1, 0, 0), (1, 0, 1_000), (2, 1, 0)] {
            admitted_into.extend(handle.submit(tenant, lbn, w * BASE_T + at).window());
        }
        // Seal window `w` and let its completions reach the scorer before
        // the tick probes the verdict — sampling is asynchronous.
        handle.advance_all((w + 1) * BASE_T);
        drain(
            &cluster,
            admitted_into.iter().filter(|&&window| window <= w).count() as u64,
        );
        cluster.control_tick();
        saw_slow |= cluster.health()[0] == ArrayHealth::Slow;
    }
    assert!(saw_slow, "the degradation never drew a Slow verdict");
    assert_eq!(
        cluster.health()[0],
        ArrayHealth::Healthy,
        "the heal never drew a recovery"
    );
    drop(handle);
    let m = cluster.finish();
    assert!(m.conserved(), "{}", m.render_audit());
    assert!(m.health_verdicts_slow >= 1);
    assert!(m.health_recoveries >= 1);
    assert_eq!(m.evacuations.len(), 0, "fail-slow must not evacuate");
}

/// Whether `tenant` has a live registration on `array`.
fn live_on(cluster: &QosCluster, tenant: u64, array: usize) -> bool {
    cluster.metrics().arrays[array]
        .tenants
        .iter()
        .any(|t| t.tenant == tenant && t.live)
}

/// The gnarly interleaving: a rebalancing migration moves the hot tenant
/// to a target array, and the target is then killed before the source
/// drain has settled — the source's window holding the tenant's last
/// admissions never seals before the evacuation. The Dead verdict routes
/// the tenant back home at once; its registration there waits for the
/// departed record to drain (`RegisterError::DrainPending`) and lands on
/// the first control tick after it has. The extended law must absorb
/// both the migration drain and the frozen target at once.
#[test]
fn killing_the_migration_target_mid_drain_conserves() {
    let seed = seed();
    let array = ServerConfig::new(QosConfig::paper_9_3_1());
    let chaos = ClusterFaultSchedule::new().kill(1, 2);
    let cluster = QosCluster::new(
        ClusterConfig::uniform(2, &array)
            .with_rebalance(true)
            .with_chaos(chaos),
    )
    .unwrap();
    // The rebalance.rs skew, minus one bystander: tenant 1 overdrives
    // its reservation so the control loop migrates it (resized to its
    // observed demand of 4), and the home array keeps enough headroom
    // (S − 1 = 4) that the evacuation can bring it back.
    cluster
        .register_pinned(0, 1, 2, OverloadPolicy::Reject)
        .unwrap();
    cluster
        .register_pinned(0, 3, 1, OverloadPolicy::Delay)
        .unwrap();
    let mut handle = cluster.handle();
    let mut in_window_0 = 0;
    let mut i = 0u64;
    for &(tenant, n) in &[(1u64, 4u64), (3, 1)] {
        for _ in 0..n {
            let lbn = splitmix64(seed ^ i);
            in_window_0 += u64::from(handle.submit(tenant, lbn, i * 1_000).window() == Some(0));
            i += 1;
        }
    }
    let event = cluster
        .control_tick()
        .expect("saturation must trigger the migration");
    assert_eq!(event.tenant, 1);
    assert_eq!((event.from, event.to), (0, 1));
    // Tick 2 kills the target, tick 3 evacuates it; window 0 is still
    // open on array 0, so tenant 1's departed record there still holds
    // its two admissions.
    cluster.control_tick();
    cluster.control_tick();
    assert_eq!(cluster.health()[1], ArrayHealth::Dead);
    assert_eq!(cluster.route_of(1), Some(0), "routed home at once");
    assert!(!live_on(&cluster, 1, 0), "registered only once drained");

    handle.advance_all(BASE_T);
    drain(&cluster, in_window_0);
    cluster.control_tick();
    assert!(
        live_on(&cluster, 1, 0),
        "the tick after the drain registers it"
    );
    assert!(handle.submit(1, 7, BASE_T).is_admitted());
    drop(handle);

    let m = cluster.finish();
    assert!(m.conserved(), "{}", m.render_audit());
    assert_eq!(m.evacuations.len(), 1, "the dead target was evacuated");
    let e = &m.evacuations[0];
    assert_eq!(e.array, 1);
    assert_eq!(e.moved, [(1, 0)], "the migrated tenant comes home");
    assert!(e.unplaced.is_empty(), "{e:?}");
    assert_eq!(
        m.migrated_in_flight, 0,
        "frozen source skipped, live drained"
    );
}

/// The retirement twin: a tenant leaves array 0 with admissions in its
/// open window, re-registers on array 1, and array 1 then retires. The
/// ring sends the tenant back to array 0, where its departed record is
/// still draining: it stays routed there, pending, and registers on the
/// first control tick after the drain.
#[test]
fn retiring_onto_a_draining_record_conserves() {
    let cluster = pinned_fleet(2, ClusterFaultSchedule::new());
    let mut handle = cluster.handle();
    assert_eq!(handle.submit(1, 0, 0).window(), Some(0));
    assert!(cluster.deregister_tenant(1));
    cluster
        .register_pinned(1, 1, 1, OverloadPolicy::Delay)
        .unwrap();

    let placements = cluster.remove_array(1).unwrap();
    let mut homes: Vec<(u64, Option<usize>)> = placements.clone();
    homes.sort_unstable();
    assert_eq!(homes, [(1, Some(0)), (3, Some(0)), (4, Some(0))]);
    assert_eq!(cluster.route_of(1), Some(0));
    assert!(!live_on(&cluster, 1, 0), "registered only once drained");

    handle.advance_all(BASE_T);
    drain(&cluster, 1);
    cluster.control_tick();
    assert!(
        live_on(&cluster, 1, 0),
        "the tick after the drain registers it"
    );
    for t in 1..=4u64 {
        assert!(handle.submit(t, 16 + t, BASE_T).is_admitted());
    }
    drop(handle);

    let m = cluster.finish();
    assert!(m.conserved(), "{}", m.render_audit());
    assert!(m.retired[1]);
    assert_eq!(m.migrated_in_flight, 0);
}

/// The lock-order census, taken at run time, cluster side: tenants
/// registered through the router, a control loop that kills a WAL-backed
/// array with admissions parked in its open window and slows the other, a
/// restore that re-parks those admissions under the router (through a
/// fault plane with a schedule), a departure, and the finish take every
/// edge the fleet's hierarchy keeps (DESIGN.md, "Lock hierarchy"); a path
/// that stops taking one fails here.
#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "the order check compiles out of release"
)]
fn the_fleet_takes_every_lock_order_edge_it_keeps() {
    use fqos_server::FaultSchedule;
    use fqos_sync::Class::{self, *};
    let wal = [scratch_path("census0"), scratch_path("census1")];
    let array = |dir| {
        ServerConfig::new(QosConfig::paper_9_3_1())
            .with_wal(dir)
            .with_wal_fsync_batch(1)
            .with_fault_schedule(FaultSchedule::new().fail(8, 1 << 20))
    };
    let chaos = ClusterFaultSchedule::new().kill(0, 2).slow(1, 3, 4);
    let cluster = QosCluster::new(
        ClusterConfig::new(vec![array(&wal[0]), array(&wal[1])])
            .with_rebalance(false)
            .with_chaos(chaos),
    )
    .unwrap();
    for (array, tenant) in [(0, 1), (0, 2), (1, 3)] {
        cluster
            .register_pinned(array, tenant, 1, OverloadPolicy::Delay)
            .unwrap();
    }
    let mut handle = cluster.handle();
    for w in 0..8u64 {
        for t in 1..=3 {
            handle.submit(t, splitmix64(w << 8 | t) % 512, w * BASE_T + t * 500);
        }
        cluster.control_tick();
        if w == 1 {
            // Before the handle sees the kill and closes its view of the
            // corpse, which would seal the window the restore re-parks.
            assert_eq!(cluster.restore_array(0), Ok(true));
        }
    }
    assert!(cluster.deregister_tenant(3));
    drop(handle);
    let m = cluster.finish();
    assert!(m.conserved(), "{}", m.render_audit());
    let engine = [
        EngineDispatch,
        RegistryAdmission,
        WindowSlot,
        RegistryShard,
        FaultHealth,
        EngineStage,
        EngineWal,
    ];
    let kept: [(Class, &[Class]); 3] = [
        (
            ClusterCtrl,
            &[ClusterRouter, ClusterArrays, ClusterHealth, EngineQuiesce],
        ),
        (ClusterRouter, &[ClusterArrays]),
        (ClusterArrays, &[ClusterHealth, EngineQuiesce]),
    ];
    let edges = kept
        .iter()
        .flat_map(|&(held, taken)| taken.iter().chain(&engine).map(move |&t| (held, t)));
    for (held, taken) in edges {
        assert!(
            fqos_sync::seen(held, taken),
            "{} → {} never taken",
            held.name(),
            taken.name()
        );
    }
    for dir in &wal {
        let _ = std::fs::remove_dir_all(dir);
    }
}
