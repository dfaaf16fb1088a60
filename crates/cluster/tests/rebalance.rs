//! Deterministic saturation → rebalance scenario (seed via
//! `FQOS_TEST_SEED`): one array's ε-budget saturates under a skewed
//! pinning, the control loop migrates the hot tenant to fleet headroom,
//! and fleet-wide deadline compliance returns to ≥ 99%.

use fqos_cluster::{ClusterConfig, ClusterMetrics, QosCluster};
use fqos_core::QosConfig;
use fqos_server::{OverloadPolicy, ServerConfig};

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

/// Two paper arrays (S(1) = 5, ε = 0), all three tenants pinned onto
/// array 0. Tenant 1 submits 4/window against a reservation of 2.
fn skewed_cluster(rebalance: bool) -> QosCluster {
    let array = ServerConfig::new(QosConfig::paper_9_3_1());
    let cluster =
        QosCluster::new(ClusterConfig::uniform(2, &array).with_rebalance(rebalance)).unwrap();
    cluster
        .register_pinned(0, 1, 2, OverloadPolicy::Reject)
        .unwrap();
    cluster
        .register_pinned(0, 2, 2, OverloadPolicy::Delay)
        .unwrap();
    cluster
        .register_pinned(0, 3, 1, OverloadPolicy::Delay)
        .unwrap();
    cluster
}

/// Per-window demand: (tenant, requests). Tenant 1 overdrives its
/// reservation by 2×.
const DEMAND: &[(u64, u64)] = &[(1, 4), (2, 2), (3, 1)];

fn submitted_per_window() -> u64 {
    DEMAND.iter().map(|&(_, n)| n).sum()
}

/// `(compliant, submitted)` deltas between two fleet snapshots:
/// completions that met their deadline vs. everything the phase asked for.
fn phase_compliance(at_start: &ClusterMetrics, at_end: &ClusterMetrics) -> (u64, u64) {
    let compliant = (at_end.completed() - at_start.completed())
        .saturating_sub(at_end.deadline_violations() - at_start.deadline_violations());
    let submitted = (at_end.admitted_total() + at_end.rejected() + at_end.unrouted)
        - (at_start.admitted_total() + at_start.rejected() + at_start.unrouted);
    (compliant, submitted)
}

#[test]
fn saturated_epsilon_budget_triggers_a_compliance_restoring_rebalance() {
    let seed = seed();
    let cluster = skewed_cluster(true);
    let mut handle = cluster.handle();
    let windows = 12u64;
    let mut event = None;
    let mut at_event = None;
    for w in 0..windows {
        let mut i = 0u64;
        for &(tenant, n) in DEMAND {
            for _ in 0..n {
                let lbn = splitmix64(seed ^ (w << 8) ^ i);
                handle.submit(tenant, lbn, w * BASE_T + i * 1_000);
                i += 1;
            }
        }
        if let Some(e) = cluster.control_tick() {
            assert!(event.is_none(), "a second migration fired: {e:?}");
            event = Some(e);
            at_event = Some(cluster.metrics());
        }
    }
    drop(handle);

    // The rebalance happened, off the saturated array, on the first tick
    // that saw pressure, with the reservation resized to observed demand.
    let event = event.expect("saturation must trigger a rebalance");
    assert_eq!(event.tick, 1);
    assert_eq!(event.tenant, 1, "the overdriving tenant migrates");
    assert_eq!(event.from, 0);
    assert_eq!(event.to, 1);
    assert_eq!(event.reserved, 4, "reservation resized to observed demand");

    let at_event = at_event.expect("snapshot at the rebalance");
    // Mid-run law: fleet in-flight bounds the migrated share.
    assert!(at_event.in_flight_total() >= at_event.migrated_in_flight);

    let finished = cluster.finish();
    assert!(finished.conserved(), "{}", finished.render_audit());
    assert_eq!(finished.migrated_in_flight, 0, "drain fully settled");
    assert_eq!(finished.rebalances, 1);
    assert_eq!(finished.events, vec![event]);
    assert_eq!(
        finished.admitted_total() + finished.rejected(),
        windows * submitted_per_window(),
        "every submission accounted"
    );

    // Phase 1 (before the migration): tenant 1's overdrive is rejected at
    // its home array, so compliance cannot reach 99%.
    let submitted_p1 = at_event.admitted_total() + at_event.rejected() + at_event.unrouted;
    let admitted_p1 = at_event.admitted_total();
    assert!(
        (admitted_p1 as f64) < 0.99 * submitted_p1 as f64,
        "phase 1 should saturate: {admitted_p1}/{submitted_p1}"
    );

    // Phase 2 (after): the fleet serves everything within deadline.
    let (compliant_p2, submitted_p2) = phase_compliance(&at_event, &finished);
    assert!(submitted_p2 > 0);
    assert!(
        compliant_p2 as f64 >= 0.99 * submitted_p2 as f64,
        "post-rebalance compliance {compliant_p2}/{submitted_p2}"
    );
    // And nothing was rejected again after the migration.
    assert_eq!(finished.rejected(), at_event.rejected());
    assert_eq!(finished.deadline_violations(), 0);
}

/// Regression: a migration to a lower-index array must not poison the
/// controller's per-tenant baseline. The source's departed record (frozen,
/// large cumulative counters) used to overwrite the fresh counters of the
/// tenant's new home on every re-baseline; once the new array became the
/// hottest, the delta underflowed — a debug panic, or astronomical
/// pressure/demand driving garbage migrations in release.
#[test]
fn migration_to_a_lower_index_array_keeps_tenant_deltas_sane() {
    let array = ServerConfig::new(QosConfig::paper_9_3_1());
    let cluster = QosCluster::new(ClusterConfig::uniform(2, &array).with_rebalance(true)).unwrap();
    // Everyone pinned on array 1, array 0 empty: the rebalance goes 1 → 0.
    cluster
        .register_pinned(1, 1, 2, OverloadPolicy::Reject)
        .unwrap();
    cluster
        .register_pinned(1, 2, 2, OverloadPolicy::Delay)
        .unwrap();
    cluster
        .register_pinned(1, 3, 1, OverloadPolicy::Delay)
        .unwrap();
    let mut handle = cluster.handle();

    // Phase 1: five windows of 2× overdrive before the first control tick,
    // so the source record freezes with counters well above anything the
    // fresh record accumulates by the next eligible tick.
    let mut w = 0u64;
    for _ in 0..5 {
        let mut i = 0u64;
        for &(tenant, n) in &[(1u64, 4u64), (2, 2), (3, 1)] {
            for _ in 0..n {
                handle.submit(tenant, (w << 8) | i, w * BASE_T + i * 1_000);
                i += 1;
            }
        }
        w += 1;
    }
    let event = cluster
        .control_tick()
        .expect("saturation must trigger the migration");
    assert_eq!((event.tenant, event.from, event.to), (1, 1, 0));

    // Phase 2: the tenant overdrives its resized reservation on array 0,
    // which becomes the hottest array. Every eligible tick differentiates
    // its fresh counters against the baseline — and must not underflow.
    // The only escape (back to array 1) has too little headroom to beat
    // the tenant's current reservation, so no second migration fires.
    for _ in 0..6 {
        let mut i = 0u64;
        for &(tenant, n) in &[(1u64, 6u64), (2, 2), (3, 1)] {
            for _ in 0..n {
                handle.submit(tenant, (w << 8) | i, w * BASE_T + i * 1_000);
                i += 1;
            }
        }
        w += 1;
        assert!(
            cluster.control_tick().is_none(),
            "no profitable second move exists"
        );
    }
    drop(handle);
    let m = cluster.finish();
    assert!(m.conserved(), "{}", m.render_audit());
    assert_eq!(m.rebalances, 1);
}

#[test]
fn without_rebalancing_the_saturation_persists() {
    let seed = seed();
    let cluster = skewed_cluster(false);
    let mut handle = cluster.handle();
    let windows = 6u64;
    for w in 0..windows {
        let mut i = 0u64;
        for &(tenant, n) in DEMAND {
            for _ in 0..n {
                let lbn = splitmix64(seed ^ (w << 8) ^ i);
                handle.submit(tenant, lbn, w * BASE_T + i * 1_000);
                i += 1;
            }
        }
        assert!(cluster.control_tick().is_none(), "rebalancing is off");
    }
    drop(handle);
    let m = cluster.finish();
    assert!(m.conserved(), "{}", m.render_audit());
    assert_eq!(m.rebalances, 0);
    // Tenant 1 keeps losing its overdrive every single window.
    assert_eq!(m.rejected(), 2 * windows);
    assert_eq!(m.arrays[1].admitted_total(), 0, "array 1 stays idle");
}
