//! The fleet golden: one scripted run of the cluster tier, reduced to a
//! digest of every placement decision it makes. One submitter thread and
//! no fail-slow event, so the run is deterministic: admission happens on
//! the submitting thread, a kill strands exactly the open windows, and the
//! final books close after `finish` drains every live array.
//!
//! The scenario registers tenants pinned and through the ring, overdrives
//! one tenant until the control loop migrates it, kills a WAL-backed array
//! by script and lets the health plane evacuate it, restores that array
//! from its log, kills and restores a second array before its Dead verdict
//! (a fresh engine that re-registers its routed tenants), grows the fleet
//! and retires an original member.
//!
//! No tenant ever returns to an array it has left, so no registration can
//! meet a departed record that is still draining
//! (`RegisterError::DrainPending`): the digest does not depend on how
//! fast the workers settle.

use fqos_cluster::{ClusterConfig, ClusterFaultSchedule, QosCluster};
use fqos_core::QosConfig;
use fqos_server::{Ledger, OverloadPolicy, ServerConfig};
use std::collections::{HashMap, HashSet};

/// One paper window (`T`), matching `QosConfig::paper_9_3_1`.
const BASE_T: u64 = 133_000;

fn fnv(h: &mut u64, x: u64) {
    *h = (*h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fnv_ledger(h: &mut u64, l: &Ledger) {
    for term in [
        l.admitted,
        l.overflow,
        l.completed(),
        l.lost,
        l.write_settled,
        l.write_lost,
    ] {
        fnv(h, term);
    }
}

/// Pinned tenants `(array, tenant, reserved, policy)`: tenant 1 overdrives
/// its reservation on array 0; tenant 3 holds room on the WAL array so the
/// migration picks array 1.
const PINNED: &[(usize, u64, usize, OverloadPolicy)] = &[
    (0, 1, 2, OverloadPolicy::Reject),
    (0, 2, 1, OverloadPolicy::Delay),
    (2, 3, 1, OverloadPolicy::Delay),
];

/// Tenants placed by the ring, weight 1 each.
const RING: &[u64] = &[10, 11, 12, 13];

/// Requests per window per tenant: tenant 1 sends twice its reservation.
fn demand(tenant: u64) -> u64 {
    if tenant == 1 {
        4
    } else {
        1
    }
}

const WINDOWS: u64 = 24;

fn fleet_digest() -> u64 {
    let wal = std::env::temp_dir().join(format!("fqos-fleet-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal);
    std::fs::create_dir_all(&wal).unwrap();
    let base = ServerConfig::new(QosConfig::paper_9_3_1());
    // Array 2 (the WAL array) fail-stops at tick 4 and is evacuated on
    // its Dead verdict at tick 5; array 1 fail-stops at tick 11 and comes
    // back fresh before a verdict.
    let chaos = ClusterFaultSchedule::parse("kill:2@4,kill:1@11").unwrap();
    let cluster = QosCluster::new(
        ClusterConfig::new(vec![
            base.clone(),
            base.clone(),
            base.clone().with_wal(&wal).with_wal_fsync_batch(1),
        ])
        .with_chaos(chaos),
    )
    .unwrap();
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut tenants: Vec<u64> = Vec::new();
    for &(array, tenant, reserved, policy) in PINNED {
        cluster
            .register_pinned(array, tenant, reserved, policy)
            .unwrap();
        tenants.push(tenant);
    }
    for &tenant in RING {
        let array = cluster
            .register_tenant(tenant, 1, OverloadPolicy::Delay)
            .unwrap();
        fnv(&mut h, array as u64);
        tenants.push(tenant);
    }
    // Every (tenant, array) a tenant has been routed to: a move back onto
    // one of them could meet its own departed record still draining.
    let mut visited: HashSet<(u64, usize)> = HashSet::new();
    let mut current: HashMap<u64, usize> = HashMap::new();
    let mut note_routes = |cluster: &QosCluster, h: &mut u64| {
        for &t in &tenants {
            let route = cluster.route_of(t);
            fnv(h, route.map_or(u64::MAX, |a| a as u64));
            let a = route.expect("every tenant stays routed");
            if current.insert(t, a) != Some(a) {
                assert!(visited.insert((t, a)), "tenant {t} returned to array {a}");
            }
        }
    };
    note_routes(&cluster, &mut h);
    let mut handle = cluster.handle();
    let mut rng = 0x000f_1ee7_u64;
    let mut rebalances = 0;
    for w in 0..WINDOWS {
        let mut i = 0u64;
        for &t in &tenants {
            for _ in 0..demand(t) {
                let lbn = splitmix(&mut rng) % 4096;
                let out = handle.submit(t, lbn, w * BASE_T + i * 500);
                fnv(&mut h, out.is_admitted() as u64);
                i += 1;
            }
        }
        if let Some(e) = cluster.control_tick() {
            for x in [
                e.tick,
                e.tenant,
                e.from as u64,
                e.to as u64,
                e.reserved as u64,
            ] {
                fnv(&mut h, x);
            }
            rebalances += 1;
        }
        match w {
            // The WAL array comes back from its log after its evacuation.
            8 => {
                let recovered = cluster.restore_array(2).unwrap();
                assert!(recovered);
                fnv(&mut h, u64::from(recovered));
            }
            // Array 1 comes back before its Dead verdict: a fresh engine.
            10 => {
                let recovered = cluster.restore_array(1).unwrap();
                assert!(!recovered);
                fnv(&mut h, u64::from(recovered));
            }
            14 => {
                let added = cluster.add_array(base.clone()).unwrap();
                fnv(&mut h, added as u64);
            }
            16 => {
                for (tenant, to) in cluster.remove_array(0).unwrap() {
                    let to = to.expect("survivors have room");
                    fnv(&mut h, tenant);
                    fnv(&mut h, to as u64);
                }
            }
            _ => {}
        }
        note_routes(&cluster, &mut h);
    }
    drop(handle);
    let m = cluster.finish();
    assert!(m.conserved(), "{}", m.render_audit());
    assert!(rebalances >= 1, "the overdriven tenant never migrated");
    assert_eq!(m.evacuations.len(), 1, "one Dead verdict");
    for e in &m.evacuations {
        assert!(e.unplaced.is_empty(), "every evacuee placed: {e:?}");
        for x in [e.tick, e.array as u64] {
            fnv(&mut h, x);
        }
        for &(tenant, to) in &e.moved {
            fnv(&mut h, tenant);
            fnv(&mut h, to as u64);
        }
    }
    for a in &m.arrays {
        fnv_ledger(&mut h, &a.ledger());
        let mut records: Vec<_> = a.tenants.iter().collect();
        records.sort_by_key(|t| (t.tenant, t.live));
        for t in records {
            for x in [
                t.tenant,
                t.reserved as u64,
                u64::from(t.live),
                t.admitted,
                t.overflow,
                t.delayed,
                t.rejected,
            ] {
                fnv(&mut h, x);
            }
        }
        fnv(&mut h, 0xff);
    }
    let _ = std::fs::remove_dir_all(&wal);
    h
}

/// Recorded before registration, migration, evacuation, retirement and
/// restore were folded into one place-and-drain path.
#[test]
fn fleet_golden() {
    assert_eq!(fleet_digest(), 0xae2b_00bb_4315_4e05);
}
