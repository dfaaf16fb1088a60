//! Oracle tests for the incremental matching kernel behind
//! [`IncrementalRetrieval`]: a golden fingerprint captured from the
//! `FlowNetwork` + Dinic implementation it replaced, and the refusal / reset
//! / rollback contracts. The feasibility oracle (Edmonds–Karp) is in
//! `properties.rs`.

use fqos_maxflow::IncrementalRetrieval;

fn fnv(h: &mut u64, byte: u64) {
    *h = (*h ^ byte).wrapping_mul(0x0000_0100_0000_01b3);
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random replica tuple of `c` distinct devices, skewed toward low ids
/// (the minimum of two uniform draws) so hot devices fill first.
fn tuple(rng: &mut u64, devices: usize, c: usize) -> Vec<usize> {
    let mut t = Vec::with_capacity(c);
    while t.len() < c {
        let a = splitmix(rng) % devices as u64;
        let b = splitmix(rng) % devices as u64;
        let d = a.min(b) as usize;
        if !t.contains(&d) {
            t.push(d);
        }
    }
    t
}

/// Captured from the Dinic-backed implementation: 4 000 random streams over
/// `N ∈ 3..=13`, `M ∈ 1..=3`, `c ∈ 1..=3` at ~1.5× capacity, a
/// `grow_accesses` a third of the way through every other stream, hashing
/// the decision and the whole `assignments()` vector after every call.
#[test]
fn golden_random_streams() {
    let mut rng = 0x5eed_u64;
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut refused = 0u32;
    for stream in 0..4_000u32 {
        let devices = 3 + (splitmix(&mut rng) % 11) as usize;
        let m = 1 + (splitmix(&mut rng) % 3) as usize;
        let c = 1 + (splitmix(&mut rng) % 3) as usize;
        let mut inc = IncrementalRetrieval::new(devices, m);
        let arrivals = devices * m * 3 / 2;
        for i in 0..arrivals {
            if stream % 2 == 0 && i == arrivals / 3 {
                inc.grow_accesses(m + 1);
            }
            let c = if splitmix(&mut rng).is_multiple_of(8) {
                1
            } else {
                c
            };
            let ok = inc.try_add(&tuple(&mut rng, devices, c));
            refused += u32::from(!ok);
            fnv(&mut h, u64::from(ok));
            for d in inc.assignments() {
                fnv(&mut h, d as u64);
            }
            fnv(&mut h, 0xff);
        }
        for l in inc.device_loads() {
            fnv(&mut h, l as u64);
        }
        fnv(&mut h, inc.len() as u64);
    }
    assert!(
        refused > 10_000,
        "streams must exercise refusals: {refused}"
    );
    assert_eq!(h, 0x1d60_7b4b_0668_1209);
}

/// Everything observable about a kernel, for state-equality checks.
fn observe(inc: &IncrementalRetrieval) -> (usize, usize, Vec<usize>, Vec<usize>) {
    (
        inc.len(),
        inc.accesses(),
        inc.assignments(),
        inc.device_loads(),
    )
}

/// Two kernels in the same state must also *behave* the same from here on:
/// feed both one random stream and compare decisions and schedules.
fn assert_same_future(a: &mut IncrementalRetrieval, b: &mut IncrementalRetrieval, rng: &mut u64) {
    assert_eq!(observe(a), observe(b));
    let devices = a.devices();
    for _ in 0..3 * devices {
        let t = tuple(rng, devices, 2.min(devices));
        assert_eq!(a.try_add(&t), b.try_add(&t));
        assert_eq!(observe(a), observe(b));
    }
}

/// A saturated `(9, M = 2)` window with one failed device.
fn saturated(rng: &mut u64) -> IncrementalRetrieval {
    let mut inc = IncrementalRetrieval::with_failed(9, 2, 1 << 4);
    for _ in 0..64 {
        inc.try_add(&tuple(rng, 9, 3));
    }
    assert_eq!(inc.len(), 16, "8 live devices × 2 accesses");
    inc
}

#[test]
fn refused_probes_leave_no_trace() {
    let mut rng = 1;
    let mut inc = saturated(&mut rng);
    let mut twin = inc.clone();
    let before = observe(&inc);
    let bytes = inc.retained_bytes();
    for _ in 0..10_000 {
        assert!(!inc.try_add(&tuple(&mut rng, 9, 3)));
    }
    assert_eq!(observe(&inc), before);
    assert_eq!(
        inc.retained_bytes(),
        bytes,
        "a refusal must not grow a buffer"
    );
    assert_same_future(&mut inc, &mut twin, &mut rng);
}

#[test]
fn reset_equals_new() {
    let mut rng = 2;
    let mut inc = saturated(&mut rng);
    inc.checkpoint();
    inc.reset(3, 0b11);
    let mut fresh = IncrementalRetrieval::with_failed(9, 3, 0b11);
    assert_eq!(inc.caps(), fresh.caps());
    assert_same_future(&mut inc, &mut fresh, &mut rng);
}

#[test]
fn rollback_equals_the_pre_checkpoint_clone() {
    let mut rng = 3;
    for round in 0..500 {
        let devices = 3 + round % 9;
        let mut inc = IncrementalRetrieval::new(devices, 2);
        for _ in 0..devices {
            inc.try_add(&tuple(&mut rng, devices, 2));
        }
        let mut before = inc.clone();
        inc.checkpoint();
        // A write's pinned single-replica units: each may re-route earlier
        // requests before a later one is refused.
        for d in tuple(&mut rng, devices, 3) {
            inc.try_add(&[d]);
            inc.try_add(&[d]);
        }
        inc.rollback();
        assert_same_future(&mut inc, &mut before, &mut rng);
    }
}

#[test]
fn write_refused_on_a_later_replica_restores_the_rerouted_schedule() {
    // Reads A{0,1} and B{1,2} sit on 0 and 1 (M = 1); device 2 is free.
    let mut inc = IncrementalRetrieval::new(3, 1);
    assert!(inc.try_add(&[0, 1]));
    assert!(inc.try_add(&[1, 2]));
    let before = inc.assignments();
    assert_eq!(before, vec![0, 1]);
    // A write to {1, 2}: its unit on 1 pushes B to 2; its unit on 2 then
    // finds B's only other copy (1) held by the first unit, and is refused.
    inc.checkpoint();
    assert!(inc.try_add(&[1]));
    assert_eq!(inc.assignments(), vec![0, 2, 1], "first unit re-routed B");
    assert!(!inc.try_add(&[2]));
    inc.rollback();
    assert_eq!(inc.assignments(), before);
    assert_eq!(inc.device_loads(), vec![1, 1, 0]);
}
