//! Property-based tests for allocation schemes and retrieval algorithms.

use fqos_decluster::analysis::CutTable;
use fqos_decluster::retrieval::{design_theoretic_retrieval, hybrid_retrieval, max_flow_retrieval};
use fqos_decluster::AllocationScheme;
use fqos_designs::steiner::steiner_triple_system;
use fqos_designs::{known, Design, DesignCatalog};
use fqos_maxflow::IncrementalRetrieval;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

fn all_schemes() -> Vec<AllocationScheme> {
    vec![
        AllocationScheme::paper_9_3_1(),
        AllocationScheme::paper_13_3_1(),
        AllocationScheme::mirrored(9, 3, 36),
        AllocationScheme::chained(9, 3, 36),
        AllocationScheme::random_duplicate(9, 3, 36, 1),
        AllocationScheme::partitioned(9, 3, 36),
        AllocationScheme::periodic(9, 3, 2, 36),
        AllocationScheme::orthogonal(9, 72),
    ]
}

/// The layouts the kernel is checked against the cut table on.
fn cut_schemes() -> [AllocationScheme; 4] {
    [
        AllocationScheme::paper_9_3_1(),
        AllocationScheme::paper_13_3_1(),
        AllocationScheme::chained(9, 3, 36),
        AllocationScheme::mirrored(9, 3, 36),
    ]
}

/// Offer `buckets` of `scheme` one at a time to `try_add`, an assigner in
/// which device `d` serves at most `caps[d]` requests, and describe the
/// first request on which its verdict differs from the cut table's.
fn first_disagreement(
    scheme: &AllocationScheme,
    buckets: &[usize],
    caps: &[u16],
    mut try_add: impl FnMut(&[usize]) -> bool,
) -> Option<String> {
    let mut cuts = CutTable::new(scheme.devices());
    for (i, &b) in buckets.iter().enumerate() {
        let replicas = scheme.replicas(b % scheme.num_buckets());
        let fits = cuts.fits(replicas, caps);
        if try_add(replicas) != fits {
            return Some(format!(
                "{}: request {i} on {replicas:?} with capacities {caps:?}: the cut table says {fits}",
                scheme.name()
            ));
        }
        if fits {
            cuts.add(replicas);
        }
    }
    None
}

/// Each device's capacity, from two bits of `bits`: 0 (failed) w.p. 1/4,
/// a reserved `1..m` w.p. 1/4 (its value from four bits of `more`; `m` when
/// `m = 1`), and `m` otherwise.
fn capacities(bits: u64, more: u64, devices: usize, m: usize) -> Vec<u16> {
    (0..devices)
        .map(|d| match bits >> (2 * d) & 3 {
            0 => 0,
            1 => 1 + (more >> (4 * d) & 0xf) as usize % (m - 1).max(1),
            _ => m,
        } as u16)
        .collect()
}

/// First fit: each request takes its first replica with room and stays
/// there, so an earlier request is never re-routed. This is the kernel
/// with every re-augmenting path skipped.
fn first_fit(caps: &[u16]) -> impl FnMut(&[usize]) -> bool + '_ {
    let mut load = vec![0; caps.len()];
    move |replicas| {
        let free = replicas.iter().find(|&&d| load[d] < caps[d]);
        free.map(|&d| load[d] += 1).is_some()
    }
}

#[test]
fn first_fit_fails_the_kernel_cut_comparison() {
    // The comparison has teeth: an assigner that never re-routes disagrees
    // with the cut table on some multiset.
    let mut rng = StdRng::seed_from_u64(31);
    let caught = (0..1000).any(|_| {
        let m = rng.gen_range(1..5);
        let (bits, more) = (rng.next_u64(), rng.next_u64());
        let buckets: Vec<usize> = (0..rng.gen_range(1..64))
            .map(|_| rng.gen_range(0..78))
            .collect();
        cut_schemes().iter().any(|s| {
            let caps = capacities(bits, more, s.devices(), m);
            first_disagreement(s, &buckets, &caps, first_fit(&caps)).is_some()
        })
    });
    assert!(
        caught,
        "first fit agreed with the cut table on every multiset"
    );
}

/// Every design the catalog builds on up to 45 devices, every Steiner
/// triple system below 100 points and the three known designs: the layout
/// holds block `b / k` rotated by `b % k` at bucket `b` (§II-B4), for every
/// bucket, and nothing else.
#[test]
fn design_layouts_follow_the_rotation_rule() {
    let catalog =
        (2..=5usize).flat_map(|k| (3..=45).filter_map(move |v| DesignCatalog.find(v, k).ok()));
    let designs: Vec<Design> = catalog
        .chain((7..100).filter_map(|v| steiner_triple_system(v).ok()))
        .chain([
            known::design_7_3_1(),
            known::design_9_3_1(),
            known::design_13_3_1(),
        ])
        .collect();
    assert!(designs.len() > 60, "{} designs", designs.len());
    for d in designs {
        d.verify().unwrap();
        let (v, k) = (d.v(), d.k());
        let s = AllocationScheme::design(&d);
        assert_eq!(s.num_buckets(), v * (v - 1) / (k - 1), "({v},{k},1)");
        for b in 0..s.num_buckets() {
            let block = &d.blocks()[b / k];
            let rotated: Vec<_> = (0..k).map(|pos| block[(pos + b % k) % k]).collect();
            assert_eq!(s.replicas(b), rotated, "({v},{k},1) bucket {b}");
        }
    }
}

#[test]
fn every_scheme_has_balanced_total_load() {
    // Each device should hold roughly num_buckets·c/N replicas (exactly, for
    // the structured schemes).
    for s in all_schemes() {
        let mut loads = vec![0usize; s.devices()];
        for b in 0..s.num_buckets() {
            for &d in s.replicas(b) {
                loads[d] += 1;
            }
        }
        let expected = s.num_buckets() * s.copies() / s.devices();
        let name = s.name().to_string();
        if name.starts_with("RDA") {
            // Random: just require every device is used.
            assert!(loads.iter().all(|&l| l > 0), "{name}: {loads:?}");
        } else {
            assert!(
                loads.iter().all(|&l| l == expected),
                "{name}: {loads:?} expected {expected}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Kernel ≡ cut: on every prefix of a random multiset, with random
    /// per-device capacities (failed, reserved below `m`, or `m`), the
    /// kernel admits exactly what Hall's cuts admit; and with every device
    /// unbounded, the batch solver's least budget is the cut table's.
    #[test]
    fn kernel_agrees_with_cut_table(
        m in 1usize..5,
        bits in any::<u64>(),
        more in any::<u64>(),
        buckets in prop::collection::vec(0usize..78, 1..64),
    ) {
        for s in cut_schemes() {
            let caps = capacities(bits, more, s.devices(), m);
            let mut kernel = IncrementalRetrieval::new(s.devices(), m);
            kernel.reset_caps(&caps);
            let miss = first_disagreement(&s, &buckets, &caps, |r| kernel.try_add(r));
            prop_assert!(miss.is_none(), "{}", miss.unwrap_or_default());

            let reqs: Vec<&[usize]> =
                buckets.iter().map(|&b| s.replicas(b % s.num_buckets())).collect();
            let mut cuts = CutTable::new(s.devices());
            for r in &reqs {
                cuts.add(r);
            }
            prop_assert_eq!(max_flow_retrieval(&reqs, s.devices()).accesses, cuts.accesses());
        }
    }

    /// The design-theoretic heuristic always produces a valid schedule whose
    /// access count is sandwiched between the information bound and the
    /// exact optimum + slack, and never uses a non-replica device.
    #[test]
    fn dtr_schedule_validity(
        scheme_idx in 0usize..8,
        buckets in prop::collection::vec(0usize..36, 1..30),
    ) {
        let schemes = all_schemes();
        let s = &schemes[scheme_idx];
        let reqs: Vec<&[usize]> =
            buckets.iter().map(|&b| s.replicas(b % s.num_buckets())).collect();
        let sched = design_theoretic_retrieval(&reqs, s.devices());
        let lb = reqs.len().div_ceil(s.devices());
        prop_assert!(sched.accesses >= lb);
        for (i, r) in reqs.iter().enumerate() {
            prop_assert!(r.contains(&sched.assignment[i]));
        }
        let loads = sched.device_loads(s.devices());
        prop_assert_eq!(loads.iter().copied().max().unwrap_or(0), sched.accesses);
    }

    /// The heuristic never beats the exact max-flow optimum, and the hybrid
    /// always equals the optimum.
    #[test]
    fn dtr_vs_exact_vs_hybrid(
        scheme_idx in 0usize..8,
        buckets in prop::collection::vec(0usize..36, 1..25),
    ) {
        let schemes = all_schemes();
        let s = &schemes[scheme_idx];
        let reqs: Vec<&[usize]> =
            buckets.iter().map(|&b| s.replicas(b % s.num_buckets())).collect();
        let heuristic = design_theoretic_retrieval(&reqs, s.devices());
        let exact = max_flow_retrieval(&reqs, s.devices());
        let (hybrid, _) = hybrid_retrieval(&reqs, s.devices());
        prop_assert!(heuristic.accesses >= exact.accesses);
        prop_assert_eq!(hybrid.accesses, exact.accesses);
    }

    /// Design guarantee as a property: any ≤ S(M) distinct buckets of the
    /// (9,3,1) design retrieve within M accesses via the exact scheduler.
    #[test]
    fn design_guarantee_bounds_exact_cost(
        seed in any::<u64>(),
        m in 1usize..4,
    ) {
        let s = AllocationScheme::paper_9_3_1();
        let g = s.guarantee().expect("a design layout");
        let k = g.buckets_in(m).min(s.num_buckets());
        // Draw k distinct buckets deterministically from the seed.
        let mut pool: Vec<usize> = (0..s.num_buckets()).collect();
        let mut state = seed | 1;
        for i in 0..k {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = i + (state >> 33) as usize % (pool.len() - i);
            pool.swap(i, j);
        }
        let reqs: Vec<&[usize]> = pool[..k].iter().map(|&b| s.replicas(b)).collect();
        let exact = max_flow_retrieval(&reqs, s.devices());
        prop_assert!(
            exact.accesses <= m,
            "S({m}) = {k} buckets took {} accesses", exact.accesses
        );
    }

    /// The same guarantee also holds through the heuristic (the paper's
    /// claim that DTR achieves the bound for loads within S(M)).
    #[test]
    fn design_guarantee_bounds_heuristic_cost(
        seed in any::<u64>(),
        m in 1usize..3,
    ) {
        let s = AllocationScheme::paper_9_3_1();
        let k = s.guarantee().expect("a design layout").buckets_in(m);
        let mut pool: Vec<usize> = (0..s.num_buckets()).collect();
        let mut state = seed | 1;
        for i in 0..k {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = i + (state >> 33) as usize % (pool.len() - i);
            pool.swap(i, j);
        }
        let reqs: Vec<&[usize]> = pool[..k].iter().map(|&b| s.replicas(b)).collect();
        let sched = design_theoretic_retrieval(&reqs, s.devices());
        prop_assert!(sched.accesses <= m, "heuristic took {} > {m}", sched.accesses);
    }
}
