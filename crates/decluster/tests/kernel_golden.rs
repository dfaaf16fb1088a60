//! Golden fingerprints of the per-window feasibility kernel.
//!
//! The values below were captured from the `FlowNetwork` + Dinic
//! implementation of `IncrementalRetrieval` before it was replaced by the
//! matching kernel. They pin not only every admit/refuse decision but the
//! *augmenting path* taken — the full `assignments()` vector is hashed after
//! every call — so the server's simulated metrics cannot drift.
//!
//! The `P_k` table and optimal-access fingerprints at the end were captured
//! the same way from the Dinic-backed batch `RetrievalNetwork`, before it
//! became a loop over the kernel.

use fqos_decluster::retrieval::max_flow_retrieval;
use fqos_decluster::sampling::{optimal_retrieval_probabilities, OptimalRetrievalProbabilities};
use fqos_decluster::AllocationScheme;
use fqos_designs::known;
use fqos_maxflow::IncrementalRetrieval;
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: &mut u64, byte: u64) {
    *h = (*h ^ byte).wrapping_mul(FNV_PRIME);
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Inverse-CDF Zipf(1) over `n` buckets, in integer arithmetic so the
/// stream is the same on every host.
struct Zipf {
    cdf: Vec<u64>,
}

impl Zipf {
    fn new(n: usize) -> Self {
        let mut acc = 0u64;
        let cdf = (1..=n as u64)
            .map(|k| {
                acc += 1_000_000 / k;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut u64) -> usize {
        let total = *self.cdf.last().unwrap();
        let u = splitmix(rng) % total;
        self.cdf.partition_point(|&c| c <= u)
    }
}

/// A verdict as the fingerprints hash it: admitted 1, infeasible 2, and 3
/// for a request whose every replica is in `failed` (unavailable), which
/// the kernel refuses like an infeasible one.
fn verdict(win: &mut IncrementalRetrieval, replicas: &[usize], failed: u64) -> u64 {
    if replicas.iter().all(|&d| failed >> d & 1 == 1) {
        assert!(!win.try_add(replicas), "no live replica, no admission");
        3
    } else if win.try_add(replicas) {
        1
    } else {
        2
    }
}

/// 200 windows of Zipf-skewed arrivals at ~1.6× the window's capacity, each
/// window opened with `failed` devices down and 0–2 pinned single-replica
/// units.
fn fingerprint(
    scheme: &AllocationScheme,
    accesses: usize,
    failed_devs: &[usize],
    seed: u64,
) -> u64 {
    let devices = scheme.devices();
    let failed = failed_devs.iter().fold(0u64, |m, &d| m | 1 << d);
    let zipf = Zipf::new(scheme.num_buckets());
    let mut rng = seed;
    let mut h = FNV_OFFSET;
    let mut refused = 0u32;
    let mut unavailable = 0u32;
    for _ in 0..200 {
        let mut win = IncrementalRetrieval::with_failed(devices, accesses, failed);
        for _ in 0..splitmix(&mut rng) % 3 {
            let d = (splitmix(&mut rng) % devices as u64) as usize;
            let code = verdict(&mut win, &[d], failed);
            fnv(&mut h, code);
        }
        let arrivals = devices * accesses * 8 / 5;
        for _ in 0..arrivals {
            let bucket = zipf.sample(&mut rng);
            let code = verdict(&mut win, scheme.replicas(bucket), failed);
            refused += u32::from(code == 2);
            unavailable += u32::from(code == 3);
            fnv(&mut h, code);
            for d in win.assignments() {
                fnv(&mut h, d as u64);
            }
            fnv(&mut h, 0xff);
        }
    }
    assert!(refused > 100, "stream must exercise refusals: {refused}");
    // A failed set covering a whole design block must reach `Unavailable`.
    assert_eq!(unavailable > 0, failed_devs.len() >= scheme.copies());
    h
}

#[test]
fn golden_9_3_1_m2() {
    let s = AllocationScheme::paper_9_3_1();
    assert_eq!(fingerprint(&s, 2, &[4], 7), 0xeee2_92ad_c140_1bfb);
    assert_eq!(fingerprint(&s, 2, &[], 11), 0x07fc_cc67_3a09_6e7a);
}

#[test]
fn golden_13_3_1_m3() {
    let s = AllocationScheme::paper_13_3_1();
    assert_eq!(fingerprint(&s, 3, &[2, 11], 7), 0xd832_6e3f_b161_32ff);
    assert_eq!(fingerprint(&s, 3, &[0, 1, 4], 13), 0x044d_317a_ceb3_ca5c);
}

/// The `k_max` of the `P_k` table the serving engine builds for an ε > 0
/// deployment at `M = accesses`: `2·S(M) + 8`.
fn engine_k_max(scheme: &AllocationScheme, accesses: usize) -> usize {
    2 * scheme
        .guarantee()
        .expect("a design layout")
        .buckets_in(accesses)
        + 8
}

/// FNV over the bit patterns of a `P_k` table.
fn p_table_fingerprint(table: &OptimalRetrievalProbabilities) -> u64 {
    let mut h = FNV_OFFSET;
    for p in &table.p {
        fnv(&mut h, p.to_bits());
    }
    h
}

/// The engine's table (1500 trials, its seed) sampled directly, then twice
/// through the design's memo: all three carry the pinned bits, and the
/// memo hands out one table.
fn memo_p_table(
    scheme: &AllocationScheme,
    accesses: usize,
    golden: u64,
) -> Arc<OptimalRetrievalProbabilities> {
    let k_max = engine_k_max(scheme, accesses);
    let cold = optimal_retrieval_probabilities(scheme, k_max, 1500, 0x5eed_cafe);
    assert_eq!(cold.p.len(), k_max);
    assert_eq!(p_table_fingerprint(&cold), golden, "cold");
    let first = scheme.retrieval_probabilities(k_max, 1500, 0x5eed_cafe);
    assert_eq!(p_table_fingerprint(&first), golden, "first memo call");
    let second = scheme.retrieval_probabilities(k_max, 1500, 0x5eed_cafe);
    assert_eq!(p_table_fingerprint(&second), golden, "second memo call");
    assert!(Arc::ptr_eq(&first, &second), "the memo samples once");
    first
}

/// FNV over the optimal access count of 300 Zipf-skewed request sets of
/// 1 to `4N` buckets. The count is pinned and the assignment is not: the
/// minimum is unique, the schedule reaching it is one among equals.
fn accesses_fingerprint(scheme: &AllocationScheme, seed: u64) -> u64 {
    let devices = scheme.devices();
    let zipf = Zipf::new(scheme.num_buckets());
    let mut rng = seed;
    let mut h = FNV_OFFSET;
    let mut above_bound = 0u32;
    for _ in 0..300 {
        let b = 1 + (splitmix(&mut rng) % (4 * devices as u64)) as usize;
        let reqs: Vec<&[usize]> = (0..b)
            .map(|_| scheme.replicas(zipf.sample(&mut rng)))
            .collect();
        let accesses = max_flow_retrieval(&reqs, devices).accesses;
        above_bound += u32::from(accesses > b.div_ceil(devices));
        fnv(&mut h, accesses as u64);
    }
    assert!(
        above_bound > 30,
        "sets must exercise the raise: {above_bound}"
    );
    h
}

#[test]
fn golden_p_k_tables() {
    // (9,3,1) at M = 2, and the `stat_overflow` deployment: (13,3,1), M = 3.
    // No other test here samples on the paper layouts, so the first memo
    // call is the one that builds.
    memo_p_table(&AllocationScheme::paper_9_3_1(), 2, 0x1b40_ab1d_db6e_7eef);
    let paper = memo_p_table(&AllocationScheme::paper_13_3_1(), 3, 0x77f0_ac3f_7880_b17d);
    // The same design built apart from the paper's layout has its own
    // memo: the same bits, another table.
    let built = AllocationScheme::design(&known::design_13_3_1());
    let built = memo_p_table(&built, 3, 0x77f0_ac3f_7880_b17d);
    assert!(!Arc::ptr_eq(&paper, &built));
}

#[test]
fn memo_is_keyed_on_the_exact_size() {
    // A shorter request after a longer one gets a table of its own size:
    // sizes past a table read P_k = 1, so handing out the longer one would
    // change admission.
    let scheme = AllocationScheme::design(&known::design_13_3_1());
    let long = scheme.retrieval_probabilities(62, 1500, 0x5eed_cafe);
    assert!(long.p_k(37) < 1.0);
    let short = scheme.retrieval_probabilities(36, 1500, 0x5eed_cafe);
    assert_eq!(short.p.len(), 36);
    assert_eq!(short.p_k(37), 1.0);
    assert_eq!(short.p[..], long.p[..36], "each size has its own stream");
}

#[test]
fn golden_optimal_accesses() {
    let s = AllocationScheme::paper_9_3_1();
    assert_eq!(accesses_fingerprint(&s, 7), 0xe6b3_0740_76ce_dc6b);
    let s = AllocationScheme::paper_13_3_1();
    assert_eq!(accesses_fingerprint(&s, 11), 0x5f59_43a9_d7db_55a9);
}
