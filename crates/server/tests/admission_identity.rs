//! The admission identity, through the public API alone.
//!
//! The reads one window can place, with device `d` serving at most `cap_d`
//! of them, form a transversal matroid. Its rank is Hall's cut bound,
//! [`CutTable::rank`] (the replication case of Ly & Soljanin's service-rate
//! region). Flow admission takes each read, in arrival order, iff the set
//! stays placeable: that is the matroid greedy, which reaches the rank in
//! any order. So with one tenant reserving `R`, Reject, ε = 0 and no fault
//! but scripted fail-stops, window `w` admits exactly
//! `min(R, rank(offered(w)))`. A device down in the arrival window or the
//! one after (its execution interval) has capacity 0, every other `M`.
//! It holds on every layout the engine serves: both paper designs and the
//! chained and mirrored baselines.
//!
//! Earliest-finish-time admission puts each read on its least-loaded
//! replica and never moves it, so it can strand a set the flow places: it
//! is held to `≤`, and its shortfall is printed. Two twins show the
//! identity has teeth: asserting `==` on EFT fails, and so does a
//! first-fit assigner, the flow kernel with every re-augmenting path
//! skipped.

mod common;

use fqos_core::{OverloadPolicy, QosConfig};
use fqos_decluster::analysis::CutTable;
use fqos_decluster::AllocationScheme;
use fqos_server::{AssignmentMode, FaultSchedule, QosServer, ServerConfig, SubmitOutcome};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const WINDOWS: u64 = 20;
const TENANT: u64 = 1;

/// One run: the layout and `M`, the tenant's reservation, the LBNs each
/// window offers in arrival order, and the scripted fail-stops.
struct Case {
    qos: QosConfig,
    reserved: usize,
    offered: Vec<Vec<u64>>,
    /// `(device, failing window, recovery window)`, one span per device.
    down: Vec<(usize, u64, u64)>,
}

impl Case {
    /// `WINDOWS` windows of 1..=`2NM` reads each over a random hot range of
    /// buckets, a reservation of the request limit, half of it or anything
    /// between, and up to two devices failing for a while.
    fn random(qos: QosConfig, seed: u64) -> Case {
        let mut rng = StdRng::seed_from_u64(seed);
        let (n, m) = (qos.devices(), qos.accesses);
        let buckets = qos.scheme.num_buckets();
        let limit = qos.request_limit();
        let reserved = match rng.gen_range(0..3u8) {
            0 => limit,
            1 => limit / 2,
            _ => rng.gen_range(1..=limit),
        };
        let offered = (0..WINDOWS)
            .map(|_| {
                let (start, hot) = (rng.gen_range(0..buckets), rng.gen_range(1..=buckets));
                (0..rng.gen_range(1..=2 * n * m))
                    .map(|_| {
                        let bucket = (start + rng.gen_range(0..hot)) % buckets;
                        (bucket + buckets * rng.gen_range(0..4usize)) as u64
                    })
                    .collect()
            })
            .collect();
        let mut devices: Vec<usize> = (0..n).collect();
        devices.shuffle(&mut rng);
        let down = devices[..rng.gen_range(0..=2)]
            .iter()
            .map(|&d| {
                let from = rng.gen_range(0..WINDOWS);
                (d, from, from + rng.gen_range(1..=WINDOWS))
            })
            .collect();
        Case {
            qos,
            reserved,
            offered,
            down,
        }
    }

    /// Device capacities in window `w`.
    fn caps(&self, w: u64) -> Vec<u16> {
        let down = |d, w| {
            self.down
                .iter()
                .any(|&(x, from, to)| x == d && (from..to).contains(&w))
        };
        (0..self.qos.devices())
            .map(|d| {
                if down(d, w) || down(d, w + 1) {
                    0
                } else {
                    self.qos.accesses as u16
                }
            })
            .collect()
    }

    fn replicas(&self, lbn: u64) -> &[usize] {
        let scheme = &self.qos.scheme;
        scheme.replicas(scheme.bucket_for_lbn(lbn))
    }

    /// `min(R, rank(offered(w)))`.
    fn bound(&self, w: usize) -> usize {
        let mut cuts = CutTable::new(self.qos.devices());
        for &lbn in &self.offered[w] {
            cuts.add(self.replicas(lbn));
        }
        cuts.rank(&self.caps(w as u64)).min(self.reserved)
    }

    /// Each window's admissions by the engine in `mode`, from the submit
    /// outcomes.
    fn admitted(&self, mode: AssignmentMode) -> Vec<usize> {
        let schedule = self
            .down
            .iter()
            .fold(FaultSchedule::new(), |s, &(d, from, to)| {
                s.fail(d, from).recover(d, to)
            });
        let server = QosServer::new(
            ServerConfig::new(self.qos.clone())
                .with_workers(2)
                .with_assignment(mode)
                .with_fault_schedule(schedule),
        )
        .expect("server config");
        server
            .register(TENANT, self.reserved, OverloadPolicy::Reject)
            .expect("registration");
        let mut h = server.handle();
        let mut admitted = vec![0; self.offered.len()];
        for (w, lbns) in self.offered.iter().enumerate() {
            let start = w as u64 * self.qos.interval_ns;
            for (i, &lbn) in lbns.iter().enumerate() {
                match h.submit(TENANT, lbn, start + i as u64) {
                    SubmitOutcome::Admitted { window } if window == w as u64 => admitted[w] += 1,
                    SubmitOutcome::Rejected(_) => {}
                    other => panic!("window {w}: {other:?} with one tenant, Reject and ε = 0"),
                }
            }
        }
        drop(h);
        server.finish();
        admitted
    }

    /// Each window's admissions against the identity: `==` when `exact`,
    /// else `≤`. Returns the total shortfall below it.
    fn check(&self, admitted: &[usize], exact: bool) -> Result<usize, String> {
        let mut shortfall = 0;
        for (w, &a) in admitted.iter().enumerate() {
            let bound = self.bound(w);
            if a > bound || (exact && a != bound) {
                let replicas: Vec<_> = self.offered[w].iter().map(|&l| self.replicas(l)).collect();
                return Err(format!(
                    "identity broken in window {w} of {} at M = {}: admitted {a}, \
                     min(reserved {}, rank) = {bound}; caps {:?}, reads {replicas:?}",
                    self.qos.scheme.name(),
                    self.qos.accesses,
                    self.reserved,
                    self.caps(w as u64),
                ));
            }
            shortfall += bound - a;
        }
        Ok(shortfall)
    }
}

/// Both paper layouts and the two RAID-1 baselines of Table III on nine
/// devices, at `M` ∈ 1..=3. The identity does not depend on the layout; a
/// baseline reserves its exact limit `b*(M)`.
fn layouts() -> impl Iterator<Item = QosConfig> {
    let baseline = |scheme| QosConfig {
        scheme,
        ..QosConfig::paper_9_3_1()
    };
    [
        QosConfig::paper_9_3_1(),
        QosConfig::paper_13_3_1(),
        baseline(AllocationScheme::chained(9, 3, 36)),
        baseline(AllocationScheme::mirrored(9, 3, 36)),
    ]
    .into_iter()
    .flat_map(|qos| (1..=3).map(move |m| qos.clone().with_accesses(m)))
}

/// A set EFT strands: on `(9,3,1)` at `M = 1`, a read on
/// `(0,3,6)` takes device 0, and the three rotations of `(0,1,2)` then
/// need all of 0, 1 and 2. Flow moves the first read to 3 or 6; EFT
/// admits three of the four.
fn stranding_case() -> Case {
    Case {
        qos: QosConfig::paper_9_3_1(),
        reserved: 5,
        offered: vec![vec![3, 0, 1, 2]],
        down: Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn flow_admits_the_reservation_or_the_rank(seed in any::<u64>()) {
        for qos in layouts() {
            let case = Case::random(qos, seed ^ common::seed());
            let admitted = case.admitted(AssignmentMode::OptimalFlow);
            case.check(&admitted, true).map_err(TestCaseError::fail)?;
        }
    }

    #[test]
    fn eft_admits_at_most_the_rank(seed in any::<u64>()) {
        for qos in layouts() {
            let case = Case::random(qos, seed ^ common::seed());
            let admitted = case.admitted(AssignmentMode::Eft);
            let shortfall = case.check(&admitted, false).map_err(TestCaseError::fail)?;
            let bound: usize = (0..admitted.len()).map(|w| case.bound(w)).sum();
            println!(
                "EFT on {} at M = {}: {shortfall} of {bound} short",
                case.qos.scheme.name(),
                case.qos.accesses
            );
        }
    }
}

#[test]
fn flow_places_what_eft_strands() {
    let case = stranding_case();
    assert_eq!(case.admitted(AssignmentMode::OptimalFlow), [4]);
    assert_eq!(case.admitted(AssignmentMode::Eft), [3]);
}

#[test]
#[should_panic(expected = "identity broken")]
fn eft_twin_fails_the_identity() {
    let case = stranding_case();
    if let Err(e) = case.check(&case.admitted(AssignmentMode::Eft), true) {
        panic!("{e}");
    }
}

/// First fit: each read takes its first replica with room and stays there.
fn first_fit(case: &Case) -> Vec<usize> {
    (0..case.offered.len())
        .map(|w| {
            let caps = case.caps(w as u64);
            let mut load = vec![0; caps.len()];
            let mut admitted = 0;
            for &lbn in &case.offered[w] {
                let free = case.replicas(lbn).iter().find(|&&d| load[d] < caps[d]);
                if let Some(&d) = free.filter(|_| admitted < case.reserved) {
                    load[d] += 1;
                    admitted += 1;
                }
            }
            admitted
        })
        .collect()
}

#[test]
#[should_panic(expected = "identity broken")]
fn first_fit_twin_fails_the_identity() {
    // The random cases alone catch it: the stranding script is not needed.
    for seed in 0..8 {
        for qos in layouts() {
            let case = Case::random(qos, seed);
            if let Err(e) = case.check(&first_fit(&case), true) {
                panic!("{e}");
            }
        }
    }
}
