//! The seven workloads: what each one offers, to which front door, and why
//! it exists. Everything that shapes a run is a field here and is written
//! into every result, so two results are comparable only if their configs
//! (and input fingerprints) match.

use flash_qos::decluster::AllocationScheme;
use flash_qos::qos::{OverloadPolicy, QosConfig};
use flash_qos::server::{FtlGeometry, GcConfig, ServerConfig};
use std::path::Path;

/// Requests per throughput segment (see `throughput_rps` in the README).
pub const SEGMENT: u64 = 8_192;

/// Most windows two submitter threads may be apart in simulated time. The
/// engine's window ring has 1024 slots and a 64-window delay horizon; two
/// free-running submitters wrap it within a few hundred windows.
pub const MAX_DRIFT_WINDOWS: u64 = 256;

/// Bound of each worker's queue. The engine's default of 64 holds four or
/// five windows, so whenever a worker's wake-up is late — a busy
/// hypervisor takes milliseconds to run an idle vCPU again — the submitter
/// fills the queue and sleeps too, and the two threads hand each other
/// the CPU at the host's scheduling latency: throughput drops four- to
/// fivefold for as long as the host stays busy, which measures the host.
/// With 4096 slots the submitter runs through a late wake-up; the queue
/// still pushes back on a worker that cannot keep up.
pub const QUEUE_DEPTH: usize = 4096;

/// Windows the on-disk leg of a WAL workload offers.
pub const DISK_LEG_WINDOWS: u64 = 2048;

/// Windows between fleet control-loop ticks.
pub const CONTROL_TICK_WINDOWS: u64 = 256;

/// How a window's requests pick their buckets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Every window offers exactly `per_window` requests on buckets that
    /// are distinct within the window (partial Fisher–Yates).
    Distinct { per_window: usize },
    /// Buckets drawn with replacement from Zipf(`exponent`); the window's
    /// size follows a repeating cycle of `(windows, share of S(M))` phases.
    Zipf {
        exponent: f64,
        phases: &'static [(usize, f64)],
    },
}

impl Arrivals {
    /// Windows after which the load pattern repeats.
    pub fn cycle(&self) -> usize {
        match self {
            Arrivals::Distinct { .. } => 1,
            Arrivals::Zipf { phases, .. } => phases.iter().map(|p| p.0).sum(),
        }
    }

    /// Requests window `w` offers, for a per-interval limit of `limit`.
    pub fn offered(&self, w: usize, limit: usize) -> usize {
        match *self {
            Arrivals::Distinct { per_window } => per_window,
            Arrivals::Zipf { phases, .. } => {
                let mut at = w % self.cycle();
                for &(len, share) in phases {
                    if at < len {
                        return (limit as f64 * share).round() as usize;
                    }
                    at -= len;
                }
                unreachable!("cycle covers every window")
            }
        }
    }
}

/// The two block designs the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    D9,
    D13,
}

/// An online workload: arrivals driven through `QosServer` (one array) or
/// `QosCluster` (several).
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub design: Design,
    /// Access budget `M`; the interval is `M × 0.133 ms`.
    pub accesses: usize,
    pub epsilon: f64,
    /// Tenant `i + 1` reserves `reservations[i]` requests per interval.
    pub reservations: &'static [usize],
    pub arrivals: Arrivals,
    /// Share of requests issued as replica fan-out writes.
    pub write_share: f64,
    /// LBNs are drawn below this bound.
    pub lbn_space: u64,
    /// Per-device FTL geometry for the write/GC model (`None` = no FTL).
    pub ftl: Option<FtlGeometry>,
    /// Write-ahead log, `fsync_batch = 64`, default snapshot interval. The
    /// timed stretch logs to memory (the log's CPU cost, steady); a short
    /// second leg logs to disk, stops without draining and restarts with
    /// `QosServer::recover` (the sandbox's flush cost, reported per layer).
    pub wal: bool,
    /// One submitter and one worker whatever the host has, so simulated
    /// results repeat exactly.
    pub pinned: bool,
    /// `1` drives a `QosServer`; more drives a `QosCluster` of that many
    /// identical arrays with one worker each.
    pub arrays: usize,
    /// Windows generated once and replayed; a multiple of the load cycle.
    pub epoch_windows: usize,
}

/// The offline, paper-faithful path: `QosPipeline::run_online` with FIM
/// block mapping over the Exchange workload model.
#[derive(Debug, Clone, PartialEq)]
pub struct OfflineSpec {
    pub name: &'static str,
    /// Reporting intervals generated (the model's own scale knob; the rate
    /// curve stays the paper's).
    pub intervals: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    Online(Spec),
    Offline(OfflineSpec),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

pub const NAMES: [&str; 7] = [
    "steady_read",
    "hotspot_burst",
    "stat_overflow",
    "mixed_rw_gc",
    "durable_read",
    "fleet_route",
    "offline_trace",
];

const BURST_PHASES: &[(usize, f64)] = &[(300, 0.7), (40, 1.3), (60, 0.4)];

fn steady_read() -> Spec {
    Spec {
        name: "steady_read",
        design: Design::D9,
        accesses: 2,
        epsilon: 0.0,
        reservations: &[4, 4, 3, 3],
        arrivals: Arrivals::Distinct { per_window: 14 },
        write_share: 0.0,
        lbn_space: 36 * 4096,
        ftl: None,
        wal: false,
        pinned: false,
        arrays: 1,
        epoch_windows: 8192,
    }
}

fn hotspot_burst() -> Spec {
    Spec {
        name: "hotspot_burst",
        design: Design::D13,
        accesses: 3,
        epsilon: 0.0,
        reservations: &[5, 5, 5, 4, 4, 4],
        arrivals: Arrivals::Zipf {
            exponent: 1.3,
            phases: BURST_PHASES,
        },
        write_share: 0.0,
        lbn_space: 78 * 4096,
        ftl: None,
        wal: false,
        pinned: true,
        arrays: 1,
        epoch_windows: 32_000,
    }
}

pub fn workload(name: &str) -> Option<Workload> {
    let (why, kind) = match name {
        "steady_read" => (
            "full S(M) windows on distinct buckets: the in-guarantee fast path and nothing else",
            Kind::Online(steady_read()),
        ),
        "hotspot_burst" => (
            "Zipf bursts past S(M): failed augmenting paths and the delay-horizon scan do the work",
            Kind::Online(hotspot_burst()),
        ),
        "stat_overflow" => (
            "hotspot_burst's arrivals with epsilon 0.01: overflow instead of delay, P_k table in set-up",
            Kind::Online(Spec {
                name: "stat_overflow",
                epsilon: 0.01,
                ..hotspot_burst()
            }),
        ),
        "mixed_rw_gc" => (
            "25% writes on a small FTL: c-fold fan-out, GC stalls, health scorer and hedged reads",
            Kind::Online(Spec {
                name: "mixed_rw_gc",
                arrivals: Arrivals::Zipf {
                    exponent: 0.0,
                    phases: &[(1, 0.6)],
                },
                write_share: 0.25,
                lbn_space: 36 * 24,
                ftl: Some(FtlGeometry {
                    dies: 1,
                    blocks_per_die: 64,
                    pages_per_block: 8,
                    overprovision: 0.1,
                }),
                pinned: true,
                epoch_windows: 32_000,
                ..steady_read()
            }),
        ),
        "durable_read" => (
            "steady_read's arrivals behind the WAL: the difference is the log, then restart cost",
            Kind::Online(Spec {
                name: "durable_read",
                wal: true,
                ..steady_read()
            }),
        ),
        "fleet_route" => (
            "two steady arrays behind the router: epoch cache and control loop on an unchanged engine",
            Kind::Online(Spec {
                name: "fleet_route",
                reservations: &[3; 8],
                arrivals: Arrivals::Distinct { per_window: 24 },
                pinned: true,
                arrays: 2,
                ..steady_read()
            }),
        ),
        "offline_trace" => (
            "the paper's offline pipeline on the Exchange model: FIM mining, mapping, scheduler, array",
            Kind::Offline(OfflineSpec {
                name: "offline_trace",
                intervals: 384,
            }),
        ),
        _ => return None,
    };
    Some(Workload {
        name: NAMES.iter().find(|n| **n == name)?,
        why,
        kind,
    })
}

/// The online spec of a workload, if it has one.
pub fn spec(name: &str) -> Option<Spec> {
    match workload(name)?.kind {
        Kind::Online(s) => Some(s),
        Kind::Offline(_) => None,
    }
}

impl Spec {
    pub fn qos(&self) -> QosConfig {
        let base = match self.design {
            Design::D9 => QosConfig::paper_9_3_1(),
            Design::D13 => QosConfig::paper_13_3_1(),
        };
        base.with_accesses(self.accesses).with_epsilon(self.epsilon)
    }

    /// `S(M)` of one array.
    pub fn limit(&self) -> usize {
        self.qos().request_limit()
    }

    pub fn buckets(&self) -> usize {
        self.qos().scheme.num_buckets()
    }

    pub fn policy(&self) -> OverloadPolicy {
        OverloadPolicy::Delay
    }

    /// `(submitters, workers per array)` on a host with `nproc` cores:
    /// generator threads take at most half the cores, engine workers the
    /// rest.
    pub fn threads(&self, nproc: usize) -> (usize, usize) {
        if self.pinned {
            return (1, 1);
        }
        let submitters = (nproc / 2).clamp(1, self.reservations.len());
        (submitters, nproc.saturating_sub(submitters).max(1))
    }

    pub fn server_config(&self, workers: usize, wal_dir: Option<&Path>) -> ServerConfig {
        let mut cfg = ServerConfig::new(self.qos())
            .with_workers(workers)
            .with_queue_depth(QUEUE_DEPTH);
        if let Some(geometry) = self.ftl {
            cfg = cfg.with_gc_model(GcConfig::new(geometry));
        }
        if self.wal {
            cfg = match wal_dir {
                Some(dir) => cfg.with_wal(dir),
                None => cfg.with_wal_memory(),
            }
            .with_wal_fsync_batch(64);
        }
        cfg
    }

    /// Distinct LBNs the busiest device can be asked to hold: the device
    /// model keys its page map by raw LBN and every replica device of a
    /// bucket stores all of that bucket's rows.
    pub fn lbns_per_device(&self) -> u64 {
        let qos = self.qos();
        let scheme = &qos.scheme;
        let rows = self.lbn_space / scheme.num_buckets() as u64;
        let mut hosted = vec![0u64; qos.devices()];
        for b in 0..scheme.num_buckets() {
            for &d in scheme.replicas(b) {
                hosted[d] += rows;
            }
        }
        hosted.into_iter().max().unwrap_or(0)
    }

    /// One line per knob, written into every result.
    pub fn describe(&self) -> Vec<(&'static str, String)> {
        let qos = self.qos();
        vec![
            ("design", qos.scheme.name().to_string()),
            ("accesses", self.accesses.to_string()),
            ("limit", self.limit().to_string()),
            ("interval_ns", qos.interval_ns.to_string()),
            ("epsilon", self.epsilon.to_string()),
            ("policy", "delay".to_string()),
            ("reservations", format!("{:?}", self.reservations)),
            ("arrivals", format!("{:?}", self.arrivals)),
            ("write_share", self.write_share.to_string()),
            ("lbn_space", self.lbn_space.to_string()),
            ("ftl", format!("{:?}", self.ftl)),
            ("wal", self.wal.to_string()),
            ("queue_depth", QUEUE_DEPTH.to_string()),
            ("arrays", self.arrays.to_string()),
            ("epoch_windows", self.epoch_windows.to_string()),
            ("segment_requests", SEGMENT.to_string()),
        ]
    }
}

/// Usable logical pages of one device's FTL.
pub fn ftl_logical_pages(g: &FtlGeometry) -> u64 {
    let physical = (g.dies * g.blocks_per_die * g.pages_per_block) as f64;
    (physical * (1.0 - g.overprovision)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_validates() {
        for name in NAMES {
            let w = workload(name).unwrap();
            assert_eq!(w.name, name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            if let Kind::Online(s) = w.kind {
                s.server_config(1, None).validate().unwrap();
                let reserved: usize = s.reservations.iter().sum();
                assert!(reserved <= s.limit() * s.arrays, "{name}");
                assert_eq!(s.epoch_windows % s.arrivals.cycle(), 0, "{name}");
            }
        }
        assert!(workload("nope").is_none());
    }

    #[test]
    fn burst_cycle_averages_below_capacity() {
        let s = spec("hotspot_burst").unwrap();
        let cycle = s.arrivals.cycle();
        assert_eq!(cycle, 400);
        let offered: usize = (0..cycle).map(|w| s.arrivals.offered(w, s.limit())).sum();
        assert!(offered < cycle * s.limit());
        assert_eq!(s.arrivals.offered(0, 27), 19);
        assert_eq!(s.arrivals.offered(300, 27), 35);
        assert_eq!(s.arrivals.offered(399, 27), 11);
    }

    #[test]
    fn stat_overflow_shares_hotspot_arrivals() {
        let a = spec("hotspot_burst").unwrap();
        let b = spec("stat_overflow").unwrap();
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.reservations, b.reservations);
        assert!(b.epsilon > 0.0 && a.epsilon == 0.0);
    }

    #[test]
    fn mixed_rw_gc_fits_its_ftl() {
        let s = spec("mixed_rw_gc").unwrap();
        assert!(s.lbns_per_device() <= ftl_logical_pages(&s.ftl.unwrap()));
    }
}
