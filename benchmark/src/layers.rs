//! Per-layer replays for the online workloads: the workload's own inputs
//! pushed through each layer's public functions in isolation, on one
//! thread, outside any engine. What the engine pays *between* these calls
//! — locks, the channel hop, allocation, seal bookkeeping — is the
//! `sync_gap` the caller derives from the layer sum.

use crate::catalog::Metrics;
use crate::gen::{Epoch, Req};
use crate::sys;
use crate::workloads::Spec;
use flash_qos::cluster::Router;
use flash_qos::decluster::sampling::optimal_retrieval_probabilities;
use flash_qos::decluster::AllocationScheme;
use flash_qos::flashsim::{CalibratedSsd, Device, IoRequest};
use flash_qos::maxflow::IncrementalRetrieval;
use flash_qos::qos::StatisticalCounters;
use flash_qos::server::{FaultPlane, FaultSchedule, GcConfig, LatencyHistogram, TenantRegistry};
use std::hint::black_box;
use std::time::Instant;

/// A timed run repeats cheap operations over the epoch until this many
/// calls were timed, so the figure is a mean over millions, not thousands.
pub const MIN_CALLS: usize = 2_000_000;

/// Delay horizon of the engine's default configuration.
const DELAY_HORIZON: usize = 64;

/// Time `op` over every request of the epoch, as often as it takes to
/// reach `min_calls`; returns ns per call.
fn per_request(epoch: &Epoch, min_calls: usize, mut op: impl FnMut(&Req)) -> f64 {
    let rounds = min_calls.div_ceil(epoch.reqs.len().max(1)).max(1);
    let t = Instant::now();
    for _ in 0..rounds {
        for r in &epoch.reqs {
            op(r);
        }
    }
    t.elapsed().as_nanos() as f64 / (rounds * epoch.reqs.len().max(1)) as f64
}

/// Replay every engine-side layer for `spec` over `epoch` (each cheap call
/// at least `min_calls` times) and record the per-layer metrics. Returns
/// the layer sum: Σ over layers of cost per call × calls per request, ns.
pub fn replay(spec: &Spec, epoch: &Epoch, min_calls: usize, out: &mut Metrics) -> f64 {
    let qos = spec.qos();
    let scheme = &qos.scheme;
    let devices = qos.devices();
    let requests = epoch.reqs.len().max(1) as f64;
    let writes = epoch.reqs.iter().filter(|r| r.write).count() as f64;
    let copies = scheme.copies() as f64;
    // Device operations per request: one per read, one per replica copy of
    // a write.
    let read_ops = (requests - writes) / requests;
    let write_ops = writes * copies / requests;

    let replicas_ns = per_request(epoch, min_calls, |r| {
        black_box(scheme.replicas(scheme.bucket_for_lbn(black_box(r.lbn))));
    });
    out.set("decluster.replicas_ns", replicas_ns);

    let registry = TenantRegistry::new(spec.limit(), 8);
    let t = Instant::now();
    for (i, &reserved) in spec.reservations.iter().enumerate() {
        // Fleet workloads spread these tenants over several arrays; one
        // registry only has room for its own S(M).
        let _ = registry.register(i as u64 + 1, reserved, spec.policy());
    }
    out.set(
        "server.registry.register_us",
        t.elapsed().as_nanos() as f64 / 1e3 / spec.reservations.len() as f64,
    );
    let get_ns = per_request(epoch, min_calls, |r| {
        black_box(registry.get(u64::from(r.tenant)));
    });
    out.set("server.registry.get_ns", get_ns);

    // A fleet's router decides which array's windows see a tenant's
    // requests: place the tenants as `QosCluster` would.
    let mut route_ns = 0.0;
    let placement: Vec<usize> = if spec.arrays > 1 {
        let capacities = vec![spec.limit(); spec.arrays];
        let mut router = Router::new(&capacities, 64);
        let t = Instant::now();
        let placement = spec
            .reservations
            .iter()
            .enumerate()
            .map(|(i, &reserved)| {
                router
                    .assign(i as u64 + 1, reserved)
                    .expect("the workload's reservations fit its fleet")
            })
            .collect();
        out.set(
            "cluster.router.assign_us",
            t.elapsed().as_nanos() as f64 / 1e3 / spec.reservations.len() as f64,
        );
        route_ns = per_request(epoch, min_calls, |r| {
            black_box(router.route(u64::from(r.tenant)));
        });
        out.set("cluster.router.route_ns", route_ns);
        placement
    } else {
        vec![0; spec.reservations.len()]
    };

    let flow = replay_window_flow(spec, epoch, &placement);
    out.set("maxflow.try_add_ok_ns", flow.ok_ns);
    out.set("maxflow.try_add_full_ns", flow.full_ns);
    out.set("maxflow.try_add_full_pct", flow.full_pct);

    let mut ssds: Vec<CalibratedSsd> = (0..devices).map(|_| CalibratedSsd::new()).collect();
    let mut id = 0u64;
    let mut now = 0u64;
    let ssd_ns = per_request(epoch, min_calls, |r| {
        let d = scheme.replicas(scheme.bucket_for_lbn(r.lbn))[0];
        id += 1;
        now += 1;
        black_box(ssds[d].submit(&IoRequest::read_block(id, now, d, r.lbn), now));
    });
    // The replica lookup that picked the device is the design layer's.
    let ssd_ns = (ssd_ns - replicas_ns).max(0.0);
    out.set("flashsim.ssd_submit_ns", ssd_ns);

    let ftl_ns = spec.ftl.map_or(0.0, |geometry| {
        let gc = GcConfig::new(geometry);
        let mut ssds: Vec<CalibratedSsd> = (0..devices)
            .map(|_| {
                CalibratedSsd::new()
                    .with_gc(gc.geometry, gc.erase_ns)
                    .expect("geometry validated with the server config")
            })
            .collect();
        let writes: Vec<&Req> = epoch.reqs.iter().filter(|r| r.write).collect();
        let rounds = (min_calls / 8).div_ceil(writes.len().max(1)).max(1);
        let mut now = 0u64;
        let t = Instant::now();
        for _ in 0..rounds {
            for r in &writes {
                for &d in scheme.replicas(scheme.bucket_for_lbn(r.lbn)) {
                    now += 1;
                    black_box(ssds[d].submit(&IoRequest::write_block(now, now, d, r.lbn), now));
                }
            }
        }
        t.elapsed().as_nanos() as f64 / (rounds * writes.len().max(1)) as f64 / copies
    });
    out.set("flashsim.ftl_write_ns", ftl_ns);

    let plane = FaultPlane::new(devices, FaultSchedule::new()).expect("empty schedule is valid");
    let mut w = 0u64;
    let observe_ns = per_request(epoch, min_calls, |r| {
        w += 1;
        plane.observe(r.lbn as usize % devices, qos.service_ns, w / 16);
    });
    out.set("server.fault.observe_ns", observe_ns);
    let mut w = 0u64;
    let mask_ns = per_request(epoch, min_calls, |r| {
        w += 1;
        let d = r.lbn as usize % devices;
        black_box(plane.mask_at(w / 16));
        black_box(plane.slow_factor_at(d, w / 16));
        black_box(plane.hedge_threshold(d));
    });
    out.set("server.fault.mask_ns", mask_ns);

    let hist = LatencyHistogram::new();
    let hist_ns = per_request(epoch, min_calls, |r| {
        hist.record(qos.interval_ns + r.lbn % 1024)
    });
    out.set("server.metrics.hist_record_ns", hist_ns);

    let would_admit_ns = if spec.epsilon > 0.0 {
        // The table the engine builds at construction, with its arguments.
        let k_max = 2 * spec.limit() + 8;
        let t = Instant::now();
        let table = optimal_retrieval_probabilities(scheme, k_max, 1500, 0x5eed_cafe);
        out.set("decluster.pk_table_ms", t.elapsed().as_secs_f64() * 1e3);
        let mut counters = StatisticalCounters::new();
        let t = Instant::now();
        for w in 0..epoch.windows() {
            let n = epoch.window(w).len();
            black_box(counters.would_admit(n + 1, &table, spec.epsilon));
            counters.record_interval(n);
        }
        t.elapsed().as_nanos() as f64 / epoch.windows().max(1) as f64
    } else {
        0.0
    };
    out.set("core.would_admit_ns", would_admit_ns);

    // Calls per request: one route (fleets), one design lookup, one
    // registry lookup, the flow attempts the window emulation counted, one
    // device submit and scorer sample per device operation, one
    // fault-plane lookup, one histogram record, and — past the limit with
    // ε > 0 — one Q evaluation.
    let overflow_share = if spec.epsilon > 0.0 {
        flow.over_limit_per_request
    } else {
        0.0
    };
    route_ns
        + replicas_ns
        + get_ns
        + flow.ok_ns * flow.ok_per_request
        + flow.full_ns * flow.full_per_request
        + read_ops * ssd_ns
        + write_ops * if spec.ftl.is_some() { ftl_ns } else { ssd_ns }
        + (read_ops + write_ops) * observe_ns
        + mask_ns
        + hist_ns
        + would_admit_ns * overflow_share
}

struct FlowReplay {
    ok_ns: f64,
    full_ns: f64,
    full_pct: f64,
    ok_per_request: f64,
    full_per_request: f64,
    over_limit_per_request: f64,
}

/// One emulated window: the flow state plus each tenant's admitted count.
struct WindowState {
    flow: IncrementalRetrieval,
    used: Vec<usize>,
}

/// Feed the epoch through `IncrementalRetrieval::try_add` the way the
/// window layer would under the `Delay` policy: a request tries its
/// arrival window, then each later window up to the horizon, skipping
/// windows where its tenant's reservation is spent (no flow call) and
/// counting a *full* attempt wherever the flow finds no augmenting path.
/// `placement[tenant]` names the array whose windows the tenant's requests
/// go to. Each `try_add` is timed on its own, net of the timer's own cost.
fn replay_window_flow(spec: &Spec, epoch: &Epoch, placement: &[usize]) -> FlowReplay {
    let qos = spec.qos();
    let scheme = &qos.scheme;
    let devices = qos.devices();
    let timer_ns = sys::timer_overhead_ns();
    let fresh = || WindowState {
        flow: IncrementalRetrieval::new(devices, spec.accesses),
        used: vec![0; spec.reservations.len()],
    };
    // Any length past the horizon works; a slot is reset once its window
    // can no longer receive arrivals.
    let ring_len = 2 * DELAY_HORIZON;
    let mut rings: Vec<Vec<WindowState>> = (0..spec.arrays)
        .map(|_| (0..ring_len).map(|_| fresh()).collect())
        .collect();
    let (mut ok_ns, mut full_ns) = (0.0f64, 0.0f64);
    let (mut ok, mut full, mut over_limit) = (0u64, 0u64, 0u64);

    for w in 0..epoch.windows() {
        for r in epoch.window(w) {
            let tenant = r.tenant as usize - 1;
            let replicas = scheme.replicas(scheme.bucket_for_lbn(r.lbn));
            let mut first = true;
            for k in 0..=DELAY_HORIZON {
                let slot = &mut rings[placement[tenant]][(w + k) % ring_len];
                if slot.used[tenant] >= spec.reservations[tenant] {
                    continue;
                }
                let t = Instant::now();
                let admitted = if r.write {
                    // A write charges one unit on every replica; the flow
                    // cannot retract, so the layer snapshots and restores.
                    let snapshot = slot.flow.clone();
                    let fits = replicas.iter().all(|&d| slot.flow.try_add(&[d]));
                    if !fits {
                        slot.flow = snapshot;
                    }
                    fits
                } else {
                    slot.flow.try_add(replicas)
                };
                let ns = (t.elapsed().as_nanos() as f64 - timer_ns).max(0.0);
                if admitted {
                    slot.used[tenant] += 1;
                    ok_ns += ns;
                    ok += 1;
                    break;
                }
                full_ns += ns;
                full += 1;
                if first {
                    over_limit += 1;
                    first = false;
                }
            }
        }
        // Window `w` can no longer receive arrivals: reuse its slots.
        for ring in &mut rings {
            ring[w % ring_len] = fresh();
        }
    }
    let requests = epoch.reqs.len().max(1) as f64;
    FlowReplay {
        ok_ns: if ok == 0 { 0.0 } else { ok_ns / ok as f64 },
        full_ns: if full == 0 {
            0.0
        } else {
            full_ns / full as f64
        },
        full_pct: 100.0 * full as f64 / (ok + full).max(1) as f64,
        ok_per_request: ok as f64 / requests,
        full_per_request: full as f64 / requests,
        over_limit_per_request: over_limit as f64 / requests,
    }
}
