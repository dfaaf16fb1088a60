//! Bounded exhaustive model checking of the engine's concurrency protocol.
//!
//! Only built with `--features model-check`, which turns on `fqos-sync`'s
//! own: every lock, channel, atomic and thread the engine uses becomes the
//! `interleave` crate's instrumented twin, and each test below runs a
//! small end-to-end scenario under [`fqos_sync::model_with`], which
//! re-executes the closure once per distinct thread schedule (DFS over
//! context switches, preemption-bounded). Any assertion failure, panic in
//! engine code (e.g. the window ring's sealed-admission checks), or
//! deadlock on *any* explored schedule fails the test with a replayable
//! schedule trace.
//!
//! Invariants checked on every schedule (see DESIGN.md, "Concurrency
//! invariants"):
//!
//! - **Conservation**: `Ledger::conserved` over the final snapshot (a
//!   hedge win cancels exactly one primary, so `hedges_won ==
//!   hedges_cancelled`), and `admitted_total + rejected` equals the
//!   number of submits issued.
//! - **Deadline audit**: no guaranteed-deadline violations unless a live
//!   fault forced the overload path (`fault_overloads > 0`).
//! - **Deadlock freedom**: the scenario runs to completion — submitters
//!   join, `finish` drains the workers — on every schedule.
//!
//! Scenarios are deliberately small (2 workers, an 8-slot ring, one or two
//! requests per submitter) so the preemption-bounded state space stays in
//! the thousands of schedules while still covering the races named in the
//! design notes: admission vs. seal, live fault injection vs. seal,
//! live degradation vs. the hedge decision, and handle drop / shutdown
//! vs. the final drain.

#![cfg(feature = "model-check")]

mod common;

use fqos_core::{OverloadPolicy, QosConfig};
use fqos_server::{FtlGeometry, GcConfig, IoOp, QosServer, ServerConfig, SubmitOutcome};
use fqos_sync::{model_with, Config, Report};

/// A 2-worker, 8-slot-ring configuration small enough for exhaustive
/// schedule exploration: single registry shard, depth-2 worker queues,
/// and the default max-flow assignment, so every schedule explores the
/// admission and seal path production runs.
fn model_cfg() -> ServerConfig {
    let mut cfg = ServerConfig::new(QosConfig::paper_9_3_1())
        .with_workers(2)
        .with_queue_depth(2)
        .with_ring_slots(8)
        .with_delay_horizon(2);
    cfg.shards = 1;
    cfg
}

/// Tally of one submitter thread's outcomes, joined back into the root
/// thread so per-schedule totals can be checked against the final
/// metrics snapshot.
#[derive(Default)]
struct Tally {
    admitted: u64,
    rejected: u64,
}

fn submit_all(
    handle: &mut fqos_server::SubmitterHandle,
    tenant: u64,
    submits: &[(u64, u64)],
) -> Tally {
    let mut tally = Tally::default();
    for &(lbn, arrival_ns) in submits {
        match handle.submit(tenant, lbn, arrival_ns) {
            SubmitOutcome::Rejected(_) => tally.rejected += 1,
            _ => tally.admitted += 1,
        }
    }
    tally
}

fn report_and_check(name: &str, report: Report, floor: u64) {
    println!(
        "{name}: explored {} schedules (exhausted: {}, max depth: {} ops)",
        report.schedules, report.exhausted, report.max_depth
    );
    assert!(
        report.schedules >= floor,
        "{name} explored only {} schedules; expected at least {floor} \
         (state space too small to be meaningful — widen the scenario)",
        report.schedules
    );
}

/// [`report_and_check`] for a schedule that races the hedge decision, plus
/// on how many schedules a read hedged: some and not all of them, so that
/// both outcomes of the race stay covered.
fn report_hedged(name: &str, report: Report, hedged: u64) {
    let explored = report.schedules;
    report_and_check(name, report, 1000);
    println!("{name}: hedged on {hedged} of {explored} schedules");
    assert!(
        0 < hedged && hedged < explored,
        "{name} hedged on {hedged} of {explored} schedules: one outcome of \
         the race is never explored"
    );
}

/// Explore a schedule built with its seeded mutant: the explorer has to
/// reject it on the conservation law (`QosServer::finish` asserts it, and
/// so do the schedules), and the line says after how many schedules, `ran`
/// being the scenario's own count of its runs.
fn expect_mutant_caught(
    name: &str,
    ran: &std::sync::atomic::AtomicU64,
    explore: impl FnOnce() -> Report + std::panic::UnwindSafe,
) {
    let failure =
        std::panic::catch_unwind(explore).expect_err("the explorer accepted the seeded mutant");
    let failure = failure
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(failure.contains("conservation"), "{failure}");
    println!(
        "{name}/mutant: fails after {} schedules",
        ran.load(std::sync::atomic::Ordering::Relaxed)
    );
}

/// Two submitter threads race admission into overlapping windows against
/// each other's seal-advancing pumps and the worker drain. Checks
/// conservation and the guaranteed-deadline audit on every schedule.
#[test]
fn admission_vs_seal_conserves_requests() {
    let bounds = Config {
        preemptions: 2,
        max_schedules: 4096,
        ..Config::default()
    };
    let report = model_with(bounds, || {
        let server = QosServer::new(model_cfg()).unwrap();
        let t_ns = server.config().qos.interval_ns;
        server.register(1, 2, OverloadPolicy::Delay).unwrap();
        server.register(2, 2, OverloadPolicy::Delay).unwrap();
        let mut ha = server.handle();
        let mut hb = server.handle();
        let a = fqos_sync::thread::spawn(move || submit_all(&mut ha, 1, &[(0, 0), (1, t_ns)]));
        let b = fqos_sync::thread::spawn(move || submit_all(&mut hb, 2, &[(2, 0), (3, t_ns)]));
        let ta = a.join().unwrap();
        let tb = b.join().unwrap();
        let m = server.finish();
        let submitted = 4;
        assert_eq!(ta.admitted + tb.admitted, m.admitted_total());
        assert_eq!(ta.rejected + tb.rejected, m.rejected);
        assert_eq!(m.admitted_total() + m.rejected, submitted);
        assert_eq!(m.hedges_issued, 0, "healthy devices never speculate");
        assert_eq!(m.served + m.fault_lost, m.admitted_total(), "conservation");
        assert_eq!(m.fault_lost, 0, "no faults were injected");
        assert_eq!(m.guaranteed_violations, 0, "deadline audit");
    });
    report_and_check("admission-vs-seal", report, 1000);
}

/// A live `inject_fault` races admission and seal: two same-bucket
/// requests land in one window while an injector thread takes down two of
/// the bucket's three replicas. Depending on where the injections land
/// relative to admission and seal, requests are rerouted at admission,
/// re-dispatched at seal, or squeezed through the overload path
/// (`fault_overloads`) when the rebuild is infeasible under `M = 1`.
/// Conservation must hold on every schedule, nothing may be lost (one
/// replica always survives), and the guaranteed-deadline audit may only
/// be charged when the overload path actually fired.
#[test]
fn inject_fault_vs_seal_conserves_requests() {
    let replicas = common::bucket_replicas(9, 3, 0);
    let (f0, f1) = (replicas[0], replicas[1]);
    let bounds = Config {
        preemptions: 2,
        max_schedules: 4096,
        ..Config::default()
    };
    let report = model_with(bounds, move || {
        let server = QosServer::new(model_cfg()).unwrap();
        server.register(1, 2, OverloadPolicy::Delay).unwrap();
        let mut hs = server.handle();
        let hf = server.handle();
        let submitter = fqos_sync::thread::spawn(move || {
            // Same bucket, same arrival window: under M = 1 the two
            // requests need two distinct live replicas.
            submit_all(&mut hs, 1, &[(0, 0), (0, 0)])
        });
        let injector = fqos_sync::thread::spawn(move || {
            hf.inject_fault(f0).unwrap();
            hf.inject_fault(f1).unwrap();
            // Dropping hf closes its watermark so sealing can proceed.
        });
        let ts = submitter.join().unwrap();
        injector.join().unwrap();
        let m = server.finish();
        assert_eq!(ts.admitted, m.admitted_total());
        assert_eq!(ts.rejected, m.rejected);
        assert_eq!(m.admitted_total() + m.rejected, 2);
        assert_eq!(m.hedges_won, m.hedges_cancelled);
        assert!(
            m.ledger().conserved(),
            "{}: {}",
            "conservation",
            m.ledger().render()
        );
        assert_eq!(m.fault_lost, 0, "one replica survives on every schedule");
        if m.fault_overloads == 0 {
            assert_eq!(
                m.guaranteed_violations, 0,
                "deadline audit may only be charged via the overload path"
            );
        }
    });
    report_and_check("inject-fault-vs-seal", report, 1000);
}

/// Shutdown-drain race: one submitter drops its handle after a single
/// request while the other keeps admitting, then `finish` force-closes,
/// seals the tail and joins the 2-worker pool. Every admitted request
/// must be served on every schedule — the drain may not strand items in
/// the ring or the worker queues.
#[test]
fn shutdown_drain_loses_nothing() {
    let bounds = Config {
        preemptions: 2,
        max_schedules: 2048,
        ..Config::default()
    };
    let report = model_with(bounds, || {
        let server = QosServer::new(model_cfg()).unwrap();
        let t_ns = server.config().qos.interval_ns;
        server.register(1, 2, OverloadPolicy::Delay).unwrap();
        server.register(2, 2, OverloadPolicy::Delay).unwrap();
        let mut ha = server.handle();
        let mut hb = server.handle();
        let a = fqos_sync::thread::spawn(move || {
            // One request, then the handle drops mid-window: its
            // watermark must stop gating the seal.
            submit_all(&mut ha, 1, &[(0, 0)])
        });
        let b = fqos_sync::thread::spawn(move || submit_all(&mut hb, 2, &[(2, 0), (3, 2 * t_ns)]));
        let ta = a.join().unwrap();
        let tb = b.join().unwrap();
        let m = server.finish();
        assert_eq!(m.admitted_total() + m.rejected, 3);
        assert_eq!(ta.admitted + tb.admitted, m.admitted_total());
        assert_eq!(m.hedges_issued, 0, "healthy devices never speculate");
        assert_eq!(m.served, m.admitted_total(), "drain may not strand items");
        assert_eq!(m.guaranteed_violations, 0);
    });
    report_and_check("shutdown-drain", report, 200);
}

/// The satellite regression from DESIGN.md: dropping a `SubmitterHandle`
/// mid-window — while another handle still holds the window open — must
/// drain without losing conservation. The drop-side pump races the live
/// handle's admissions into the same window.
#[test]
fn handle_drop_mid_window_conserves_requests() {
    let bounds = Config {
        preemptions: 2,
        max_schedules: 2048,
        ..Config::default()
    };
    let report = model_with(bounds, || {
        let server = QosServer::new(model_cfg()).unwrap();
        let t_ns = server.config().qos.interval_ns;
        server.register(1, 2, OverloadPolicy::Delay).unwrap();
        let mut ha = server.handle();
        let mut hb = server.handle();
        let a = fqos_sync::thread::spawn(move || {
            let tally = submit_all(&mut ha, 1, &[(0, 0)]);
            drop(ha); // explicit: drop races hb's admissions below
            tally
        });
        let b = fqos_sync::thread::spawn(move || submit_all(&mut hb, 1, &[(1, 0), (1, t_ns)]));
        let ta = a.join().unwrap();
        let tb = b.join().unwrap();
        let m = server.finish();
        assert_eq!(m.admitted_total() + m.rejected, 3);
        assert_eq!(ta.admitted + tb.admitted, m.admitted_total());
        assert_eq!(m.served + m.fault_lost, m.admitted_total(), "conservation");
        assert_eq!(m.fault_lost, 0);
        assert_eq!(m.guaranteed_violations, 0);
    });
    report_and_check("handle-drop-mid-window", report, 200);
}

/// The cluster tier's migration drain racing the window seal: a submitter
/// pushes requests for tenant 1 on the *source* array while a migrator
/// thread re-registers the tenant on the *target* array, deregisters it at
/// the source (cooperative drain — the departed record keeps settling
/// in-flight admissions), and submits post-migration traffic on the
/// target. Depending on where the drain lands relative to admission and
/// seal, source submissions are admitted (and must still settle against
/// the departed record) or rejected as unknown. On every schedule the
/// cluster law must close: summed over both arrays,
/// `Σ served + Σ fault_lost + Σ hedges_cancelled == Σ admitted_total`,
/// with zero migrated-in-flight after both finishes — and per-tenant
/// accounting on the source may not strand a single admission.
#[test]
fn rebalance_vs_seal_conserves_the_cluster_law() {
    let bounds = Config {
        preemptions: 2,
        max_schedules: 4096,
        ..Config::default()
    };
    let report = model_with(bounds, || {
        // One worker per array keeps the thread count at five (two
        // workers + submitter + migrator + root).
        let mut src_cfg = model_cfg().with_workers(1);
        src_cfg.shards = 1;
        let dst_cfg = src_cfg.clone();
        let src = QosServer::new(src_cfg).unwrap();
        let dst = QosServer::new(dst_cfg).unwrap();
        let t_ns = src.config().qos.interval_ns;
        src.register(1, 2, OverloadPolicy::Delay).unwrap();
        let mut hs = src.handle();
        let hm = src.handle(); // migrator's drain endpoint on the source
        let hd = dst.handle(); // migrator's endpoint on the target
        let submitter = fqos_sync::thread::spawn(move || submit_all(&mut hs, 1, &[(0, 0), (1, 0)]));
        let migrator = fqos_sync::thread::spawn(move || {
            // Target first (the controller's order): registration there
            // cannot fail, so the drain never leaves the tenant homeless.
            hd.register(1, 2, OverloadPolicy::Delay).unwrap();
            hm.deregister(1);
            let mut hd = hd;
            submit_all(&mut hd, 1, &[(2, t_ns)])
            // Dropping hm/hd closes their watermarks so sealing proceeds.
        });
        let ts = submitter.join().unwrap();
        let td = migrator.join().unwrap();
        let ms = src.finish();
        let md = dst.finish();
        // Source submissions race the drain: admitted before it, rejected
        // (unknown tenant) after it. The target admission is unconditional.
        assert_eq!(ts.admitted + ts.rejected, 2);
        assert_eq!(td.admitted, 1);
        assert_eq!(ts.admitted, ms.admitted_total());
        assert_eq!(td.admitted, md.admitted_total());
        // Cluster law over both arrays, and per array.
        for m in [&ms, &md] {
            assert_eq!(m.hedges_won, m.hedges_cancelled);
            assert!(
                m.ledger().conserved(),
                "{}: {}",
                "conservation",
                m.ledger().render()
            );
            assert_eq!(m.fault_lost, 0, "no faults were injected");
            assert_eq!(m.guaranteed_violations, 0, "deadline audit");
        }
        // The drain stranded nothing: the departed source record settled
        // every admission it ever took (migrated_in_flight == 0).
        let t1_src = ms.tenants.iter().find(|t| t.tenant == 1).unwrap();
        assert!(!t1_src.live, "tenant 1 departed the source");
        assert_eq!(t1_src.admitted, ts.admitted, "departed counters complete");
        assert_eq!(t1_src.in_flight(), 0, "drain fully settled at the seal");
    });
    report_and_check("rebalance-vs-seal", report, 1000);
}

/// A live `degrade_device` races admission, dispatch and the hedge
/// decision: the root, holding no handle, silently slows the primary
/// replica 10× while a submitter pushes two same-bucket requests through
/// and its release seals the window; then an injector restores the device
/// while the worker serves it. Depending on where the two land, the slow
/// primary finishes past its deadline and is hedged onto a sibling replica
/// (first completion wins, the loser is cancelled), or the restore comes
/// first and nothing hedges — the report line says on how many schedules
/// a read hedged, which has to be some but not all. (Both issued through
/// one handle opened at the start, whose watermark held the window
/// unsealed until after the restore, no schedule ever hedged.) Whatever
/// the schedule, the extended conservation law must balance — every
/// admission completes exactly once, and a hedge win cancels exactly one
/// primary — and nothing may be lost: a slow device is degraded, not dead.
/// One worker keeps the race near the end of the schedule, where the
/// depth-first explorer flips it within its budget.
///
/// Seeded mutant (ROADMAP 1(d)): built with `model-mutant-double-settle`, a
/// winning hedge also settles the primary it cancelled; the explorer has to
/// find a schedule on which the law breaks, and the test fails if it does
/// not.
#[test]
fn hedge_vs_seal_conserves_requests() {
    use std::sync::atomic::{AtomicU64, Ordering};
    static RAN: AtomicU64 = AtomicU64::new(0);
    static HEDGED: AtomicU64 = AtomicU64::new(0);
    let replicas = common::bucket_replicas(9, 3, 0);
    let slow = replicas[0];
    let bounds = Config {
        preemptions: 2,
        max_schedules: 4096,
        ..Config::default()
    };
    let scenario = move || {
        RAN.fetch_add(1, Ordering::Relaxed);
        let server = QosServer::new(model_cfg().with_workers(1)).unwrap();
        server.register(1, 2, OverloadPolicy::Delay).unwrap();
        let mut hs = server.handle();
        let submitter = fqos_sync::thread::spawn(move || {
            // Same bucket: both requests' replica sets contain the
            // degraded device, so each dispatch may race the slowdown.
            submit_all(&mut hs, 1, &[(0, 0), (0, 0)])
        });
        server.degrade_device(slow, 10).unwrap();
        let ts = submitter.join().unwrap();
        // The window is sealed and on its way to a worker: a handle made now
        // holds none of it, and its restore races the worker's service.
        let hf = server.handle();
        let injector = fqos_sync::thread::spawn(move || hf.restore_device(slow).unwrap());
        injector.join().unwrap();
        let m = server.finish();
        assert_eq!(ts.admitted, m.admitted_total());
        assert_eq!(m.admitted_total() + m.rejected, 2);
        assert_eq!(m.hedges_won, m.hedges_cancelled, "exactly-once hedging");
        assert!(
            m.ledger().conserved(),
            "{}: {}",
            "conservation",
            m.ledger().render()
        );
        assert_eq!(m.fault_lost, 0, "slow devices stay live; nothing is lost");
        if m.hedges_issued > 0 {
            HEDGED.fetch_add(1, Ordering::Relaxed);
        }
    };
    if cfg!(feature = "model-mutant-double-settle") {
        expect_mutant_caught("hedge-vs-seal", &RAN, || model_with(bounds, scenario));
    } else {
        let report = model_with(bounds, scenario);
        report_hedged("hedge-vs-seal", report, HEDGED.load(Ordering::Relaxed));
    }
}

/// The WAL ordering invariant under every explored schedule: two racing
/// submitters append admit records (under the `engine.wal` leaf lock)
/// while seals and worker completions append seal/settle records from
/// other threads. On no schedule may a settlement reach the log before
/// its admission is durable-ordered ahead of it — the log's own replay
/// state machine counts any such inversion (settle without a pending
/// durable admit, admit below the sealed floor, double seal) in
/// `wal_misordered`, which must stay zero while the usual conservation
/// law closes over the logged record.
#[test]
fn wal_append_vs_settle_orders_every_schedule() {
    let bounds = Config {
        preemptions: 2,
        max_schedules: 4096,
        ..Config::default()
    };
    let report = model_with(bounds, || {
        let server = QosServer::new(model_cfg().with_wal_memory()).unwrap();
        let t_ns = server.config().qos.interval_ns;
        server.register(1, 2, OverloadPolicy::Delay).unwrap();
        server.register(2, 2, OverloadPolicy::Delay).unwrap();
        let mut ha = server.handle();
        let mut hb = server.handle();
        let a = fqos_sync::thread::spawn(move || submit_all(&mut ha, 1, &[(0, 0), (1, t_ns)]));
        let b = fqos_sync::thread::spawn(move || submit_all(&mut hb, 2, &[(2, 0)]));
        let ta = a.join().unwrap();
        let tb = b.join().unwrap();
        let m = server.finish();
        assert_eq!(ta.admitted + tb.admitted, m.admitted_total());
        assert_eq!(m.admitted_total() + m.rejected, 3);
        assert_eq!(
            m.wal_misordered, 0,
            "a settlement outran its admission's durable order in the log"
        );
        assert!(
            m.wal_records >= m.admitted_total(),
            "every admission must reach the log"
        );
        assert_eq!(m.served + m.fault_lost, m.admitted_total(), "conservation");
        assert_eq!(m.fault_lost, 0, "no faults were injected");
        assert_eq!(m.guaranteed_violations, 0, "deadline audit");
    });
    report_and_check("wal-append-vs-settle", report, 1000);

    // The one edge staging adds, narrowed until the explorer reaches it: a
    // handle drains its stage *before* the store that raises its watermark,
    // because that store is what lets a peer's pump log `Seal(w)`. The
    // peer is parked on a channel until the handle is about to advance, and
    // closes (pumping) wherever the explorer lets it; with the drain after
    // the store, the schedule that runs the peer between the two logs
    // `Seal(0)` ahead of the staged `Admit(0)`. The scenario above never
    // gets there — depth-first from the end of a 250-step schedule, it did
    // not within 400 000 schedules — so this one keeps everything after the
    // store short and needs one preemption.
    let bounds = Config {
        preemptions: 1,
        max_schedules: 4096,
        ..Config::default()
    };
    let report = model_with(bounds, || {
        let server = QosServer::new(model_cfg().with_workers(1).with_wal_memory()).unwrap();
        let t_ns = server.config().qos.interval_ns;
        server.register(1, 2, OverloadPolicy::Delay).unwrap();
        let mut ha = server.handle();
        let hb = server.handle();
        assert!(ha.submit(1, 0, 0).is_admitted()); // staged: the batch is 8
        let (go, parked) = fqos_sync::channel::bounded::<()>(1);
        let peer = fqos_sync::thread::spawn(move || {
            parked.recv().unwrap();
            drop(hb);
        });
        let advancing = fqos_sync::thread::spawn(move || {
            go.send(()).unwrap();
            ha.advance_to(t_ns);
            ha // closed by the root, not here: nothing follows the pump
        });
        peer.join().unwrap();
        drop(advancing.join().unwrap());
        let m = server.finish();
        assert_eq!(
            m.wal_misordered, 0,
            "Seal(0) reached the log before Admit(0)"
        );
        assert_eq!((m.admitted_total(), m.served), (1, 1));
    });
    report_and_check("wal-append-vs-settle/drain-before-watermark", report, 100);
}

/// A whole-array fail-stop (`halt`, the cluster tier's `kill_array`
/// primitive) races a submitter mid-burst. This is the linearization
/// point the evacuation ledger depends on: the residue charged to
/// `evacuation_lost` is computed from the frozen snapshot, so an
/// admission acked to the client but missing from that snapshot would
/// silently vanish from the cluster conservation law. On every schedule:
/// each submit either lands in the frozen snapshot or is refused as
/// `ServerStopping` (never a hang, never an unaccounted ack), and the
/// extended per-array law closes exactly once the stranded residue is
/// added back.
#[test]
fn kill_vs_submit_freezes_every_ack_into_the_ledger() {
    let bounds = Config {
        preemptions: 2,
        max_schedules: 4096,
        ..Config::default()
    };
    let report = model_with(bounds, || {
        let server = QosServer::new(model_cfg().with_workers(1)).unwrap();
        server.register(1, 2, OverloadPolicy::Delay).unwrap();
        let mut h = server.handle();
        let submitter = fqos_sync::thread::spawn(move || submit_all(&mut h, 1, &[(0, 0), (1, 0)]));
        // Root plays the failure injector: halt without draining while
        // the submitter is (possibly) mid-call.
        let frozen = server.halt();
        let t = submitter.join().unwrap();
        assert_eq!(t.admitted + t.rejected, 2, "a submit hung across the kill");
        // Every ack the client saw is in the frozen snapshot, and every
        // admission the snapshot counts was acked: the ledger charge
        // (residue of `frozen`) misses nothing the client was promised.
        assert_eq!(t.admitted, frozen.admitted_total());
        assert_eq!(frozen.hedges_won, frozen.hedges_cancelled);
        assert!(
            frozen.settled() <= frozen.admitted_total(),
            "over-settled: {}",
            frozen.ledger().render()
        );
        // The law, as the cluster audit states it after charging the
        // residue to `evacuation_lost`.
        let residue = frozen.ledger().in_flight();
        assert!(frozen.ledger().conserved_with(residue), "conservation");
        assert_eq!(frozen.fault_lost, 0, "no device faults were injected");
    });
    report_and_check("kill-vs-submit", report, 1000);
}

/// Emergency evacuation races the survivor's own seal/drain: after a
/// source array fail-stops, the controller re-registers the displaced
/// tenant on a survivor (target first, same order as rebalancing) and
/// replays traffic there while a native tenant keeps the survivor's seal
/// pipeline moving. Unlike `rebalance_vs_seal` there is no source drain —
/// the source is dead and its residue is already charged — so the checks
/// concentrate on the survivor: the evacuated tenant's registration wins
/// before its first submit on every schedule (no spurious
/// `UnknownTenant`), and the survivor's law closes with both tenants'
/// admissions settled at the final seal.
#[test]
fn evacuate_vs_seal_lands_the_displaced_tenant_exactly_once() {
    let bounds = Config {
        preemptions: 2,
        max_schedules: 4096,
        ..Config::default()
    };
    let report = model_with(bounds, || {
        let survivor = QosServer::new(model_cfg().with_workers(1)).unwrap();
        let t_ns = survivor.config().qos.interval_ns;
        // Tenant 1 is native to the survivor; tenant 2 arrives by
        // evacuation while 1's submitter keeps windows sealing.
        survivor.register(1, 2, OverloadPolicy::Delay).unwrap();
        let mut hn = survivor.handle();
        let he = survivor.handle(); // evacuator's endpoint
        let native = fqos_sync::thread::spawn(move || submit_all(&mut hn, 1, &[(0, 0), (1, t_ns)]));
        let evacuator = fqos_sync::thread::spawn(move || {
            // The controller's evacuation order: register on the target,
            // then replay the displaced tenant's traffic. Registration
            // happens-before the submit in program order, so no schedule
            // may observe UnknownTenant.
            he.register(2, 2, OverloadPolicy::Delay).unwrap();
            let mut he = he;
            let t = submit_all(&mut he, 2, &[(2, 0)]);
            assert_eq!(t.rejected, 0, "evacuated tenant bounced off its new home");
            t
        });
        let tn = native.join().unwrap();
        let te = evacuator.join().unwrap();
        let m = survivor.finish();
        assert_eq!(tn.admitted + tn.rejected, 2);
        assert_eq!(te.admitted, 1);
        assert_eq!(tn.admitted + te.admitted, m.admitted_total());
        assert_eq!(m.hedges_won, m.hedges_cancelled);
        assert!(
            m.ledger().conserved(),
            "{}: {}",
            "survivor conservation",
            m.ledger().render()
        );
        assert_eq!(m.fault_lost, 0, "no faults were injected");
        assert_eq!(m.guaranteed_violations, 0, "deadline audit");
        let t2 = m.tenants.iter().find(|t| t.tenant == 2).unwrap();
        assert!(t2.live, "evacuated tenant registered on the survivor");
        assert_eq!(t2.admitted, 1, "evacuated admission settled here");
        assert_eq!(t2.in_flight(), 0, "evacuated work fully settled");
    });
    report_and_check("evacuate-vs-seal", report, 1000);
}

/// Write fan-out races the seal: two submitter threads push writes (plus
/// one read) through overlapping windows while seals dispatch each write
/// to all three of its bucket's replicas. The settle is a
/// `fetch_sub(1, AcqRel) == 1` on the group's remaining-copies counter,
/// so depending on the schedule the last copy lands before, during, or
/// after the next window's seal. On every schedule the extended law must
/// close — `served + write_settled + fault_lost + hedges_cancelled +
/// write_lost == admitted_total` — each logical write settles exactly
/// once (never once per replica), and no write is lost with every device
/// healthy. A write's three copies land on two workers, so one worker
/// always gets two items of one window in one batch: this is the schedule
/// that walks the worker's batch loop. A later window carries a write as
/// well, so its seal may meet a write sink that a worker still holds: the
/// seal reuses a sink only once nobody does.
///
/// Seeded mutant (ROADMAP 1(d)): built with `model-mutant-sink-reuse`, the
/// seal reuses the oldest sink without that check; the explorer has to
/// find a schedule on which the law breaks, and the test fails if it does
/// not.
#[test]
fn write_fanout_vs_seal_settles_each_group_once() {
    use std::sync::atomic::{AtomicU64, Ordering};
    static RAN: AtomicU64 = AtomicU64::new(0);
    let bounds = Config {
        preemptions: 2,
        max_schedules: 4096,
        ..Config::default()
    };
    let scenario = || {
        RAN.fetch_add(1, Ordering::Relaxed);
        let server = QosServer::new(model_cfg()).unwrap();
        let t_ns = server.config().qos.interval_ns;
        server.register(1, 2, OverloadPolicy::Delay).unwrap();
        server.register(2, 2, OverloadPolicy::Delay).unwrap();
        let mut ha = server.handle();
        let mut hb = server.handle();
        let a = fqos_sync::thread::spawn(move || {
            let mut tally = Tally::default();
            let ops = [
                (0, 0, IoOp::Write),
                (1, t_ns, IoOp::Read),
                (4, t_ns, IoOp::Write),
            ];
            for &(lbn, at, op) in &ops {
                match ha.submit_op(1, lbn, at, op) {
                    SubmitOutcome::Rejected(_) => tally.rejected += 1,
                    _ => tally.admitted += 1,
                }
            }
            tally
        });
        let b = fqos_sync::thread::spawn(move || {
            let mut tally = Tally::default();
            match hb.submit_op(2, 2, 0, IoOp::Write) {
                SubmitOutcome::Rejected(_) => tally.rejected += 1,
                _ => tally.admitted += 1,
            }
            tally
        });
        let ta = a.join().unwrap();
        let tb = b.join().unwrap();
        let m = server.finish();
        assert_eq!(ta.admitted + tb.admitted, m.admitted_total());
        assert_eq!(m.admitted_total() + m.rejected, 4);
        assert!(
            m.ledger().conserved(),
            "{}: {}",
            "extended conservation",
            m.ledger().render()
        );
        assert!(
            m.write_settled <= 3,
            "a fan-out group must settle once, not once per replica: {}",
            m.write_settled
        );
        assert_eq!(m.write_lost, 0, "every device is healthy");
        assert_eq!(m.fault_lost, 0, "no faults were injected");
        assert_eq!(m.hedges_issued, 0, "healthy devices never speculate");
        assert_eq!(m.guaranteed_violations, 0, "deadline audit");
    };
    if cfg!(feature = "model-mutant-sink-reuse") {
        expect_mutant_caught("write-fanout-vs-seal", &RAN, || {
            model_with(bounds, scenario)
        });
    } else {
        report_and_check("write-fanout-vs-seal", model_with(bounds, scenario), 1000);
    }
}

/// A GC stall races the hedge decision: writes into a four-page FTL force
/// garbage collection whose erase stalls land on the same replicas a
/// racing read's dispatch and hedge logic are timing against. Once every
/// window is sealed the root degrades one replica — from the read's
/// execution window on, so the writes run at speed — and an injector
/// restores it while the worker serves: the read hedges on some schedules
/// and not on others, and the report line says on how many. Whatever the
/// schedule: the extended law closes, only the read may ever be hedged (a
/// write fans out to every replica already — duplicating one would
/// double-program a page), each write settles exactly once, and a
/// stalled-but-live device loses nothing.
#[test]
fn gc_stall_vs_hedge_never_duplicates_a_write() {
    use std::sync::atomic::{AtomicU64, Ordering};
    static HEDGED: AtomicU64 = AtomicU64::new(0);
    let replicas = common::bucket_replicas(9, 3, 0);
    let slow = replicas[0];
    let bounds = Config {
        preemptions: 2,
        max_schedules: 4096,
        ..Config::default()
    };
    let report = model_with(bounds, move || {
        // Four pages per device, one quarter held back: the second write
        // to the bucket already has GC relocating and erasing under the
        // read it races.
        let geometry = FtlGeometry {
            dies: 1,
            blocks_per_die: 2,
            pages_per_block: 2,
            overprovision: 0.25,
        };
        let cfg = model_cfg().with_gc_model(GcConfig::new(geometry));
        let server = QosServer::new(cfg).unwrap();
        server.register(1, 2, OverloadPolicy::Delay).unwrap();
        let mut hs = server.handle();
        let submitter = fqos_sync::thread::spawn(move || {
            // Same bucket throughout: the writes program (and GC) exactly
            // the replica set the read dispatches against.
            let mut tally = Tally::default();
            for &(at, op) in &[(0, IoOp::Write), (0, IoOp::Write), (0, IoOp::Read)] {
                match hs.submit_op(1, 0, at, op) {
                    SubmitOutcome::Rejected(_) => tally.rejected += 1,
                    _ => tally.admitted += 1,
                }
            }
            tally
        });
        let ts = submitter.join().unwrap();
        // Every window is sealed: the slowdown starts with the read's
        // execution, and a handle made now holds none of the windows.
        server.degrade_device(slow, 10).unwrap();
        let hf = server.handle();
        let injector = fqos_sync::thread::spawn(move || hf.restore_device(slow).unwrap());
        injector.join().unwrap();
        let m = server.finish();
        assert_eq!(ts.admitted, m.admitted_total());
        assert_eq!(m.admitted_total() + m.rejected, 3);
        assert!(
            m.ledger().conserved(),
            "{}: {}",
            "extended conservation",
            m.ledger().render()
        );
        assert_eq!(m.hedges_won, m.hedges_cancelled, "exactly-once hedging");
        assert!(
            m.hedges_issued <= 1,
            "only the single read may speculate; a hedged write would \
             double-program a page ({} hedges issued)",
            m.hedges_issued
        );
        assert!(
            m.write_settled <= 2,
            "each fan-out group settles once: {}",
            m.write_settled
        );
        assert_eq!(m.write_lost, 0, "a GC stall delays a write, never loses it");
        assert_eq!(m.fault_lost, 0, "slow devices stay live; nothing is lost");
        if m.hedges_issued > 0 {
            HEDGED.fetch_add(1, Ordering::Relaxed);
        }
    });
    report_hedged("gc-stall-vs-hedge", report, HEDGED.load(Ordering::Relaxed));
}

/// A submitter whose handle has resolved its tenant before — the record
/// sits in the handle's view — races a controller that deregisters the
/// tenant and registers it afresh. A view follows the registry by its
/// epoch, bumped *after* the new record is in its shard: bumped before, a
/// submit could cache the departed record under the new epoch and answer
/// `UnknownTenant` for ever. On every schedule a submit that starts after
/// `register` returned `Ok` finds the tenant; whichever record each
/// admission and each settlement landed on (the worker resolves ids
/// through a view of its own), the array's ledger is conserved and is the
/// sum of the ledgers of every record the id ever had. Registration is
/// refused `DrainPending` on the schedules where the worker has not yet
/// settled the warm-up request; the tenant then stays departed.
#[test]
fn cached_view_vs_reregister_never_hides_the_new_record() {
    use fqos_server::RejectReason;
    use fqos_sync::atomic::{AtomicBool, Ordering};
    use fqos_sync::Arc;
    let bounds = Config {
        preemptions: 2,
        max_schedules: 4096,
        ..Config::default()
    };
    let report = model_with(bounds, || {
        let server = QosServer::new(model_cfg().with_workers(1)).unwrap();
        let t_ns = server.config().qos.interval_ns;
        let first = server.register(1, 2, OverloadPolicy::Delay).unwrap();
        let mut hs = server.handle();
        // Warm the view, then seal the warm-up's window so that the worker
        // — a third party to the race — can settle it and let the id start
        // a fresh epoch.
        assert!(hs.submit(1, 0, 0).is_admitted());
        hs.advance_to(2 * t_ns);
        let hc = server.handle(); // the controller's endpoint
        let registered = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&registered);
        // The controller is spawned first: the explorer's first schedule
        // runs threads in spawn order, so its baseline has the worker
        // settle, the registration succeed and both submits follow it, and
        // the schedule budget goes to the submits that race it.
        let controller = fqos_sync::thread::spawn(move || {
            hc.deregister(1).expect("tenant 1 was live");
            let fresh = hc.register(1, 2, OverloadPolicy::Delay).ok();
            if fresh.is_some() {
                registered.store(true, Ordering::Release);
            }
            fresh
            // Dropping hc closes its watermark so sealing can proceed.
        });
        let submitter = fqos_sync::thread::spawn(move || {
            let mut tally = Tally::default();
            for lbn in [1, 2] {
                let after_register = seen.load(Ordering::Acquire);
                match hs.submit(1, lbn, 2 * t_ns) {
                    SubmitOutcome::Rejected(reason) => {
                        assert!(
                            !(after_register && reason == RejectReason::UnknownTenant),
                            "a view kept the departed record past its replacement"
                        );
                        tally.rejected += 1;
                    }
                    _ => tally.admitted += 1,
                }
            }
            tally
        });
        let ts = submitter.join().unwrap();
        let fresh = controller.join().unwrap();
        let m = server.finish();
        assert_eq!(ts.admitted + ts.rejected, 2);
        assert_eq!(1 + ts.admitted, m.admitted_total());
        assert_eq!(ts.rejected, m.rejected);
        assert!(
            m.ledger().conserved(),
            "{}: {}",
            "conservation",
            m.ledger().render()
        );
        assert_eq!(m.served, m.admitted_total(), "no faults were injected");
        assert_eq!(m.guaranteed_violations, 0, "deadline audit");
        let mut records = first.counters.ledger.snapshot();
        if let Some(second) = &fresh {
            records.merge(&second.counters.ledger.snapshot());
        }
        assert_eq!(m.ledger(), records, "an event landed on no record");
    });
    report_and_check("cached-view-vs-reregister", report, 1000);
}

/// A worker settling a departed tenant's last admission races a controller
/// that deregisters the tenant and registers it afresh, over a log that
/// stages records (`fsync_batch = 8`). `register` lifts `DrainPending` once
/// the old record's ledger shows nothing in flight, and its force-synced
/// `Register` restarts the id's durable ledger — so the `Settle` record has
/// to be staged before the ledger it releases is settled, and `Register`
/// has to drain every stage before it appends; otherwise the old epoch's
/// settle replays into the new one and recovery installs a tenant that
/// settled more than it admitted. The retry is bounded (a spin would never
/// yield under the explorer); on the schedules where every attempt is
/// refused the tenant stays departed. On every schedule the log is in
/// order, and the tenant ledger a restart installs — read back through
/// `recover`, the only public way to it — is conserved.
#[test]
fn staged_settle_vs_reregister_keeps_each_epochs_settles_apart() {
    let bounds = Config {
        preemptions: 2,
        max_schedules: 4096,
        ..Config::default()
    };
    let dir = common::scratch_path("model-reregister");
    let wal_dir = dir.clone();
    let report = model_with(bounds, move || {
        // `new` starts a fresh log epoch over the previous schedule's files.
        let cfg = || model_cfg().with_workers(1).with_wal(&wal_dir);
        let server = QosServer::new(cfg()).unwrap();
        let t_ns = server.config().qos.interval_ns;
        server.register(1, 2, OverloadPolicy::Delay).unwrap();
        let mut hs = server.handle();
        assert!(hs.submit(1, 0, 0).is_admitted());
        // Sealed and sent: from here the worker settles it whenever the
        // explorer lets it run.
        hs.advance_to(2 * t_ns);
        let hc = server.handle();
        let controller = fqos_sync::thread::spawn(move || {
            hc.deregister(1).expect("tenant 1 was live");
            (0..3).find_map(|_| hc.register(1, 2, OverloadPolicy::Delay).ok())
            // Dropping hc closes its watermark so sealing can proceed.
        });
        let fresh = controller.join().unwrap();
        drop(hs);
        let m = server.finish();
        assert_eq!(m.wal_misordered, 0, "a record outran the one it depends on");
        assert_eq!((m.admitted_total(), m.served), (1, 1));
        assert!(m.ledger().conserved(), "{}", m.ledger().render());
        let restarted = QosServer::recover(cfg()).unwrap().finish();
        assert_eq!(restarted.wal_misordered, 0);
        assert_eq!(
            restarted.ledger(),
            m.ledger(),
            "the log replays to the account"
        );
        let t1 = restarted.tenants.iter().find(|t| t.tenant == 1).unwrap();
        assert_eq!(t1.live, fresh.is_some());
        // The old epoch's ledger if the id stayed departed, the fresh one's
        // (nothing admitted, so nothing settled) if it did not.
        assert!(
            t1.ledger().conserved(),
            "a settle of the departed epoch replayed into the fresh one: {}",
            t1.ledger().render()
        );
        assert_eq!(t1.admitted, u64::from(fresh.is_none()));
    });
    let _ = std::fs::remove_dir_all(&dir);
    report_and_check("staged-settle-vs-reregister", report, 1000);
}

/// The log has one writer: a worker's `Settle` records reach the log in the
/// hold of the next `Seal`, appended by the thread that seals. Here the
/// worker staging `Settle(0)` of tenant 1's only admission races a handle
/// whose release logs `Seal(1)` and `Seal(2)` — each collects the worker's
/// stage — and a controller that deregisters the tenant and registers it
/// afresh, whose `Register` drains every stage first. Whoever gets there
/// first logs the settle (a seal, the cold path, or the worker itself when
/// it finds nothing queued and is about to park); none of them may let
/// `Register` into the log between the settle leaving the stage and
/// reaching the log, which is why the sealing thread lets go of a worker's
/// stage only once it holds the WAL lock (`Wal::lock_behind_workers`). On
/// every schedule the log is in order, the law closes over every record the
/// id ever had, and what the log's bytes replay to — read back through
/// `recover` — is the account the engine kept, with tenant 1's durable
/// ledger conserved.
///
/// Seeded mutant (ROADMAP 1(d)): a seal that takes the worker's records out
/// and releases its stage *before* the WAL lock is taken. Through the
/// engine it needs two preemptions early in a 250-step schedule and a seal
/// the handle's own stage does not ride, and this exploration does not
/// reach it (40 000 schedules tried); the same three threads narrowed to
/// the log, where the explorer exhausts the space, do and must:
/// `wal.rs::seal_collects_worker_stage_holding_it_until_the_log_is_held`
/// runs the mutant on every CI run and fails if it is *not* caught.
#[test]
fn seal_collects_worker_stage_behind_every_cold_path() {
    let bounds = Config {
        preemptions: 2,
        max_schedules: 4096,
        ..Config::default()
    };
    let dir = common::scratch_path("model-seal-collects");
    let wal_dir = dir.clone();
    let report = model_with(bounds, move || {
        // `new` starts a fresh log epoch over the previous schedule's files.
        let cfg = || model_cfg().with_workers(1).with_wal(&wal_dir);
        let server = QosServer::new(cfg()).unwrap();
        let t_ns = server.config().qos.interval_ns;
        let first = server.register(1, 2, OverloadPolicy::Delay).unwrap();
        let other = server.register(2, 2, OverloadPolicy::Delay).unwrap();
        // The controller's handle is past window 2 from the start, so that
        // the other handle's releases are what seal.
        let mut hc = server.handle();
        hc.advance_to(3 * t_ns);
        let mut hs = server.handle();
        assert!(hs.submit(1, 0, 0).is_admitted());
        let (go, parked) = fqos_sync::channel::bounded::<()>(1);
        let sealing = fqos_sync::thread::spawn(move || {
            go.send(()).unwrap();
            // Seals window 0 and sends tenant 1's read: from here the
            // worker stages its settle whenever the explorer lets it run.
            assert!(hs.submit(2, 1, t_ns).is_admitted());
            // `Seal(1)`, whose batch finds the worker's one-message queue
            // full unless the worker ran, then `Seal(2)`: two seals in one
            // release, and only the first has the handle's own stage riding
            // it. (A cold path drains that stage too, so it waits out a seal
            // the stage rides whatever the seal does with the workers'.)
            hs.advance_to(3 * t_ns);
            hs
        });
        let controller = fqos_sync::thread::spawn(move || {
            parked.recv().unwrap();
            hc.deregister(1).expect("tenant 1 was live");
            hc.register(1, 2, OverloadPolicy::Delay).ok()
        });
        let fresh = controller.join().unwrap();
        drop(sealing.join().unwrap());
        let m = server.finish();
        assert_eq!(m.wal_misordered, 0, "a record outran the one it depends on");
        assert_eq!((m.admitted_total(), m.served), (2, 2));
        assert!(m.ledger().conserved(), "{}", m.ledger().render());
        let mut records = first.counters.ledger.snapshot();
        records.merge(&other.counters.ledger.snapshot());
        if let Some(second) = &fresh {
            records.merge(&second.counters.ledger.snapshot());
        }
        assert_eq!(m.ledger(), records, "an event landed on no record");
        // Nothing of this execution is left running, so the replay needs no
        // exploring: on a plain thread the restarted server's locks and
        // channel are no scheduling points, which keeps the schedule space
        // to the race itself.
        let restart = cfg();
        let restarted = std::thread::spawn(move || QosServer::recover(restart).unwrap().finish())
            .join()
            .unwrap();
        assert_eq!(restarted.wal_misordered, 0);
        assert_eq!(
            restarted.ledger(),
            m.ledger(),
            "the log replays to the account"
        );
        let t1 = restarted.tenants.iter().find(|t| t.tenant == 1).unwrap();
        assert_eq!(t1.live, fresh.is_some());
        assert!(
            t1.ledger().conserved(),
            "a settle of the departed epoch replayed into the fresh one: {}",
            t1.ledger().render()
        );
        assert_eq!(t1.admitted, u64::from(fresh.is_none()));
    });
    let _ = std::fs::remove_dir_all(&dir);
    report_and_check("seal-collects-worker-stage", report, 1000);
}
