//! Crash-consistency suite: every named WAL crash point is driven through
//! a real process death and a real recovery.
//!
//! Each test replays a seeded trace in a subprocess (the `crash_child`
//! test below, re-exec'd via [`common::crash_child_entry`]) with a
//! write-ahead log at `fsync_batch = 1` (one row runs at 8 and one at 64,
//! with the weaker contract a batched log has), arms one `FQOS_CRASH_POINT`, lets
//! the child abort mid-run, then recovers the log in-process and audits
//! the durability contract:
//!
//! * recovery never loses an acknowledged admission (`admitted ≥ acked`),
//! * recovery never resurrects more than the one admission that could
//!   have been logged-but-unacked at the instant of death,
//! * the conservation law `served + fault_lost + hedges_cancelled ==
//!   admitted_total` holds over the durable record, and
//! * every tenant's in-flight ledger drains to zero.
//!
//! Reproduce any failure with `FQOS_TEST_SEED=<seed> cargo test` (see
//! `tests/common/mod.rs`).

mod common;

use common::{qos, scratch_path, Scenario};
use fqos_core::OverloadPolicy;
use fqos_server::{QosServer, RegisterError, ServerConfig};

/// Subprocess entry point: a no-op unless the parent armed
/// `FQOS_CRASH_CHILD` (see `common::crash_child_entry`).
#[test]
fn crash_child() {
    common::crash_child_entry();
}

/// The standard crash workload: two delay-policy tenants at an aggregate
/// 4 requests per window on a (9, 3, 2) deployment for 30 windows —
/// ~120 admissions, ~30 seals, ~7 compactions at the harness's
/// `snapshot_interval = 4`, so every crash point below has hits to land on.
fn crash_scenario(stream: u64) -> Scenario {
    Scenario::sized(9, 3, 2)
        .windows(30)
        .stream(stream)
        .tenant(1, 2, OverloadPolicy::Delay)
        .tenant(2, 2, OverloadPolicy::Delay)
}

/// Run one trace → crash → recover → verify cycle and return
/// `(acked, recovered metrics)`.
fn run_point(stream: u64, point: Option<&str>) -> (u64, fqos_server::MetricsSnapshot) {
    let scenario = crash_scenario(stream);
    let wal_dir = scratch_path(&format!("wal-{stream}"));
    let run = scenario.spawn_with_crash_point("crash_child", &wal_dir, point);
    assert_eq!(
        run.aborted,
        point.is_some(),
        "crash point {point:?}: child exit shape"
    );
    let m = scenario.recover_and_verify(&wal_dir);
    assert!(
        m.admitted_total() >= run.acked,
        "recovery lost acked admissions: admitted {} < acked {}",
        m.admitted_total(),
        run.acked
    );
    let _ = std::fs::remove_dir_all(&wal_dir);
    (run.acked, m)
}

/// A record that dies in the userspace buffer (before its fsync) was never
/// acknowledged, so recovery restores exactly the acked set.
#[test]
fn recovery_after_a_pre_fsync_append_crash_restores_exactly_the_acked_set() {
    let (acked, m) = run_point(10, Some("wal-append-pre-fsync:25"));
    assert!(acked >= 24, "the 25th admit implies at least 24 acks");
    assert_eq!(
        m.admitted_total(),
        acked,
        "a pre-fsync record was never acked and must not be restored"
    );
}

/// A torn final frame (partial write + crash) is truncated on resume; the
/// half-written record was never acked. The 40th flush may be a worker's
/// settle landing between a durable admit and its ack: that admission
/// survives, unacked.
#[test]
fn recovery_after_a_torn_tail_crash_truncates_and_restores_the_acked_set() {
    let (acked, m) = run_point(11, Some("wal-append-torn:40"));
    assert!(acked > 0, "the 40th flush lands mid-trace");
    assert!(
        m.admitted_total() - acked <= 1,
        "a torn record was never acked and must not survive truncation; at most \
         the one in-flight submit can be unacked: admitted {} acked {}",
        m.admitted_total(),
        acked
    );
}

/// A crash between the durable admit record and the submit-time ack leaves
/// exactly one restorable-but-unacked admission.
#[test]
fn recovery_after_a_post_admit_pre_ack_crash_restores_one_extra_admission() {
    let (acked, m) = run_point(12, Some("post-admit-pre-ack:30"));
    assert_eq!(
        m.admitted_total(),
        acked + 1,
        "the durable-but-unacked admission must be restored, and only it"
    );
}

/// A crash in the middle of a seal's settlement batch: the seal record is
/// durable, part of its settle batch may not be. Recovery re-derives the
/// missing settlements as crash losses — nothing acked disappears and
/// nothing is double-counted.
#[test]
fn recovery_after_a_mid_seal_crash_rederives_the_unsettled_residue() {
    let (acked, m) = run_point(13, Some("seal-mid-batch:10"));
    assert!(
        m.admitted_total() - acked <= 1,
        "at most the one in-flight submit can be unacked: admitted {} acked {}",
        m.admitted_total(),
        acked
    );
}

/// A crash between the snapshot rename and the log truncate: the snapshot
/// and the stale log tail overlap by LSN, and resume must apply each
/// record at most once.
#[test]
fn recovery_after_a_mid_compaction_crash_does_not_double_apply_the_log() {
    let (acked, m) = run_point(14, Some("compact-mid-swap:3"));
    assert!(m.wal_compactions > 0 || m.admitted_total() > 0);
    assert!(
        m.admitted_total() - acked <= 1,
        "snapshot + stale tail must replay idempotently: admitted {} acked {}",
        m.admitted_total(),
        acked
    );
}

/// A crash between the last replica landing and the write's settle record:
/// the fan-out group is fully programmed on flash but never settled in the
/// log, so recovery must resolve the whole logical write as crash-lost —
/// once, not once per replica — and the extended law still closes.
#[test]
fn recovery_after_a_mid_write_settle_crash_resolves_the_group_once() {
    let scenario = crash_scenario(17).write_fraction(0.5);
    let wal_dir = scratch_path("wal-write-settle");
    let run = scenario.spawn_with_crash_point("crash_child", &wal_dir, Some("wal-write-settle:8"));
    assert!(
        run.aborted,
        "the 8th write settle lands well inside the trace"
    );
    let m = scenario.recover_and_verify(&wal_dir);
    assert!(
        m.admitted_total() >= run.acked,
        "recovery lost acked admissions: admitted {} < acked {}",
        m.admitted_total(),
        run.acked
    );
    assert!(
        m.write_settled + m.fault_lost > 0,
        "at least the seven pre-crash settles (or their crash-loss \
         residues) must survive recovery"
    );
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// The same kills over a log that batches (`fsync_batch = 8`): an ack is
/// no longer a durability promise, so recovery may come back short of the
/// acked set — by what was unsynced when the process died, at most
/// `fsync_batch − 1` records in the submitting handle's stage and as many
/// in the shared buffer — but it resurrects nothing that was not logged
/// (at most the one admission in flight at the kill), and every ledger
/// balances (`recover_and_verify`).
#[test]
fn a_batched_log_loses_only_its_unsynced_tail_and_resurrects_nothing() {
    const BATCH: u64 = 8;
    // Four admissions a window, the first of which rides its window's
    // seal: the 32nd is a window's last, and the two before it were acked
    // out of the stage — that kill must lose acks, not merely may.
    for (stream, point, loses_acks) in [
        (18, "post-admit-pre-ack:32", true),
        (19, "seal-mid-batch:10", false),
    ] {
        let scenario = crash_scenario(stream).fsync_batch(BATCH);
        let wal_dir = scratch_path(&format!("wal-batched-{stream}"));
        let run = scenario.spawn_with_crash_point("crash_child", &wal_dir, Some(point));
        assert!(run.aborted, "{point} lands inside the trace");
        let m = scenario.recover_and_verify(&wal_dir);
        let restored = m.admitted_total();
        assert!(
            restored <= run.acked + 1,
            "{point}: resurrected more than the submit in flight: {restored} restored, {} acked",
            run.acked
        );
        assert!(
            restored + 2 * (BATCH - 1) >= run.acked,
            "{point}: lost more than the unsynced tail: {restored} restored, {} acked",
            run.acked
        );
        assert!(restored > 0, "{point}: the synced prefix must survive");
        assert!(
            !loses_acks || restored < run.acked,
            "{point}: nothing was staged"
        );
        let _ = std::fs::remove_dir_all(&wal_dir);
    }
}

/// The log has one writer, so a worker's settles wait on its stage for the
/// next seal: a kill right behind a seal (`seal-mid-batch`, a batch of 64
/// that no stage ever fills here, one worker) loses whatever the worker
/// staged after that seal collected it. Recovery charges exactly the
/// sealed admissions the log holds no settle for to `fault_lost` — the
/// killed window's, never dispatched, and at most `fsync_batch − 1` the
/// stage held — every ledger closes (`recover_and_verify`), and nothing is
/// settled twice.
#[test]
fn a_kill_behind_a_seal_loses_at_most_the_settles_on_the_workers_stage() {
    const BATCH: u64 = 64;
    let mut scenario = crash_scenario(20).fsync_batch(BATCH);
    scenario.workers = 1;
    let wal_dir = scratch_path("wal-one-writer");
    let run = scenario.spawn_with_crash_point("crash_child", &wal_dir, Some("seal-mid-batch:10"));
    assert!(run.aborted, "the tenth seal lands inside the trace");
    let m = scenario.recover_and_verify(&wal_dir);
    assert_eq!(m.wal_misordered, 0);
    assert!(
        m.admitted_total() <= run.acked + 1,
        "resurrected more than the submit in flight"
    );
    // A seal is force-synced with the handle's stage ahead of it: every
    // admission of the ten sealed windows is durable.
    assert!(m.admitted_total() >= 10 * 4 - 4, "{}", m.admitted_total());
    assert_eq!(
        m.fault_lost, m.recovered_lost,
        "lost at recovery and nowhere else: no fault was injected"
    );
    let killed_window = 4; // two tenants reserving two each
    assert!(
        (1..=killed_window + BATCH - 1).contains(&m.recovered_lost),
        "{} sealed admissions had no settle in the log",
        m.recovered_lost
    );
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// Without a crash the WAL round-trips losslessly: recovery finds every
/// acked admission already settled and re-parks nothing.
#[test]
fn a_clean_run_recovers_with_nothing_to_replay_into_flight() {
    let (acked, m) = run_point(15, None);
    assert_eq!(m.admitted_total(), acked, "clean WAL must match the acks");
    assert_eq!(
        m.recovered_admissions, 0,
        "a cleanly finished log has no open admissions to re-park"
    );
}

/// PR 6's `DrainPending` protection survives a crash: a tenant that
/// departed with unsettled in-flight admissions is restored departed, its
/// id is refused for re-registration until the residue drains, and the
/// drained ledger balances.
#[test]
fn a_drain_pending_departure_survives_recovery_and_still_refuses_the_id() {
    let scenario = crash_scenario(16).deregister_after(2);
    let wal_dir = scratch_path("wal-drain");
    let run = scenario.spawn_with_crash_point("crash_child", &wal_dir, None);
    assert!(run.aborted, "the deregister-then-abort child must die");
    let server = QosServer::recover(scenario.wal_config(&wal_dir)).expect("recover");
    match server.register(2, 2, OverloadPolicy::Delay) {
        Err(RegisterError::DrainPending { in_flight }) => {
            assert!(in_flight > 0, "the departed record must carry residue");
        }
        other => panic!("expected DrainPending for the departed id, got {other:?}"),
    }
    let m = server.finish();
    assert!(
        m.ledger().conserved(),
        "{}: {}",
        "drained departure accounting diverges",
        m.ledger().render()
    );
    let departed = m.tenants.iter().find(|t| t.tenant == 2).expect("tenant 2");
    assert!(!departed.live, "tenant 2 must be restored departed");
    assert_eq!(departed.in_flight(), 0, "residue must drain to zero");
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// A corrupt frame in the *middle* of the log (bit rot, not a torn
/// tail): replay folds every record before it, stops at the first bad
/// CRC, truncates the file there, and reports the cut via
/// `wal_replay_truncated` — and a second recovery is then clean.
#[test]
fn recovery_stops_at_a_corrupt_mid_file_frame_and_truncates() {
    let wal_dir = scratch_path("wal-bitrot");
    let cfg = || {
        ServerConfig::new(qos(9, 3, 2))
            .with_workers(2)
            .with_wal(&wal_dir)
            .with_wal_fsync_batch(1)
            // No compaction: keep every frame in wal.log so a mid-file
            // corruption site exists after a clean shutdown.
            .with_wal_snapshot_interval(u64::MAX)
    };
    let interval = qos(9, 3, 2).interval_ns;
    let server = QosServer::new(cfg()).expect("server");
    server
        .register(1, 2, OverloadPolicy::Delay)
        .expect("register");
    let mut h = server.handle();
    for w in 0..12u64 {
        h.submit(1, w % 14, w * interval + interval / 4);
        h.submit(1, (w + 5) % 14, w * interval + interval / 2);
    }
    drop(h);
    let clean = server.finish();
    assert_eq!(clean.admitted_total(), 24, "clean run admits everything");

    // Flip one payload byte in a frame halfway through the log. Frames
    // are `[lsn u64][len u32][crc u32][payload]`, little-endian.
    let log_path = wal_dir.join("wal.log");
    let mut bytes = std::fs::read(&log_path).expect("read log");
    let mut offsets = Vec::new();
    let mut off = 0usize;
    while off + 16 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off + 8..off + 12].try_into().unwrap()) as usize;
        assert!(off + 16 + len <= bytes.len(), "clean log has a torn tail");
        offsets.push(off);
        off += 16 + len;
    }
    assert!(offsets.len() >= 8, "need a mid-file frame to corrupt");
    let victim = offsets[offsets.len() / 2];
    bytes[victim + 16] ^= 0xFF;
    std::fs::write(&log_path, &bytes).expect("write corrupted log");

    let recovered = QosServer::recover(cfg()).expect("recover");
    assert_eq!(
        recovered.metrics().wal_replay_truncated,
        1,
        "the mid-file cut must be reported"
    );
    let m = recovered.finish();
    assert!(
        m.admitted_total() > 0,
        "records before the corruption must replay"
    );
    assert!(
        m.admitted_total() < clean.admitted_total(),
        "records past the corrupt frame must not replay: {} vs {}",
        m.admitted_total(),
        clean.admitted_total()
    );
    assert!(
        m.ledger().conserved(),
        "{}: {}",
        "conservation must hold over the surviving prefix",
        m.ledger().render()
    );

    // The first recovery truncated the bad tail and re-snapshotted:
    // resuming again finds nothing to cut.
    let again = QosServer::recover(cfg()).expect("second recover");
    assert_eq!(
        again.metrics().wal_replay_truncated,
        0,
        "second recovery must be clean"
    );
    let _ = again.finish();
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// A halted array's log is what `halt` left on disk: a handle dropped
/// afterwards closes without sealing the window its admission sits in, so
/// no `Seal` frame lands in the dead engine's log, and recovery replays
/// the log whole.
#[test]
fn a_halted_engine_writes_nothing_more_to_its_log() {
    let wal_dir = scratch_path("wal-halted");
    let cfg = || {
        ServerConfig::new(qos(9, 3, 2))
            .with_wal(&wal_dir)
            .with_wal_fsync_batch(1)
    };
    let server = QosServer::new(cfg()).expect("server");
    server
        .register(1, 2, OverloadPolicy::Delay)
        .expect("register");
    let mut h = server.handle();
    assert!(h.submit(1, 0, 0).is_admitted(), "admitted into window 0");
    let _frozen = server.halt();
    let log_len = || {
        std::fs::metadata(wal_dir.join("wal.log"))
            .expect("log")
            .len()
    };
    let halted = log_len();
    drop(h);
    assert_eq!(
        log_len(),
        halted,
        "the dropped handle wrote to a halted log"
    );
    let m = QosServer::recover(cfg()).expect("recover").finish();
    assert_eq!(
        m.wal_replay_truncated, 0,
        "the halted log must replay whole"
    );
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// The window ring wraps correctly across a recovery boundary: a tiny
/// 8-slot ring is lapped more than twice before a clean shutdown, then
/// recovery resumes the window sequence and laps it twice more. Window
/// numbering (and slot reuse: slot = window mod 8) must stay coherent
/// through the restart, and the combined ledger must balance.
#[test]
fn the_window_ring_survives_a_double_lap_across_the_recovery_boundary() {
    let wal_dir = scratch_path("wal-lap");
    let cfg = || {
        ServerConfig::new(qos(9, 3, 2))
            .with_workers(2)
            .with_queue_depth(8)
            .with_ring_slots(8)
            .with_delay_horizon(2)
            .with_wal(&wal_dir)
            .with_wal_fsync_batch(1)
            .with_wal_snapshot_interval(4)
    };
    let interval = qos(9, 3, 2).interval_ns;
    let first = QosServer::new(cfg()).expect("server");
    first
        .register(1, 2, OverloadPolicy::Delay)
        .expect("register");
    let mut h = first.handle();
    for w in 0..20u64 {
        // Two requests per window, fixed offsets: laps the 8-slot ring
        // two and a half times.
        h.submit(1, w % 14, w * interval + interval / 4);
        h.submit(1, (w + 5) % 14, w * interval + interval / 2);
    }
    drop(h);
    let before = first.finish();
    assert_eq!(before.admitted_total(), 40, "first run admits everything");

    let second = QosServer::recover(cfg()).expect("recover");
    assert_eq!(
        second.metrics().recovered_admissions,
        0,
        "a cleanly finished log re-parks nothing"
    );
    let mut h = second.handle();
    for w in 20..36u64 {
        h.submit(1, w % 14, w * interval + interval / 4);
        h.submit(1, (w + 5) % 14, w * interval + interval / 2);
    }
    drop(h);
    let after = second.finish();
    assert_eq!(
        after.admitted_total(),
        72,
        "restored counters must carry across the boundary"
    );
    assert!(
        after.ledger().conserved(),
        "{}: {}",
        "combined ledger diverges across the recovery boundary",
        after.ledger().render()
    );
    let _ = std::fs::remove_dir_all(&wal_dir);
}
