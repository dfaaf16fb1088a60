//! Write-ahead durability for the serving engine.
//!
//! Every state transition the conservation law depends on — tenant
//! register/deregister, window admissions, window seals, and completion
//! settlement — is framed into an append-only, CRC-checked record log
//! before the engine acknowledges it. [`crate::QosServer::recover`]
//! replays the log (plus the latest compaction snapshot) into a state
//! where window reservations, the in-flight ledger and per-tenant
//! counters are mutually consistent and [`Ledger::conserved`] holds over
//! the durable admissions.
//!
//! # Record framing and the torn-tail rule
//!
//! Each record is `[lsn u64][len u32][crc32 u32][payload]`, little-endian,
//! with the CRC taken over `lsn || payload`. LSNs are strictly increasing
//! within the file. Replay stops at the first frame that is short, fails
//! its CRC, has a non-monotonic LSN or does not decode — the partial tail
//! a crash mid-write leaves behind — and truncates the file there. A torn
//! record was by construction never acknowledged (acknowledgement happens
//! after the buffered frame reaches the log), so discarding it never
//! loses an acked admission.
//!
//! # Fsync contract
//!
//! The userspace buffer has two levels. Every [`crate::SubmitterHandle`]
//! and every worker owns a `Stage` of its own `Admit` / `Settle` records
//! that have no place in the log yet; a *drain* takes the WAL lock once
//! and appends the whole stage — LSN, state, frame, CRC, crash point and
//! flush per record, exactly as one record at a time would have been — to
//! the shared buffer, which reaches the file (followed by one `fdatasync`)
//! every `fsync_batch` records, or immediately for the cold-path records
//! (register/deregister/seal) and on `Wal::sync_now`.
//!
//! Under load the log has one writer, the thread that seals: in the hold
//! of the WAL lock that logs `Seal(w)` it first appends its own handle's
//! stage and whatever every worker has staged (`Wal::log_seal_behind`) —
//! one hold a window, on one thread. Any stage also drains
//! * when it holds `fsync_batch` records, so with `fsync_batch = 1` it is
//!   a pass-through: nothing is ever staged when `submit` or a settle
//!   returns, and every admission is durable before its ack, as before;
//! * before every cold-path record and read (`Register`, `Deregister`,
//!   `Wal::sync_now`, `Wal::compact`, `Wal::state_snapshot`), which
//!   drain all stages: a record staged before such a call started is in
//!   the log before anything the call appends. `finish` and `halt` end
//!   with `sync_now`, so the log of a stopped server holds every
//!   admission its snapshot counts. `Wal::wal_counters` does not drain:
//!   a live `metrics()` counts a record when it reaches the log.
//!
//! A submitter's stage reaches the log when the handle raises its
//! watermark or closes, under the same hold of the dispatch lock as the
//! write that says so: that write is what lets a seal log `Seal(w)`, and
//! every `Admit(w)` has to be in the log ahead of it. It rides the first
//! such seal, or is drained on its own when a slower handle holds the
//! frontier back.
//!
//! A worker's stage reaches the log when the next seal collects it
//! (`Settle(w)` was staged after the batch that `Seal(w)` released
//! arrived, so it follows that seal whoever appends it); when the worker,
//! its queue empty for a whole linger and so no seal in sight, is about
//! to park (`Stage::drain_idle`: an idle server's log is complete one
//! linger after its last batch); and when the worker stops. Never per
//! batch.
//!
//! Larger batches amortize the fsync at the cost of losing, on a crash,
//! what was unsynced: at most `fsync_batch − 1` records *per stage* and
//! as many in the shared buffer, none of them durable when acknowledged —
//! recovery still never resurrects a record that did not reach the log.
//!
//! # Snapshot + compaction state machine
//!
//! Every `snapshot_interval` sealed windows the materialized `WalState`
//! is serialized to `wal.snapshot.tmp`, fsynced, renamed over
//! `wal.snapshot` (the atomic commit point), and only then is the log
//! truncated. A crash between rename and truncate leaves records the
//! snapshot already covers in the log; replay skips them by LSN, so the
//! sequence is idempotent. Restart cost is therefore bounded by the
//! records since the last compaction — the active window horizon — not by
//! history length.
//!
//! # Crash points
//!
//! `FQOS_CRASH_POINT=name[:N]` aborts the process at the `N`-th hit of a
//! named point ([`CRASH_POINTS`]), giving the crash suite deterministic
//! kill sites: pre-fsync append loss, a torn tail, a durable-but-unacked
//! admission, a sealed-but-undispatched window, and a half-finished
//! compaction swap.
//!
//! Lock class `engine.wal` (leaf): the internal mutex is acquired under
//! `engine.dispatch` (seal/compaction), `registry.admission`
//! (register/deregister) and `engine.stage` (a drain) and never holds
//! anything else. Lock class `engine.stage`: each stage's own mutex, taken
//! by its owner per record, by the cold paths above one stage at a time,
//! and by the sealing thread, which under `engine.dispatch` — so one
//! thread at a time — holds its handle's and then every worker's, in
//! index order, until it has the WAL lock; only `engine.wal` is acquired
//! under it.

use crate::config::WalConfig;
use crate::ledger::{Ledger, SettleKind};
use fqos_core::OverloadPolicy;
use fqos_sync::{Arc, Class, LineGap, Mutex, MutexGuard};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, Weak};

/// Largest payload a frame may carry; anything bigger is corruption.
const MAX_PAYLOAD: usize = 256;
/// Frame header: lsn (8) + len (4) + crc (4).
const FRAME_HEADER: usize = 16;
/// Snapshot file magic (8 bytes, versioned).
const SNAP_MAGIC: &[u8; 8] = b"FQWSNAP3";

/// The deterministic crash points the injection harness recognizes, in
/// log order of the operation they interrupt.
pub const CRASH_POINTS: &[&str] = &[
    "wal-append-pre-fsync",
    "wal-append-torn",
    "post-admit-pre-ack",
    "seal-mid-batch",
    "compact-mid-swap",
    "wal-write-settle",
];

static CRASH_SPEC: OnceLock<Option<(String, u64)>> = OnceLock::new();
static CRASH_HITS: AtomicU64 = AtomicU64::new(0);

fn crash_spec() -> &'static Option<(String, u64)> {
    CRASH_SPEC.get_or_init(|| {
        let spec = std::env::var("FQOS_CRASH_POINT").ok()?;
        let spec = spec.trim().to_string();
        if spec.is_empty() {
            return None;
        }
        match spec.split_once(':') {
            Some((name, nth)) => {
                let nth: u64 = nth.trim().parse().unwrap_or(1);
                Some((name.to_string(), nth.max(1)))
            }
            None => Some((spec, 1)),
        }
    })
}

/// True exactly on the armed occurrence of `point`
/// (`FQOS_CRASH_POINT=point[:N]`, `N`-th hit, 1-based). Counts every hit
/// of the armed point so `:N` lands mid-trace deterministically.
fn crash_armed(point: &str) -> bool {
    match crash_spec() {
        Some((name, nth)) if name == point => {
            CRASH_HITS.fetch_add(1, Ordering::Relaxed) + 1 == *nth
        }
        _ => false,
    }
}

/// Abort the process (no unwinding, no destructors — a real crash) when
/// `point` is armed. No-op in production (env unset).
pub(crate) fn crash_point(point: &str) {
    if crash_armed(point) {
        std::process::abort();
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum WalRecord {
    Register {
        tenant: u64,
        reserved: u64,
        policy: OverloadPolicy,
    },
    Deregister {
        tenant: u64,
    },
    Admit {
        window: u64,
        entry: OpenEntry,
    },
    Seal {
        window: u64,
    },
    Settle {
        window: u64,
        tenant: u64,
        kind: SettleKind,
    },
}

/// One admission of an as-yet-unsealed window, replayable into a fresh
/// window ring. Encoded `tenant, lbn, flags` in both the `Admit` record
/// and the snapshot's open-window list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OpenEntry {
    pub tenant: u64,
    pub lbn: u64,
    pub guaranteed: bool,
    pub delayed: bool,
    pub is_write: bool,
}

impl OpenEntry {
    fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, self.tenant);
        put_u64(out, self.lbn);
        out.push(
            u8::from(self.guaranteed) | u8::from(self.delayed) << 1 | u8::from(self.is_write) << 2,
        );
    }

    fn take(r: &mut Reader<'_>) -> Option<OpenEntry> {
        let tenant = r.take_u64()?;
        let lbn = r.take_u64()?;
        let flags = r.take_u8()?;
        (flags <= 7).then_some(OpenEntry {
            tenant,
            lbn,
            guaranteed: flags & 1 == 1,
            delayed: flags & 2 == 2,
            is_write: flags & 4 == 4,
        })
    }
}

/// Per-tenant durable state: the registration, the tenant's ledger and
/// its delayed count (durable but not a law term; rejected/violations/
/// delay totals are telemetry and deliberately non-durable).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct TenantState {
    pub reserved: u64,
    pub policy: u8,
    pub live: bool,
    pub ledger: Ledger,
    pub delayed: u64,
}

/// The state a full replay of the log materializes: the array's ledger,
/// the admissions of still-open windows, and the unsettled residue of
/// sealed windows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct WalState {
    /// Highest LSN folded into this state (0 = none).
    pub last_lsn: u64,
    /// All windows `< sealed_through` carry a durable seal record.
    pub sealed_through: u64,
    pub ledger: Ledger,
    pub delayed: u64,
    pub tenants: BTreeMap<u64, TenantState>,
    /// Admissions of windows without a seal record, in admission order.
    pub open: BTreeMap<u64, Vec<OpenEntry>>,
    /// Sealed windows' unsettled admissions: window → tenant → read/write
    /// counts. Non-empty at recovery = dispatches a crash stranded
    /// (crash-lost; stranded writes resolve to `write_lost`).
    pub pending: BTreeMap<u64, BTreeMap<u64, PendingCounts>>,
    /// Records that violated the durable-order contract (a settle without
    /// a durable sealed admission, an admit into a sealed window, …).
    /// Invariantly zero; the model suite asserts it on every schedule.
    pub misordered: u64,
}

/// Unsettled sealed admissions of one `(window, tenant)`, split by class:
/// a read settles `Served`/`HedgeWin`/`Lost`, a logical write settles
/// `WriteSettled`/`WriteLost` — the split keeps a crash resolution able to
/// charge stranded writes to `write_lost` rather than `fault_lost`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PendingCounts {
    pub reads: u64,
    pub writes: u64,
}

impl PendingCounts {
    fn is_empty(self) -> bool {
        self.reads == 0 && self.writes == 0
    }
}

impl WalState {
    fn apply_record(&mut self, rec: &WalRecord) {
        match *rec {
            WalRecord::Register {
                tenant,
                reserved,
                policy,
            } => {
                // A re-registered id is a fresh serving epoch: counters
                // restart (matching the registry's semantics).
                self.tenants.insert(
                    tenant,
                    TenantState {
                        reserved,
                        policy: encode_policy(policy),
                        live: true,
                        ..TenantState::default()
                    },
                );
            }
            WalRecord::Deregister { tenant } => match self.tenants.get_mut(&tenant) {
                Some(t) => t.live = false,
                None => self.misordered += 1,
            },
            WalRecord::Admit { window, entry } => {
                let OpenEntry {
                    tenant,
                    guaranteed,
                    delayed,
                    ..
                } = entry;
                let Some(t) = self.tenants.get_mut(&tenant) else {
                    // An admit must follow its tenant's durable register.
                    self.misordered += 1;
                    return;
                };
                self.ledger.admit(guaranteed);
                t.ledger.admit(guaranteed);
                if guaranteed && delayed {
                    t.delayed += 1;
                    self.delayed += 1;
                }
                if window < self.sealed_through {
                    // The watermark protocol orders every admit before its
                    // window's seal; seeing the reverse is a durability
                    // ordering bug.
                    self.misordered += 1;
                }
                self.open.entry(window).or_default().push(entry);
            }
            WalRecord::Seal { window } => {
                if window < self.sealed_through {
                    self.misordered += 1; // double seal
                }
                self.sealed_through = self.sealed_through.max(window + 1);
                if let Some(entries) = self.open.remove(&window) {
                    let per_tenant = self.pending.entry(window).or_default();
                    for e in entries {
                        let counts = per_tenant.entry(e.tenant).or_default();
                        if e.is_write {
                            counts.writes += 1;
                        } else {
                            counts.reads += 1;
                        }
                    }
                }
            }
            WalRecord::Settle {
                window,
                tenant,
                kind,
            } => {
                // A settlement is only legal against a durable, sealed,
                // not-yet-exhausted admission of (window, tenant) — of the
                // matching class (a write settle cannot consume a read
                // admission, or vice versa).
                let wants_write = kind.is_write();
                let matched = match self.pending.get_mut(&window) {
                    Some(per_tenant) => match per_tenant.get_mut(&tenant) {
                        Some(counts) => {
                            let n = if wants_write {
                                &mut counts.writes
                            } else {
                                &mut counts.reads
                            };
                            if *n > 0 {
                                *n -= 1;
                                if counts.is_empty() {
                                    per_tenant.remove(&tenant);
                                }
                                true
                            } else {
                                false
                            }
                        }
                        None => false,
                    },
                    None => false,
                };
                if !matched {
                    self.misordered += 1;
                    return;
                }
                if self
                    .pending
                    .get(&window)
                    .is_some_and(std::collections::BTreeMap::is_empty)
                {
                    self.pending.remove(&window);
                }
                self.settle(tenant, kind);
            }
        }
    }

    /// Settle one durable admission of `tenant` as `kind`, in the array's
    /// ledger and the tenant's. Every state a tenant has admitted from
    /// keeps its record (deregistration only flags it), so a missing one
    /// is a durable-order violation.
    fn settle(&mut self, tenant: u64, kind: SettleKind) {
        self.ledger.settle(kind);
        match self.tenants.get_mut(&tenant) {
            Some(t) => t.ledger.settle(kind),
            None => self.misordered += 1,
        }
    }
}

fn encode_policy(p: OverloadPolicy) -> u8 {
    match p {
        OverloadPolicy::Delay => 0,
        OverloadPolicy::Reject => 1,
    }
}

pub(crate) fn decode_policy(p: u8) -> OverloadPolicy {
    if p == 1 {
        OverloadPolicy::Reject
    } else {
        OverloadPolicy::Delay
    }
}

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) look-up tables for
/// slice-by-8: `CRC_TABLES[0]` holds the remainder of every byte value,
/// `CRC_TABLES[k]` that of the same byte followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected), eight bytes per step. A durable log is
/// fsync-bound, but a frame is checksummed under the WAL mutex the
/// submitter and the workers share, and on a memory or batched backing the
/// checksum is the largest part of that hold: one look-up per byte was 46
/// of the ≈ 100 ns a record costs single-threaded, this is ≈ 10. (Under
/// the per-record hand-off the 8 KiB of tables measured no end-to-end gain
/// — the hold was not what the two sides waited for; DESIGN.md, "Group
/// commit on both sides".)
fn crc32(seed: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !seed;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][usize::from(crc as u8 ^ b)];
    }
    !crc
}

fn frame_crc(lsn: u64, payload: &[u8]) -> u32 {
    crc32(crc32(0, &lsn.to_le_bytes()), payload)
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn encode_payload(rec: &WalRecord, out: &mut Vec<u8>) {
    match *rec {
        WalRecord::Register {
            tenant,
            reserved,
            policy,
        } => {
            out.push(1);
            put_u64(out, tenant);
            put_u64(out, reserved);
            out.push(encode_policy(policy));
        }
        WalRecord::Deregister { tenant } => {
            out.push(2);
            put_u64(out, tenant);
        }
        WalRecord::Admit { window, entry } => {
            out.push(3);
            put_u64(out, window);
            entry.put(out);
        }
        WalRecord::Seal { window } => {
            out.push(4);
            put_u64(out, window);
        }
        WalRecord::Settle {
            window,
            tenant,
            kind,
        } => {
            out.push(5);
            put_u64(out, window);
            put_u64(out, tenant);
            out.push(kind as u8);
        }
    }
}

/// Bounds-checked little-endian cursor for payload and snapshot decoding:
/// each `take_*` splits its bytes off the front.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take_u8(&mut self) -> Option<u8> {
        let (&b, rest) = self.0.split_first()?;
        self.0 = rest;
        Some(b)
    }

    fn take_u64(&mut self) -> Option<u64> {
        let chunk = self.0.get(..8)?;
        let v = u64::from_le_bytes(chunk.try_into().ok()?);
        self.0 = &self.0[8..];
        Some(v)
    }

    fn exhausted(&self) -> bool {
        self.0.is_empty()
    }
}

fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let mut r = Reader(payload);
    let rec = match r.take_u8()? {
        1 => WalRecord::Register {
            tenant: r.take_u64()?,
            reserved: r.take_u64()?,
            policy: match r.take_u8()? {
                0 => OverloadPolicy::Delay,
                1 => OverloadPolicy::Reject,
                _ => return None,
            },
        },
        2 => WalRecord::Deregister {
            tenant: r.take_u64()?,
        },
        3 => WalRecord::Admit {
            window: r.take_u64()?,
            entry: OpenEntry::take(&mut r)?,
        },
        4 => WalRecord::Seal {
            window: r.take_u64()?,
        },
        5 => WalRecord::Settle {
            window: r.take_u64()?,
            tenant: r.take_u64()?,
            kind: SettleKind::from_code(r.take_u8()?)?,
        },
        _ => return None,
    };
    r.exhausted().then_some(rec)
}

fn encode_state(state: &WalState) -> Vec<u8> {
    let mut body = Vec::with_capacity(256);
    put_u64(&mut body, state.last_lsn);
    put_u64(&mut body, state.sealed_through);
    state.ledger.put(&mut body);
    put_u64(&mut body, state.delayed);
    put_u64(&mut body, state.misordered);
    put_u64(&mut body, state.tenants.len() as u64);
    for (&id, t) in &state.tenants {
        put_u64(&mut body, id);
        put_u64(&mut body, t.reserved);
        body.push(t.policy);
        body.push(u8::from(t.live));
        t.ledger.put(&mut body);
        put_u64(&mut body, t.delayed);
    }
    put_u64(&mut body, state.open.len() as u64);
    for (&w, entries) in &state.open {
        put_u64(&mut body, w);
        put_u64(&mut body, entries.len() as u64);
        for e in entries {
            e.put(&mut body);
        }
    }
    put_u64(&mut body, state.pending.len() as u64);
    for (&w, per_tenant) in &state.pending {
        put_u64(&mut body, w);
        put_u64(&mut body, per_tenant.len() as u64);
        for (&t, &n) in per_tenant {
            put_u64(&mut body, t);
            put_u64(&mut body, n.reads);
            put_u64(&mut body, n.writes);
        }
    }
    let mut out = Vec::with_capacity(body.len() + 12);
    out.extend_from_slice(SNAP_MAGIC);
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc32(0, &body).to_le_bytes());
    out
}

fn decode_state(bytes: &[u8]) -> Option<WalState> {
    let body = bytes.strip_prefix(SNAP_MAGIC.as_slice())?;
    if body.len() < 4 {
        return None;
    }
    let (body, crc_bytes) = body.split_at(body.len() - 4);
    let expect = u32::from_le_bytes(crc_bytes.try_into().ok()?);
    if crc32(0, body) != expect {
        return None;
    }
    let mut r = Reader(body);
    let mut state = WalState {
        last_lsn: r.take_u64()?,
        sealed_through: r.take_u64()?,
        ledger: Ledger::take(&mut r.0)?,
        delayed: r.take_u64()?,
        misordered: r.take_u64()?,
        ..WalState::default()
    };
    for _ in 0..r.take_u64()? {
        let id = r.take_u64()?;
        let reserved = r.take_u64()?;
        let policy = r.take_u8()?;
        let live = r.take_u8()? == 1;
        let ledger = Ledger::take(&mut r.0)?;
        let delayed = r.take_u64()?;
        state.tenants.insert(
            id,
            TenantState {
                reserved,
                policy,
                live,
                ledger,
                delayed,
            },
        );
    }
    for _ in 0..r.take_u64()? {
        let w = r.take_u64()?;
        let n = r.take_u64()?;
        let mut entries = Vec::new();
        for _ in 0..n {
            entries.push(OpenEntry::take(&mut r)?);
        }
        state.open.insert(w, entries);
    }
    for _ in 0..r.take_u64()? {
        let w = r.take_u64()?;
        let n = r.take_u64()?;
        let mut per_tenant = BTreeMap::new();
        for _ in 0..n {
            let t = r.take_u64()?;
            let reads = r.take_u64()?;
            let writes = r.take_u64()?;
            per_tenant.insert(t, PendingCounts { reads, writes });
        }
        state.pending.insert(w, per_tenant);
    }
    r.exhausted().then_some(state)
}

enum Backing {
    File {
        log: File,
        dir: PathBuf,
    },
    /// In-memory log for unit and model-check tests: same framing and
    /// ordering checks, no filesystem nondeterminism in the schedule
    /// space.
    Memory {
        log: Vec<u8>,
    },
}

struct WalInner {
    backing: Backing,
    /// Framed records not yet handed to the backing (lost on a crash —
    /// this models the pre-fsync window; an OS page-cache write would
    /// survive an abort and hide it).
    buf: Vec<u8>,
    /// Records currently in `buf`.
    pending_records: u64,
    next_lsn: u64,
    state: WalState,
    records: u64,
    fsyncs: u64,
    compactions: u64,
    seals_since_compact: u64,
    /// Backing I/O failures (sticky count). The engine keeps serving with
    /// durability degraded rather than unwinding under a lock; the audit
    /// surfaces the count.
    io_errors: u64,
    /// Every handle's stage handed out and not yet dropped, so that a
    /// cold-path append can drain them first (the workers' are in
    /// [`Wal::workers`]).
    stages: Vec<Weak<StageBuf>>,
    /// One empty buffer per worker stage, `fsync_batch` records each: a
    /// seal swaps it for what the worker has staged
    /// ([`Wal::lock_behind_workers`]).
    spares: Vec<Vec<WalRecord>>,
}

/// The records of one [`Stage`], shared with the log that drains it.
type StageBuf = Mutex<Vec<WalRecord>>;

/// One thread's not-yet-logged `Admit` / `Settle` records: every
/// [`crate::SubmitterHandle`] and every worker owns one and appends to it
/// per record; they reach the log under one hold of the WAL lock (see
/// "Fsync contract" in the module docs). The mutex (lock class
/// `engine.stage`, ordered just before `engine.wal`) is there for whoever
/// else drains the stage — the cold paths, and for a worker's the thread
/// that seals — and is held until the draining thread holds the log: a
/// record is found staged or, once the finder has the WAL lock, logged.
pub(crate) struct Stage {
    wal: Arc<Wal>,
    /// [`Wal::batch`], copied: a record staged touches the stage alone.
    batch: u64,
    staged: Arc<StageBuf>,
}

impl Stage {
    /// Stage one admission.
    pub fn log_admit(&self, window: u64, entry: OpenEntry) {
        self.hold(WalRecord::Admit { window, entry });
    }

    /// Stage one settlement; [`Wal::log_settle`] is the unstaged twin.
    pub fn log_settle(&self, window: u64, tenant: u64, kind: SettleKind) {
        settle_crash_point(kind);
        self.hold(WalRecord::Settle {
            window,
            tenant,
            kind,
        });
    }

    /// A stage never holds `fsync_batch` records, so with `fsync_batch = 1`
    /// it never holds any: the record is in the log, and flushed, when
    /// this returns.
    fn hold(&self, rec: WalRecord) {
        let mut staged = self.staged.lock();
        staged.push(rec);
        if staged.len() as u64 >= self.batch {
            #[cfg(test)]
            self.wal.tally(tests::THRESHOLD_DRAIN);
            self.wal.append_staged(&mut staged);
        }
    }

    /// Records staged and not yet in the log.
    #[cfg(test)]
    pub fn staged_records(&self) -> usize {
        self.staged.lock().len()
    }

    /// Append everything staged to the log, in staging order.
    pub fn drain(&self) {
        self.wal.append_staged(&mut self.staged.lock());
    }

    /// [`Stage::drain`] for a worker about to park: no seal is in sight to
    /// collect what it staged.
    pub fn drain_idle(&self) {
        #[cfg(test)]
        let holds = self.wal.tallied_here();
        self.drain();
        #[cfg(test)]
        if self.wal.tallied_here() > holds {
            self.wal.tally(tests::IDLE_DRAIN);
        }
    }
}

/// Live counter view for [`crate::MetricsSnapshot`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WalCounters {
    pub records: u64,
    pub fsyncs: u64,
    pub compactions: u64,
    pub misordered: u64,
    pub io_errors: u64,
}

/// What [`Wal::resume`] found on disk.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ReplayReport {
    /// Log records folded into the state (excludes snapshot-covered ones).
    pub records: u64,
    /// A torn tail was discarded and the log truncated at the last whole
    /// record.
    pub torn: bool,
    /// A compaction snapshot seeded the state.
    pub snapshot: bool,
}

/// The write-ahead log: a mutex-serialized appender over a file (or
/// in-memory) backing plus the continuously materialized [`WalState`].
/// What is fixed at construction lies a gap ahead of the mutex, whose
/// words the sealing thread writes for the length of every hold
/// (`layout_keeps_the_fixed_words_off_the_lines_a_hold_writes`).
#[repr(C)]
pub(crate) struct Wal {
    batch: u64,
    snapshot_every: u64,
    /// The workers' stages by worker index, fixed before the first
    /// request ([`Wal::with_worker_stages`]) and so read without a lock.
    workers: Vec<Arc<StageBuf>>,
    _gap: LineGap,
    wal: Mutex<WalInner>,
    #[cfg(test)]
    tally: Mutex<BTreeMap<String, u64>>,
}

impl Wal {
    /// Start a fresh log epoch, discarding any previous log/snapshot in
    /// the directory (use [`Wal::resume`] to continue one).
    pub fn create(cfg: &WalConfig) -> Result<Self, String> {
        let backing = match &cfg.dir {
            None => Backing::Memory { log: Vec::new() },
            Some(dir) => {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("wal dir {}: {e}", dir.display()))?;
                for stale in ["wal.snapshot", "wal.snapshot.tmp"] {
                    let _ = std::fs::remove_file(dir.join(stale));
                }
                let log = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(dir.join("wal.log"))
                    .map_err(|e| format!("wal log {}: {e}", dir.display()))?;
                Backing::File {
                    log,
                    dir: dir.clone(),
                }
            }
        };
        Ok(Self::with_backing(cfg, backing, WalState::default(), 1))
    }

    /// Reopen an existing log directory: load the snapshot (if any),
    /// replay the log tail, truncate a torn final record, and leave the
    /// log positioned for appending.
    pub fn resume(cfg: &WalConfig) -> Result<(Self, ReplayReport), String> {
        let Some(dir) = &cfg.dir else {
            // The memory backing persists nothing: resuming it is a fresh
            // epoch by definition.
            return Ok((Self::create(cfg)?, ReplayReport::default()));
        };
        std::fs::create_dir_all(dir).map_err(|e| format!("wal dir {}: {e}", dir.display()))?;
        let mut report = ReplayReport::default();
        let mut state = WalState::default();
        let snap_path = dir.join("wal.snapshot");
        if snap_path.exists() {
            let bytes = std::fs::read(&snap_path)
                .map_err(|e| format!("wal snapshot {}: {e}", snap_path.display()))?;
            // The published snapshot is fsynced before its rename commits
            // it, so it is either absent or whole; failing its CRC means
            // real corruption, which recovery must surface, not mask.
            state = decode_state(&bytes).ok_or_else(|| {
                format!(
                    "unreadable WAL snapshot {} (corrupt, or not the {} layout)",
                    snap_path.display(),
                    String::from_utf8_lossy(SNAP_MAGIC)
                )
            })?;
            report.snapshot = true;
        }
        let mut log = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join("wal.log"))
            .map_err(|e| format!("wal log {}: {e}", dir.display()))?;
        let mut bytes = Vec::new();
        log.read_to_end(&mut bytes)
            .map_err(|e| format!("wal log read: {e}"))?;
        let mut off = 0usize;
        let mut prev_lsn = 0u64;
        let mut max_lsn = state.last_lsn;
        while off + FRAME_HEADER <= bytes.len() {
            let lsn = u64::from_le_bytes(bytes[off..off + 8].try_into().map_err(|_| "frame")?);
            let len = u32::from_le_bytes(bytes[off + 8..off + 12].try_into().map_err(|_| "frame")?)
                as usize;
            let crc =
                u32::from_le_bytes(bytes[off + 12..off + 16].try_into().map_err(|_| "frame")?);
            if len == 0 || len > MAX_PAYLOAD || off + FRAME_HEADER + len > bytes.len() {
                break; // short or absurd frame: torn tail
            }
            let payload = &bytes[off + FRAME_HEADER..off + FRAME_HEADER + len];
            if frame_crc(lsn, payload) != crc || lsn <= prev_lsn {
                break;
            }
            let Some(rec) = decode_payload(payload) else {
                break;
            };
            prev_lsn = lsn;
            off += FRAME_HEADER + len;
            // Skip records the snapshot already covers (a crash between
            // the snapshot rename and the log truncate leaves them here).
            if lsn > state.last_lsn {
                state.apply_record(&rec);
                state.last_lsn = lsn;
                report.records += 1;
            }
            max_lsn = max_lsn.max(lsn);
        }
        if off < bytes.len() {
            report.torn = true;
            log.set_len(off as u64)
                .map_err(|e| format!("wal truncate: {e}"))?;
        }
        log.seek(SeekFrom::Start(off as u64))
            .map_err(|e| format!("wal seek: {e}"))?;
        let wal = Self::with_backing(
            cfg,
            Backing::File {
                log,
                dir: dir.clone(),
            },
            state,
            max_lsn + 1,
        );
        Ok((wal, report))
    }

    fn with_backing(cfg: &WalConfig, backing: Backing, state: WalState, next_lsn: u64) -> Self {
        Wal {
            wal: Mutex::new(
                Class::EngineWal,
                WalInner {
                    backing,
                    buf: Vec::new(),
                    pending_records: 0,
                    next_lsn,
                    state,
                    records: 0,
                    fsyncs: 0,
                    compactions: 0,
                    seals_since_compact: 0,
                    io_errors: 0,
                    stages: Vec::new(),
                    spares: Vec::new(),
                },
            ),
            batch: cfg.fsync_batch.max(1),
            snapshot_every: cfg.snapshot_interval.max(1),
            workers: Vec::new(),
            _gap: LineGap::default(),
            #[cfg(test)]
            tally: Mutex::new(Class::WalTally, BTreeMap::new()),
        }
    }

    /// Give the log its `workers` worker stages ([`Wal::worker_stage`])
    /// and a spare for each. Both sides of a swap hold `fsync_batch`
    /// records, which no stage reaches: no worker allocates to stage one.
    pub fn with_worker_stages(mut self, workers: usize) -> Self {
        let batch = self.batch as usize;
        let buffers = || (0..workers).map(|_| Vec::with_capacity(batch));
        self.workers = buffers()
            .map(|b| Arc::new(Mutex::new(Class::EngineStage, b)))
            .collect();
        self.wal.lock().spares = buffers().collect();
        self
    }

    /// The WAL lock. Every hold starts here, which is where the tests
    /// count them (`tests::tally`).
    fn locked(&self) -> MutexGuard<'_, WalInner> {
        #[cfg(test)]
        self.tally(std::thread::current().name().unwrap_or("unnamed"));
        self.wal.lock()
    }

    fn push_record(&self, rec: &WalRecord, force_sync: bool, pre_fsync_point: bool) {
        let mut g = self.locked();
        self.push_locked(&mut g, rec, force_sync, pre_fsync_point);
    }

    /// Append one record under the caller's hold of the WAL lock.
    fn push_locked(
        &self,
        g: &mut WalInner,
        rec: &WalRecord,
        force_sync: bool,
        pre_fsync_point: bool,
    ) {
        let lsn = g.next_lsn;
        g.next_lsn += 1;
        g.state.apply_record(rec);
        g.state.last_lsn = lsn;
        // Encode in place: the payload goes straight into `buf` behind a
        // header whose `len` and `crc` are patched in once it is there.
        let frame = g.buf.len();
        put_u64(&mut g.buf, lsn);
        g.buf.extend_from_slice(&[0; FRAME_HEADER - 8]);
        encode_payload(rec, &mut g.buf);
        let payload = &g.buf[frame + FRAME_HEADER..];
        debug_assert!(
            payload.len() <= MAX_PAYLOAD,
            "every record is a tag and at most three fixed-width fields"
        );
        let len = payload.len() as u32;
        let crc = frame_crc(lsn, payload);
        g.buf[frame + 8..frame + 12].copy_from_slice(&len.to_le_bytes());
        g.buf[frame + 12..frame + FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
        g.pending_records += 1;
        g.records += 1;
        if pre_fsync_point {
            // The record exists only in the userspace buffer here: an
            // abort loses it, exactly the pre-fsync crash window.
            crash_point("wal-append-pre-fsync");
        }
        if (force_sync || g.pending_records >= self.batch) && flush_inner(g).is_err() {
            g.io_errors += 1;
        }
    }

    /// A new, empty stage for one submitter handle.
    pub fn stage(self: &Arc<Self>) -> Stage {
        let staged = Arc::new(Mutex::new(Class::EngineStage, Vec::new()));
        let mut g = self.locked();
        g.stages.retain(|s| s.strong_count() > 0);
        g.stages.push(Arc::downgrade(&staged));
        drop(g);
        Stage {
            wal: Arc::clone(self),
            batch: self.batch,
            staged,
        }
    }

    /// The stage of worker `worker`, which every seal collects.
    pub fn worker_stage(self: &Arc<Self>, worker: usize) -> Stage {
        Stage {
            wal: Arc::clone(self),
            batch: self.batch,
            staged: Arc::clone(&self.workers[worker]),
        }
    }

    /// Append `staged` under one hold of the WAL lock, each record exactly
    /// as [`Wal::push_record`] would have appended it.
    fn append_staged(&self, staged: &mut Vec<WalRecord>) {
        if !staged.is_empty() {
            self.append_staged_locked(&mut self.locked(), staged);
        }
    }

    fn append_staged_locked(&self, g: &mut WalInner, staged: &mut Vec<WalRecord>) {
        for rec in staged.iter() {
            let is_admit = matches!(rec, WalRecord::Admit { .. });
            self.push_locked(g, rec, false, is_admit);
        }
        staged.clear();
    }

    /// Drain every stage. What the cold paths do before they append or
    /// read: a record staged before the call started is in the log before
    /// anything the caller appends.
    pub fn drain_stages(&self) {
        let handles: Vec<Arc<StageBuf>> = {
            let g = self.locked();
            g.stages.iter().filter_map(Weak::upgrade).collect()
        };
        for staged in self.workers.iter().chain(&handles) {
            self.append_staged(&mut staged.lock());
        }
    }

    /// Log a tenant registration (durable before the registry publishes
    /// the record, so a durable admit can never precede its register).
    /// Every stage is drained first: `register` has seen the departed
    /// record's ledger settled, so each of those settles is staged, and
    /// must reach the log before the `Register` that restarts the id's
    /// durable ledger.
    pub fn log_register(&self, tenant: u64, reserved: usize, policy: OverloadPolicy) {
        self.drain_stages();
        self.push_record(
            &WalRecord::Register {
                tenant,
                reserved: reserved as u64,
                policy,
            },
            true,
            false,
        );
    }

    /// Log a tenant departure (reservation freed; record drains).
    pub fn log_deregister(&self, tenant: u64) {
        self.drain_stages();
        self.push_record(&WalRecord::Deregister { tenant }, true, false);
    }

    /// Log a window seal (force-synced: the seal is the boundary after
    /// which an unsettled admission becomes crash-lost) and run the
    /// compaction cadence, under one hold of the lock — the one hold of a
    /// window: ahead of the seal go the sealing handle's stage, if it is
    /// `riding`, and then, by worker, what [`Wal::lock_behind_workers`]
    /// left in the spares. Only ever called under `engine.dispatch`, which
    /// is what makes the sealing thread the one thread that holds several
    /// stages at once.
    pub fn log_seal_behind(&self, window: u64, riding: Option<&Stage>) {
        let mut staged = riding.map(|stage| stage.staged.lock());
        let mut g = self.lock_behind_workers(0);
        if let Some(staged) = staged.as_deref_mut() {
            self.append_staged_locked(&mut g, staged);
        }
        for worker in 0..g.spares.len() {
            let mut collected = std::mem::take(&mut g.spares[worker]);
            self.append_staged_locked(&mut g, &mut collected);
            g.spares[worker] = collected;
        }
        self.push_locked(&mut g, &WalRecord::Seal { window }, true, false);
        g.seals_since_compact += 1;
        if g.seals_since_compact >= self.snapshot_every {
            compact_counted(&mut g);
        }
    }

    /// Take the WAL lock with the stages of workers `from..` locked, in
    /// index order, until it is held, and leave what each had staged in its
    /// spare: a worker waits for a swap, not for the append. One frame per
    /// worker holds that worker's guard.
    fn lock_behind_workers(&self, from: usize) -> MutexGuard<'_, WalInner> {
        if from == self.workers.len() {
            return self.locked();
        }
        let staged = &self.workers[from];
        let mut records = staged.lock();
        let mut g = self.lock_behind_workers(from + 1);
        std::mem::swap(&mut *records, &mut g.spares[from]);
        g
    }

    /// Log one settlement (batched; a settle is re-derivable as
    /// crash-lost, so it does not need per-record durability).
    pub fn log_settle(&self, window: u64, tenant: u64, kind: SettleKind) {
        settle_crash_point(kind);
        self.push_record(
            &WalRecord::Settle {
                window,
                tenant,
                kind,
            },
            false,
            false,
        );
    }

    /// Drain every stage, then flush and fsync everything buffered.
    pub fn sync_now(&self) {
        self.drain_stages();
        let mut g = self.locked();
        if flush_inner(&mut g).is_err() {
            g.io_errors += 1;
        }
    }

    /// Force a snapshot + log truncation now (recovery calls this so the
    /// next restart replays only post-recovery records).
    pub fn compact(&self) {
        self.drain_stages();
        let mut g = self.locked();
        compact_counted(&mut g);
    }

    /// Convert every sealed-but-unsettled admission into a durable-state
    /// loss (the dispatches a crash stranded). Returns how many. Called
    /// once by recovery, after replay and before the engine restores;
    /// idempotent across repeated recoveries because the resolution
    /// re-derives from the same pending set.
    pub fn resolve_crash_losses(&self) -> u64 {
        let mut g = self.locked();
        let state = &mut g.state;
        let mut stranded = 0u64;
        for per_tenant in std::mem::take(&mut state.pending).into_values() {
            for (tenant, n) in per_tenant {
                for (kind, count) in [
                    (SettleKind::Lost, n.reads),
                    (SettleKind::WriteLost, n.writes),
                ] {
                    for _ in 0..count {
                        state.settle(tenant, kind);
                    }
                    stranded += count;
                }
            }
        }
        stranded
    }

    /// Drop one open-window admission that could not be re-parked at
    /// recovery and account it lost (a write to `write_lost`), keeping the
    /// materialized state in step with the engine's books.
    pub fn forfeit_open(&self, window: u64, tenant: u64, is_write: bool) {
        let mut g = self.locked();
        let state = &mut g.state;
        let mut hit = false;
        let mut emptied = false;
        if let Some(entries) = state.open.get_mut(&window) {
            if let Some(i) = entries
                .iter()
                .position(|e| e.tenant == tenant && e.is_write == is_write)
            {
                entries.remove(i);
                hit = true;
            }
            emptied = entries.is_empty();
        }
        if hit {
            let kind = if is_write {
                SettleKind::WriteLost
            } else {
                SettleKind::Lost
            };
            state.settle(tenant, kind);
        }
        if emptied {
            state.open.remove(&window);
        }
    }

    /// Clone of the materialized state, staged records included (recovery
    /// seed; tests).
    pub fn state_snapshot(&self) -> WalState {
        self.drain_stages();
        self.locked().state.clone()
    }

    /// Live counters for the metrics snapshot.
    pub fn wal_counters(&self) -> WalCounters {
        let g = self.locked();
        WalCounters {
            records: g.records,
            fsyncs: g.fsyncs,
            compactions: g.compactions,
            misordered: g.state.misordered,
            io_errors: g.io_errors,
        }
    }
}

/// Kill site between the last copy of a write landing and its settle
/// record: recovery must resolve the write as crash-lost.
fn settle_crash_point(kind: SettleKind) {
    if kind.is_write() {
        crash_point("wal-write-settle");
    }
}

fn flush_inner(inner: &mut WalInner) -> std::io::Result<()> {
    if inner.buf.is_empty() {
        return Ok(());
    }
    if crash_armed("wal-append-torn") {
        // Persist all but the tail 6 bytes — cutting inside the final
        // record's frame — then die: recovery must discard exactly the
        // torn record and keep every whole one before it.
        let cut = inner.buf.len().saturating_sub(6);
        if let Backing::File { log, .. } = &mut inner.backing {
            let _ = log.write_all(&inner.buf[..cut]);
            fqos_sync::blocking("fsync");
            let _ = log.sync_data();
        }
        std::process::abort();
    }
    match &mut inner.backing {
        Backing::File { log, .. } => {
            log.write_all(&inner.buf)?;
            fqos_sync::blocking("fsync");
            log.sync_data()?;
        }
        Backing::Memory { log } => log.extend_from_slice(&inner.buf),
    }
    inner.buf.clear();
    inner.pending_records = 0;
    inner.fsyncs += 1;
    Ok(())
}

/// Compact now and restart the cadence; a failure is counted, not raised.
fn compact_counted(inner: &mut WalInner) {
    inner.seals_since_compact = 0;
    if compact_inner(inner).is_err() {
        inner.io_errors += 1;
    } else {
        inner.compactions += 1;
    }
}

fn compact_inner(inner: &mut WalInner) -> std::io::Result<()> {
    flush_inner(inner)?;
    match &mut inner.backing {
        Backing::Memory { log } => {
            // The materialized state *is* the snapshot; the log bytes are
            // now redundant.
            log.clear();
            Ok(())
        }
        Backing::File { log, dir } => {
            let tmp = dir.join("wal.snapshot.tmp");
            let snap = dir.join("wal.snapshot");
            {
                let mut f = File::create(&tmp)?;
                f.write_all(&encode_state(&inner.state))?;
                fqos_sync::blocking("fsync");
                f.sync_data()?;
            }
            // The rename is the commit point: before it the old snapshot
            // (or none) plus the full log recover the same state; after
            // it the new snapshot subsumes the log by LSN.
            std::fs::rename(&tmp, &snap)?;
            if let Ok(d) = File::open(dir.as_path()) {
                fqos_sync::blocking("fsync");
                let _ = d.sync_all();
            }
            crash_point("compact-mid-swap");
            log.set_len(0)?;
            log.seek(SeekFrom::Start(0))?;
            Ok(())
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// [`Wal::tally`] events: the two ways a stage's owner takes the WAL
    /// lock between seals (a third, [`Stage::drain`], is for when it stops).
    pub(crate) const THRESHOLD_DRAIN: &str = "a stage reached fsync_batch";
    pub(crate) const IDLE_DRAIN: &str = "a parking worker had records staged";

    /// Who takes the WAL lock, by count: the shape of the channel's
    /// `WAKES`, kept per log and by thread *name* because the thread that
    /// asks is the test's, not the worker the engine spawned.
    impl Wal {
        /// Count one `event`: a hold of the lock, under the name of the
        /// thread that took it, or one of the events above.
        pub(crate) fn tally(&self, event: &str) {
            *self.tally.lock().entry(event.into()).or_default() += 1;
        }

        pub(crate) fn tallied(&self, event: &str) -> u64 {
            self.tally.lock().get(event).copied().unwrap_or(0)
        }

        /// Holds of the lock the calling thread has taken.
        pub(crate) fn tallied_here(&self) -> u64 {
            self.tallied(std::thread::current().name().unwrap_or("unnamed"))
        }
    }

    fn mem_cfg() -> WalConfig {
        WalConfig {
            dir: None,
            fsync_batch: 1,
            snapshot_interval: 64,
        }
    }

    fn dir_cfg(dir: &std::path::Path, batch: u64) -> WalConfig {
        WalConfig {
            dir: Some(dir.to_path_buf()),
            fsync_batch: batch,
            snapshot_interval: 64,
        }
    }

    /// A fresh log over `cfg` and a submitter handle's stage on it. At
    /// `fsync_batch = 1` the stage is a pass-through: every record staged
    /// is in the log, flushed, when the call returns.
    fn log_and_stage(cfg: &WalConfig) -> (Arc<Wal>, Stage) {
        let wal = Arc::new(Wal::create(cfg).unwrap());
        let stage = wal.stage();
        (wal, stage)
    }

    /// Stage one admission, field by field.
    fn admit(
        stage: &Stage,
        window: u64,
        tenant: u64,
        lbn: u64,
        guaranteed: bool,
        delayed: bool,
        is_write: bool,
    ) {
        let entry = OpenEntry {
            tenant,
            lbn,
            guaranteed,
            delayed,
            is_write,
        };
        stage.log_admit(window, entry);
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "fqos-wal-{tag}-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn layout_keeps_the_fixed_words_off_the_lines_a_hold_writes() {
        use crate::layout::{assert_one_side_per_line, span, Side};
        let log = Wal::create(&mem_cfg()).unwrap().with_worker_stages(2);
        let Wal {
            batch,
            snapshot_every,
            workers,
            _gap,
            wal,
            tally,
        } = &log;
        let spans = vec![
            span("batch", batch, Side::ReadMostly),
            span("snapshot_every", snapshot_every, Side::ReadMostly),
            span("workers", workers, Side::ReadMostly),
            span("_gap", _gap, Side::Gap),
            // The lock word and everything behind it: the sealing thread
            // writes them for the length of every hold.
            span("wal", wal, Side::Submitter),
            span("tally", tally, Side::Gap), // tests only
        ];
        assert_one_side_per_line(&log, spans);
    }

    #[test]
    fn crc32_check_vector() {
        // CRC-32/ISO-HDLC of "123456789".
        assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
    }

    /// The bit-at-a-time CRC the log was written with up to PR 16.
    fn crc32_bitwise(seed: u32, bytes: &[u8]) -> u32 {
        let mut crc = !seed;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn table_crc_equals_the_bitwise_reference() {
        use rand::{Rng, RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC5C32);
        for _ in 0..4000 {
            let len = rng.gen_range(0..=300usize);
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect();
            let seed = rng.next_u32();
            assert_eq!(
                crc32(seed, &bytes),
                crc32_bitwise(seed, &bytes),
                "{bytes:?}"
            );
        }
    }

    #[test]
    fn log_frames_are_byte_identical_to_pr_16() {
        // A fixed sequence that uses every record type, every flag and
        // every settle kind.
        let (wal, stage) = log_and_stage(&WalConfig {
            dir: None,
            fsync_batch: 4,
            snapshot_interval: 1 << 20, // compaction would clear the log
        });
        let (a, b) = (1, u64::MAX - 1);
        wal.log_register(a, 3, OverloadPolicy::Delay);
        wal.log_register(b, 2, OverloadPolicy::Reject);
        for w in 0..3u64 {
            let lbn = 1000 * w + 0xABCD_EF01_2345;
            admit(&stage, w, a, lbn, true, false, false);
            admit(&stage, w, a, lbn + 1, true, true, false);
            admit(&stage, w, b, lbn + 2, false, false, false);
            admit(&stage, w, a, lbn + 3, true, false, true);
            admit(&stage, w, b, lbn + 4, true, true, true);
            wal.log_seal_behind(w, Some(&stage));
            for (kind, tenant) in SettleKind::ALL.into_iter().zip([a, a, b, a, b]) {
                wal.log_settle(w, tenant, kind);
            }
        }
        wal.log_deregister(a); // force-synced: nothing is left in `buf`
        assert_eq!(wal.wal_counters().misordered, 0);
        let g = wal.wal.lock();
        assert!(g.buf.is_empty());
        let Backing::Memory { log } = &g.backing else {
            unreachable!("memory config")
        };
        // FNV-1a of the bytes the heap-allocating, bitwise-CRC encoder of
        // the parent commit wrote for this sequence: the on-disk format is
        // a compatibility surface, whatever encodes it.
        let fnv = log.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((log.len(), fnv), (1308, 0xc2e8_9a5d_658c_9e93));
    }

    fn staging_cfg(fsync_batch: u64) -> WalConfig {
        WalConfig {
            dir: None,
            fsync_batch,
            snapshot_interval: 1 << 20, // compaction would clear the log
        }
    }

    fn admit_of(tenant: u64, lbn: u64) -> OpenEntry {
        OpenEntry {
            tenant,
            lbn,
            guaranteed: true,
            delayed: false,
            is_write: false,
        }
    }

    /// Everything flushed, then the log's bytes and its replayed state.
    fn flushed(wal: &Wal) -> (Vec<u8>, WalState) {
        wal.sync_now();
        let state = wal.state_snapshot();
        let g = wal.wal.lock();
        let Backing::Memory { log } = &g.backing else {
            unreachable!("memory config")
        };
        (log.clone(), state)
    }

    #[test]
    fn staged_records_reach_the_log_as_the_same_records_logged_directly() {
        // A submitter's stage and a worker's, drained where the engine
        // drains them: the submitter's rides the seal and the seal collects
        // the worker's behind it; a worker about to park drains its own,
        // and a cold-path record drains both.
        let staged = Arc::new(Wal::create(&staging_cfg(64)).unwrap().with_worker_stages(1));
        let (submitter, worker) = (staged.stage(), staged.worker_stage(0));
        staged.log_register(1, 2, OverloadPolicy::Delay);
        staged.log_register(2, 2, OverloadPolicy::Delay);
        submitter.log_admit(0, admit_of(1, 10));
        submitter.log_admit(0, admit_of(2, 11));
        submitter.log_admit(1, admit_of(1, 12)); // delayed past its window
        assert_eq!(staged.wal_counters().records, 2, "three records staged");
        staged.log_seal_behind(0, Some(&submitter));
        assert_eq!(staged.wal_counters().records, 6, "admits, then the seal");
        worker.log_settle(0, 1, SettleKind::Served);
        submitter.log_admit(1, admit_of(2, 13));
        worker.log_settle(0, 2, SettleKind::HedgeWin);
        staged.log_seal_behind(1, Some(&submitter));
        assert_eq!(
            (staged.wal_counters().records, worker.staged_records()),
            (10, 0),
            "the admit, the worker's two settles, then the seal"
        );
        submitter.log_admit(2, admit_of(1, 14));
        worker.log_settle(1, 1, SettleKind::Served);
        worker.drain_idle(); // nothing to serve, no seal in sight
        assert_eq!(staged.wal_counters().records, 11);
        submitter.drain(); // a slower handle holds window 2 back
        worker.log_settle(1, 2, SettleKind::Lost);
        staged.log_deregister(1); // drains the worker's stage first
        staged.log_seal_behind(2, None); // somebody else's pump
        worker.log_settle(2, 1, SettleKind::Served);

        // The same records through a batch of one, which stages nothing,
        // in the order the drains gave them.
        let (direct, stage) = log_and_stage(&staging_cfg(1));
        direct.log_register(1, 2, OverloadPolicy::Delay);
        direct.log_register(2, 2, OverloadPolicy::Delay);
        stage.log_admit(0, admit_of(1, 10));
        stage.log_admit(0, admit_of(2, 11));
        stage.log_admit(1, admit_of(1, 12));
        direct.log_seal_behind(0, Some(&stage));
        stage.log_admit(1, admit_of(2, 13));
        direct.log_settle(0, 1, SettleKind::Served);
        direct.log_settle(0, 2, SettleKind::HedgeWin);
        direct.log_seal_behind(1, Some(&stage));
        direct.log_settle(1, 1, SettleKind::Served);
        stage.log_admit(2, admit_of(1, 14));
        direct.log_settle(1, 2, SettleKind::Lost);
        direct.log_deregister(1);
        direct.log_seal_behind(2, Some(&stage));
        direct.log_settle(2, 1, SettleKind::Served);

        let (staged_log, staged_state) = flushed(&staged);
        let (direct_log, direct_state) = flushed(&direct);
        assert_eq!(staged_state, direct_state);
        assert_eq!(staged_state.misordered, 0);
        assert!(staged_state.ledger.conserved());
        assert_eq!(staged_log, direct_log, "same frames, same LSNs");
    }

    #[test]
    fn a_stage_drains_itself_when_it_holds_a_batch() {
        let wal = Arc::new(Wal::create(&staging_cfg(4)).unwrap());
        wal.log_register(1, 4, OverloadPolicy::Delay);
        let stage = wal.stage();
        for lbn in 0..3 {
            stage.log_admit(0, admit_of(1, lbn));
            assert_eq!(wal.wal_counters().records, 1, "staged, not logged");
        }
        stage.log_admit(0, admit_of(1, 3));
        assert_eq!(wal.wal_counters().records, 5);
        assert_eq!(stage.staged_records(), 0);
        // The shared buffer flushed on the same count, as it did unstaged.
        let g = wal.wal.lock();
        assert!(g.buf.is_empty() && g.pending_records == 0);
    }

    #[test]
    fn with_a_batch_of_one_nothing_is_ever_left_staged() {
        let wal = Arc::new(Wal::create(&staging_cfg(1)).unwrap());
        wal.log_register(1, 2, OverloadPolicy::Delay);
        let stage = wal.stage();
        let logged_and_flushed = |records: u64| {
            assert_eq!(stage.staged_records(), 0);
            let g = wal.wal.lock();
            assert_eq!((g.records, g.buf.len()), (records, 0));
        };
        stage.log_admit(0, admit_of(1, 7));
        logged_and_flushed(2);
        stage.log_admit(0, admit_of(1, 8));
        logged_and_flushed(3);
        wal.log_seal_behind(0, Some(&stage));
        stage.log_settle(0, 1, SettleKind::Served);
        logged_and_flushed(5);
        stage.log_settle(0, 1, SettleKind::Served);
        logged_and_flushed(6);
        assert_eq!(wal.wal_counters().misordered, 0);
    }

    #[test]
    fn a_register_is_logged_behind_every_settle_staged_before_it() {
        // The order `TenantRegistry::register` relies on: it has seen the
        // departed record's ledger settled, so that settle is staged; the
        // `Register` that restarts the id's durable ledger must not
        // overtake it.
        let wal = Arc::new(Wal::create(&staging_cfg(64)).unwrap().with_worker_stages(1));
        let (stage, worker) = (wal.stage(), wal.worker_stage(0));
        wal.log_register(1, 2, OverloadPolicy::Delay);
        admit(&stage, 0, 1, 5, true, false, false);
        admit(&stage, 0, 1, 6, true, false, false);
        wal.log_seal_behind(0, Some(&stage));
        worker.log_settle(0, 1, SettleKind::Served);
        wal.log_deregister(1);
        assert_eq!(wal.wal_counters().records, 6, "the settle went in first");
        worker.log_settle(0, 1, SettleKind::HedgeWin); // the id's last admission
        wal.log_register(1, 3, OverloadPolicy::Reject);
        assert_eq!(wal.wal_counters().records, 8);
        let s = wal.state_snapshot();
        assert_eq!(s.misordered, 0);
        assert!(s.ledger.conserved() && s.ledger.hedge_wins == 1);
        assert_eq!(s.tenants[&1].ledger, Ledger::default(), "fresh epoch");
    }

    #[test]
    fn stages_nobody_holds_are_forgotten() {
        let wal = Arc::new(Wal::create(&staging_cfg(8)).unwrap());
        let kept = wal.stage();
        for _ in 0..100 {
            drop(wal.stage());
        }
        assert!(wal.wal.lock().stages.len() <= 2, "pruned as new ones come");
        wal.log_register(1, 1, OverloadPolicy::Delay);
        kept.log_admit(0, admit_of(1, 1));
        assert_eq!(wal.state_snapshot().ledger.admitted, 1, "still drained");
    }

    #[test]
    fn records_round_trip_through_the_payload_codec() {
        let records = [
            WalRecord::Register {
                tenant: 7,
                reserved: 3,
                policy: OverloadPolicy::Reject,
            },
            WalRecord::Deregister { tenant: 7 },
            WalRecord::Admit {
                window: 41,
                entry: OpenEntry {
                    tenant: 7,
                    lbn: 123,
                    guaranteed: true,
                    delayed: true,
                    is_write: false,
                },
            },
            WalRecord::Admit {
                window: 42,
                entry: OpenEntry {
                    tenant: 7,
                    lbn: 124,
                    guaranteed: true,
                    delayed: false,
                    is_write: true,
                },
            },
            WalRecord::Seal { window: 41 },
            WalRecord::Settle {
                window: 41,
                tenant: 7,
                kind: SettleKind::HedgeWin,
            },
            WalRecord::Settle {
                window: 42,
                tenant: 7,
                kind: SettleKind::WriteSettled,
            },
            WalRecord::Settle {
                window: 42,
                tenant: 7,
                kind: SettleKind::WriteLost,
            },
        ];
        for rec in records {
            let mut payload = Vec::new();
            encode_payload(&rec, &mut payload);
            assert_eq!(decode_payload(&payload), Some(rec), "payload {payload:?}");
            // Truncated payloads never decode.
            for cut in 0..payload.len() {
                assert_eq!(decode_payload(&payload[..cut]), None, "cut {cut}");
            }
        }
    }

    #[test]
    fn state_snapshot_round_trips() {
        let cfg = mem_cfg();
        let (wal, stage) = log_and_stage(&cfg);
        wal.log_register(1, 2, OverloadPolicy::Delay);
        wal.log_register(2, 1, OverloadPolicy::Reject);
        admit(&stage, 0, 1, 5, true, false, false);
        admit(&stage, 0, 2, 9, false, false, false);
        admit(&stage, 1, 1, 6, true, true, false);
        wal.log_seal_behind(0, Some(&stage));
        wal.log_settle(0, 1, SettleKind::Served);
        wal.log_deregister(2);
        let state = wal.state_snapshot();
        let decoded = decode_state(&encode_state(&state)).expect("decode");
        assert_eq!(decoded, state);
        assert_eq!(state.misordered, 0);
        assert_eq!(state.ledger.admitted, 2);
        assert_eq!(state.ledger.overflow, 1);
        assert_eq!(state.sealed_through, 1);
        assert_eq!(
            state.pending[&0][&2],
            PendingCounts {
                reads: 1,
                writes: 0
            },
            "unsettled overflow admission"
        );
        assert_eq!(state.open[&1].len(), 1);
        // A flipped byte breaks the CRC.
        let mut bytes = encode_state(&state);
        bytes[10] ^= 0x40;
        assert!(decode_state(&bytes).is_none());
    }

    #[test]
    fn an_old_layout_snapshot_is_refused_not_misread() {
        // An empty-maps FQWSNAP2 body — last_lsn, sealed_through, then
        // admitted, overflow, delayed, served, hedges_won, lost,
        // write_settled, write_lost, misordered — is exactly as long as
        // the current header, so only the magic keeps `delayed` from being
        // read as `served`.
        let mut body = Vec::new();
        for v in [9u64, 1, 2, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0] {
            put_u64(&mut body, v);
        }
        let stamp = |magic: &[u8; 8]| {
            let mut blob = magic.to_vec();
            blob.extend_from_slice(&body);
            blob.extend_from_slice(&crc32(0, &body).to_le_bytes());
            blob
        };
        assert!(decode_state(&stamp(b"FQWSNAP2")).is_none());
        let misread = decode_state(&stamp(SNAP_MAGIC)).expect("same length");
        assert_eq!(misread.ledger.served, 1, "the old `delayed` slot");
        // On disk: recovery reports it instead of replaying past it.
        let dir = tmpdir("oldsnap");
        std::fs::write(dir.join("wal.snapshot"), stamp(b"FQWSNAP2")).unwrap();
        let err = Wal::resume(&dir_cfg(&dir, 1)).err().expect("refused");
        assert!(err.contains("FQWSNAP3"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn settle_without_durable_admission_is_misordered() {
        let (wal, stage) = log_and_stage(&mem_cfg());
        wal.log_register(1, 2, OverloadPolicy::Delay);
        wal.log_settle(0, 1, SettleKind::Served); // nothing sealed
        assert_eq!(wal.wal_counters().misordered, 1);
        admit(&stage, 0, 1, 5, true, false, false);
        wal.log_seal_behind(0, Some(&stage));
        wal.log_settle(0, 1, SettleKind::Served);
        wal.log_settle(0, 1, SettleKind::Served); // double settle
        assert_eq!(wal.wal_counters().misordered, 2);
        let s = wal.state_snapshot();
        assert_eq!(s.ledger.served, 1);
    }

    #[test]
    fn resume_replays_the_log_and_truncates_a_torn_tail() {
        let dir = tmpdir("torn");
        let cfg = dir_cfg(&dir, 1);
        {
            let (wal, stage) = log_and_stage(&cfg);
            wal.log_register(1, 2, OverloadPolicy::Delay);
            admit(&stage, 0, 1, 11, true, false, false);
            admit(&stage, 0, 1, 12, true, false, false);
            wal.sync_now();
        }
        // Tear the final record: chop 5 bytes off the file.
        let log_path = dir.join("wal.log");
        let len = std::fs::metadata(&log_path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&log_path)
            .unwrap()
            .set_len(len - 5)
            .unwrap();
        let (wal, report) = Wal::resume(&cfg).unwrap();
        let wal = Arc::new(wal);
        assert!(report.torn);
        assert!(!report.snapshot);
        assert_eq!(report.records, 2, "register + first admit survive");
        let s = wal.state_snapshot();
        assert_eq!(s.ledger.admitted, 1, "torn admit discarded");
        assert_eq!(s.open[&0].len(), 1);
        assert_eq!(s.misordered, 0);
        // The truncated log accepts new appends and replays cleanly.
        admit(&wal.stage(), 0, 1, 13, true, false, false);
        wal.sync_now();
        drop(wal);
        let (wal, report) = Wal::resume(&cfg).unwrap();
        assert!(!report.torn);
        assert_eq!(wal.state_snapshot().ledger.admitted, 2);
        assert_eq!(report.records, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn buffered_records_are_lost_without_a_flush() {
        let dir = tmpdir("batch");
        let cfg = dir_cfg(&dir, 64); // large batch: nothing auto-flushes
        {
            let (wal, stage) = log_and_stage(&cfg);
            wal.log_register(1, 2, OverloadPolicy::Delay); // force-synced
            admit(&stage, 0, 1, 11, true, false, false); // buffered only
                                                         // Dropped without sync_now: the admit never reached the file,
                                                         // exactly what an abort in the pre-fsync window loses.
        }
        let (wal, report) = Wal::resume(&cfg).unwrap();
        assert_eq!(report.records, 1);
        let s = wal.state_snapshot();
        assert_eq!(s.ledger.admitted, 0);
        assert!(s.tenants[&1].live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_snapshot_subsumes_the_log_by_lsn() {
        let dir = tmpdir("compact");
        let cfg = dir_cfg(&dir, 1);
        {
            let (wal, stage) = log_and_stage(&cfg);
            wal.log_register(1, 2, OverloadPolicy::Delay);
            for w in 0..4u64 {
                admit(&stage, w, 1, w, true, false, false);
                wal.log_seal_behind(w, Some(&stage));
                wal.log_settle(w, 1, SettleKind::Served);
            }
            wal.compact();
            assert_eq!(std::fs::metadata(dir.join("wal.log")).unwrap().len(), 0);
            admit(&stage, 4, 1, 99, true, false, false);
            wal.sync_now();
        }
        let (wal, report) = Wal::resume(&cfg).unwrap();
        assert!(report.snapshot);
        assert_eq!(report.records, 1, "only the post-compaction admit replays");
        let s = wal.state_snapshot();
        assert_eq!(s.ledger.admitted, 5);
        assert_eq!(s.ledger.served, 4);
        assert_eq!(s.sealed_through, 4);
        assert_eq!(s.open[&4].len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resolve_crash_losses_charges_sealed_unsettled_residue() {
        let (wal, stage) = log_and_stage(&mem_cfg());
        wal.log_register(1, 2, OverloadPolicy::Delay);
        admit(&stage, 0, 1, 1, true, false, false);
        admit(&stage, 0, 1, 2, true, false, false);
        wal.log_seal_behind(0, Some(&stage));
        wal.log_settle(0, 1, SettleKind::Served);
        assert_eq!(wal.resolve_crash_losses(), 1);
        let s = wal.state_snapshot();
        assert_eq!(s.ledger.lost, 1);
        assert_eq!(s.tenants[&1].ledger.lost, 1);
        assert!(s.pending.is_empty());
        assert!(s.ledger.conserved());
        // Idempotent: nothing left to resolve.
        assert_eq!(wal.resolve_crash_losses(), 0);
    }

    #[test]
    fn forfeit_open_keeps_the_ledger_balanced() {
        let (wal, stage) = log_and_stage(&mem_cfg());
        wal.log_register(1, 2, OverloadPolicy::Delay);
        admit(&stage, 3, 1, 1, true, false, false);
        wal.forfeit_open(3, 1, false);
        let s = wal.state_snapshot();
        assert!(s.open.is_empty());
        assert_eq!(s.ledger.lost, 1);
        assert!(s.ledger.conserved());
        // Forfeiting something absent is a no-op.
        wal.forfeit_open(3, 1, false);
        assert_eq!(wal.state_snapshot().ledger.lost, 1);
        // A forfeited write charges write_lost, and only a write entry
        // satisfies a write forfeit.
        admit(&stage, 4, 1, 2, true, false, true);
        wal.forfeit_open(4, 1, false);
        assert_eq!(wal.state_snapshot().ledger.lost, 1, "class mismatch: no-op");
        wal.forfeit_open(4, 1, true);
        let s = wal.state_snapshot();
        assert!(s.open.is_empty());
        assert_eq!(s.ledger.write_lost, 1);
        assert_eq!(s.tenants[&1].ledger.write_lost, 1);
    }

    #[test]
    fn write_settlement_and_crash_resolution_use_the_write_ledger() {
        let (wal, stage) = log_and_stage(&mem_cfg());
        wal.log_register(1, 4, OverloadPolicy::Delay);
        admit(&stage, 0, 1, 1, true, false, true); // settles WriteSettled
        admit(&stage, 0, 1, 2, true, false, true); // settles WriteLost
        admit(&stage, 0, 1, 3, true, false, true); // stranded by "crash"
        admit(&stage, 0, 1, 4, true, false, false); // read, settles Served
        wal.log_seal_behind(0, Some(&stage));
        // A read settle must not consume a pending write admission.
        wal.log_settle(0, 1, SettleKind::WriteSettled);
        wal.log_settle(0, 1, SettleKind::WriteLost);
        wal.log_settle(0, 1, SettleKind::Served);
        assert_eq!(wal.wal_counters().misordered, 0);
        wal.log_settle(0, 1, SettleKind::Served);
        assert_eq!(
            wal.wal_counters().misordered,
            1,
            "read class exhausted; the stranded write must not absorb it"
        );
        assert_eq!(wal.resolve_crash_losses(), 1, "the stranded write");
        let s = wal.state_snapshot();
        assert_eq!(s.ledger.write_settled, 1);
        assert_eq!(s.ledger.write_lost, 2, "retry-exhausted + crash-stranded");
        assert_eq!(s.tenants[&1].ledger.write_settled, 1);
        assert_eq!(s.tenants[&1].ledger.write_lost, 2);
        assert!(s.ledger.conserved(), "over the durable admissions");
        let decoded = decode_state(&encode_state(&s)).expect("decode");
        assert_eq!(decoded, s);
    }

    #[test]
    fn reregistration_starts_a_fresh_epoch_in_state() {
        let (wal, stage) = log_and_stage(&mem_cfg());
        wal.log_register(1, 2, OverloadPolicy::Delay);
        admit(&stage, 0, 1, 1, true, false, false);
        wal.log_seal_behind(0, Some(&stage));
        wal.log_settle(0, 1, SettleKind::Served);
        wal.log_deregister(1);
        wal.log_register(1, 3, OverloadPolicy::Reject);
        let s = wal.state_snapshot();
        let t = &s.tenants[&1];
        assert!(t.live);
        assert_eq!(t.reserved, 3);
        assert_eq!(t.ledger.admitted, 0, "fresh epoch");
        assert_eq!(s.ledger.admitted, 1, "global history is kept");
    }

    /// `seal-collects-worker-stage`, narrowed to the log (tests/model.rs
    /// runs it through the engine): a worker stages the `Settle` of tenant
    /// 1's only admission, says so the way `Engine::settle` does — the
    /// tenant's books show nothing in flight — and, about to park, drains
    /// its stage; a seal nobody's stage rides collects that stage; a
    /// controller logs `Deregister` and, once the books let it, the
    /// `Register` that restarts the id's durable ledger. `seal` is the seal
    /// under test. Fails — a settle of the departed epoch replayed into the
    /// fresh one — on any schedule that lets `Register` into the log while
    /// the settle is in neither the stage nor the log.
    #[cfg(feature = "model-check")]
    fn seal_races_a_settling_worker_and_a_reregistration(seal: fn(&Wal, u64)) {
        use fqos_sync::atomic::{AtomicBool, Ordering};
        let wal = Arc::new(Wal::create(&staging_cfg(8)).unwrap().with_worker_stages(1));
        let (stage, worker) = (wal.stage(), wal.worker_stage(0));
        wal.log_register(1, 2, OverloadPolicy::Delay);
        stage.log_admit(0, admit_of(1, 7));
        wal.log_seal_behind(0, Some(&stage));
        let settled = Arc::new(AtomicBool::new(false));
        let serving = {
            let settled = Arc::clone(&settled);
            fqos_sync::thread::spawn(move || {
                worker.log_settle(0, 1, SettleKind::Served);
                settled.store(true, Ordering::Release);
                worker.drain_idle();
            })
        };
        let sealing = {
            let wal = Arc::clone(&wal);
            fqos_sync::thread::spawn(move || seal(&wal, 1))
        };
        let controlling = {
            let wal = Arc::clone(&wal);
            fqos_sync::thread::spawn(move || {
                wal.log_deregister(1);
                let fresh = settled.load(Ordering::Acquire);
                if fresh {
                    wal.log_register(1, 2, OverloadPolicy::Delay);
                }
                fresh
            })
        };
        serving.join().unwrap();
        sealing.join().unwrap();
        let fresh = controlling.join().unwrap();
        let state = wal.state_snapshot();
        assert_eq!(state.misordered, 0);
        assert!(state.ledger.conserved() && state.ledger.served == 1);
        let durable = &state.tenants[&1];
        assert_eq!(durable.live, fresh);
        assert!(
            durable.ledger.conserved(),
            "a settle of the departed epoch replayed into the fresh one"
        );
        assert_eq!(durable.ledger.admitted, u64::from(!fresh));
    }

    /// The seeded mutant of `seal-collects-worker-stage` (ROADMAP 1(d)): a
    /// seal that takes the worker's records out and lets go of the stage
    /// *before* it holds the WAL lock.
    #[cfg(feature = "model-check")]
    fn seal_that_lets_go_of_the_stage_first(wal: &Wal, window: u64) {
        let mut taken = std::mem::take(&mut *wal.workers[0].lock());
        let mut g = wal.locked();
        wal.append_staged_locked(&mut g, &mut taken);
        wal.push_locked(&mut g, &WalRecord::Seal { window }, true, false);
    }

    /// Through the engine the mutant needs two preemptions early in a
    /// 250-step schedule — the worker's between its settle and the drain it
    /// does before it parks, the sealing thread's between the stage and the
    /// log — and the first seal of a release hides it altogether (a cold
    /// path drains the handle's stage too, which rides that seal's whole
    /// hold): the engine schedule did not reach it in 40 000 schedules. Here
    /// the explorer exhausts the space, and has to find the mutant.
    #[cfg(feature = "model-check")]
    #[test]
    fn seal_collects_worker_stage_holding_it_until_the_log_is_held() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let bounds = || fqos_sync::Config {
            preemptions: 2,
            max_schedules: 1 << 16,
            ..fqos_sync::Config::default()
        };
        let report = fqos_sync::model_with(bounds(), || {
            seal_races_a_settling_worker_and_a_reregistration(|wal, w| {
                wal.log_seal_behind(w, None);
            });
        });
        println!(
            "seal-collects-worker-stage/stage-held-until-the-log: explored {} schedules \
             (exhausted: {}, max depth: {} ops)",
            report.schedules, report.exhausted, report.max_depth
        );
        assert!(report.exhausted && report.schedules >= 100);
        static RAN: AtomicU64 = AtomicU64::new(0);
        let mutant = std::panic::catch_unwind(|| {
            fqos_sync::model_with(bounds(), || {
                RAN.fetch_add(1, Ordering::Relaxed);
                seal_races_a_settling_worker_and_a_reregistration(
                    seal_that_lets_go_of_the_stage_first,
                );
            })
        });
        let failure = mutant.expect_err("the explorer accepted the seeded mutant");
        let failure = failure
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(failure.contains("replayed into the fresh one"), "{failure}");
        println!(
            "seal-collects-worker-stage/mutant: fails after {} schedules",
            RAN.load(Ordering::Relaxed)
        );
    }
}
