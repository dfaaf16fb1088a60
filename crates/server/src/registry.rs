//! Sharded multi-tenant registry wrapping the paper's application-level
//! admission controller ([`AppAdmission`], §III-A) behind thread-safe
//! registration and a lock-striped hot lookup path.
//!
//! Registration (cold path) serializes on one mutex so the aggregate
//! reservation check against `S(M)` is atomic; lookups take a read lock on
//! the tenant's shard. The request path does not even do that: each
//! submitter and worker thread resolves ids through its own `TenantView`,
//! which goes to the shards only when the registry's `epoch` has moved.

use crate::metrics::TenantCounters;
use crate::wal::Wal;
use fqos_core::{AppAdmission, OverloadPolicy};
use fqos_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use fqos_sync::{Arc, Class, Mutex, RwLock};
use std::collections::HashMap;

/// Immutable per-tenant record handed out by lookups. Laid out by writer:
/// what a submit reads, then the counters, whose submitter-written part
/// comes first (DESIGN.md, "One writer per line").
#[derive(Debug)]
#[repr(C)]
pub struct Tenant {
    /// Tenant id.
    pub id: u64,
    /// Reserved per-interval request size (counts against `S(M)`).
    pub reserved: usize,
    /// What happens to this tenant's requests when a window is full.
    pub policy: OverloadPolicy,
    /// Cleared on deregistration. The record itself stays in its shard so
    /// seal-time settlement can still credit in-flight admissions — a
    /// mid-window deregistration must not strand window-ring accounting.
    live: AtomicBool,
    /// Serving counters, shared with the worker pool.
    pub counters: TenantCounters,
}

impl Tenant {
    /// False once the tenant has been deregistered (its reservation is
    /// freed but in-flight admissions still settle against this record).
    pub fn is_live(&self) -> bool {
        self.live.load(Ordering::Acquire)
    }
}

/// Why a registration was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegisterError {
    /// Admitting the reservation would push the aggregate past `S(M)`.
    OverCapacity {
        /// Requested per-interval size.
        requested: usize,
        /// Remaining admittable size.
        headroom: usize,
    },
    /// A reservation of zero requests is meaningless.
    ZeroReservation,
    /// The id's previous (departed) record still has unsettled in-flight
    /// admissions; replacing it now would credit their seal-time
    /// settlement to counters that never admitted them. Retry once the
    /// source windows have sealed.
    DrainPending {
        /// Admissions of the departed record not yet settled.
        in_flight: u64,
    },
}

impl std::fmt::Display for RegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegisterError::OverCapacity {
                requested,
                headroom,
            } => {
                write!(
                    f,
                    "reservation of {requested} exceeds remaining headroom {headroom}"
                )
            }
            RegisterError::ZeroReservation => write!(f, "reservation must be positive"),
            RegisterError::DrainPending { in_flight } => {
                write!(
                    f,
                    "previous record still draining ({in_flight} admissions unsettled)"
                )
            }
        }
    }
}

impl std::error::Error for RegisterError {}

/// Thread-safe tenant registry with `S(M)` aggregate admission.
pub struct TenantRegistry {
    admission: Mutex<AppAdmission>,
    shards: Vec<RwLock<HashMap<u64, Arc<Tenant>>>>,
    /// Write-ahead log for register/deregister durability (None = off).
    wal: Option<Arc<Wal>>,
    /// Counts shard inserts; what a [`TenantView`] cached under an older
    /// value may have been replaced. Bumped after the insert and before the
    /// shard lock is released: whoever has seen the new record, or heard
    /// from someone who has, loads the new epoch.
    epoch: AtomicU64,
}

impl TenantRegistry {
    /// Registry admitting aggregate reservations up to `limit` = `S(M)`,
    /// striped over `shards` locks.
    pub fn new(limit: usize, shards: usize) -> Self {
        Self::new_with_wal(limit, shards, None)
    }

    /// Registry with write-ahead durability: registrations and departures
    /// are logged (force-synced) under the admission lock, before the
    /// record is published to its shard — so no durable admission record
    /// can ever precede its tenant's durable registration.
    pub(crate) fn new_with_wal(limit: usize, shards: usize, wal: Option<Arc<Wal>>) -> Self {
        assert!(shards > 0);
        TenantRegistry {
            admission: Mutex::new(Class::RegistryAdmission, AppAdmission::new(limit)),
            shards: (0..shards)
                .map(|_| RwLock::new(Class::RegistryShard, HashMap::new()))
                .collect(),
            wal,
            epoch: AtomicU64::new(0),
        }
    }

    fn shard(&self, tenant: u64) -> &RwLock<HashMap<u64, Arc<Tenant>>> {
        // Multiplicative hash so consecutive tenant ids spread across shards.
        &self.shards[(spread(tenant) >> 32) as usize % self.shards.len()]
    }

    /// Put `record` in its shard — replacing a departed record of the same
    /// id, if any — and tell the views.
    fn publish(&self, record: Arc<Tenant>) {
        let mut shard = self.shard(record.id).write();
        shard.insert(record.id, record);
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Register (or re-register with a new size) a tenant. The reservation
    /// is admitted iff the aggregate over all tenants stays within `S(M)`.
    pub fn register(
        &self,
        tenant: u64,
        reserved: usize,
        policy: OverloadPolicy,
    ) -> Result<Arc<Tenant>, RegisterError> {
        if reserved == 0 {
            return Err(RegisterError::ZeroReservation);
        }
        // Hold the admission lock across the shard update so a concurrent
        // deregister cannot interleave between check and insert.
        let mut admission = self.admission.lock();
        if let Some(old) = self.shard(tenant).read().get(&tenant) {
            // A departed record with unsettled admissions must finish
            // draining before its id can start a fresh serving epoch:
            // seal-time settlement resolves by id and would otherwise
            // credit the old record's residue to the new counters.
            if !old.is_live() {
                let in_flight = old.counters.in_flight();
                if in_flight > 0 {
                    return Err(RegisterError::DrainPending { in_flight });
                }
            }
        }
        if !admission.register(tenant, reserved) {
            return Err(RegisterError::OverCapacity {
                requested: reserved,
                headroom: admission.headroom(),
            });
        }
        // Durable before the record is visible to submitters: an Admit
        // record can then never precede its Register in the log.
        if let Some(wal) = &self.wal {
            wal.log_register(tenant, reserved, policy);
        }
        let record = Arc::new(Tenant {
            id: tenant,
            reserved,
            policy,
            counters: TenantCounters::default(),
            live: AtomicBool::new(true),
        });
        // Counters start fresh: a re-registered id is a new serving epoch
        // (the old record's already-sealed admissions settled against the
        // old counters).
        self.publish(Arc::clone(&record));
        Ok(record)
    }

    /// Deregister a tenant, freeing its reservation immediately. The record
    /// is only *flagged* departed, not removed: in-flight admissions still
    /// resolve to it at window-seal time, so per-tenant serving counters are
    /// never stranded by a mid-window departure (migration drains rely on
    /// this). Returns the record if the tenant was live.
    pub fn deregister(&self, tenant: u64) -> Option<Arc<Tenant>> {
        let mut admission = self.admission.lock();
        let existing = self.shard(tenant).read().get(&tenant).cloned();
        let departed = existing.filter(|t| t.is_live());
        if let Some(t) = &departed {
            t.live.store(false, Ordering::Release);
            admission.deregister(tenant);
            if let Some(wal) = &self.wal {
                wal.log_deregister(tenant);
            }
        }
        departed
    }

    /// Recovery path: re-install a tenant from a replayed WAL state with
    /// its durable ledger preset, without logging (the records that
    /// produced this state are already in the log). Live tenants re-enter
    /// `S(M)` admission; departed records are installed for settlement
    /// resolution only (their reservation was already freed).
    pub(crate) fn restore_record(
        &self,
        tenant: u64,
        state: &crate::wal::TenantState,
    ) -> Result<(), RegisterError> {
        let reserved = state.reserved as usize;
        let mut admission = self.admission.lock();
        if state.live && !admission.register(tenant, reserved) {
            return Err(RegisterError::OverCapacity {
                requested: reserved,
                headroom: admission.headroom(),
            });
        }
        let record = Arc::new(Tenant {
            id: tenant,
            reserved,
            policy: crate::wal::decode_policy(state.policy),
            counters: TenantCounters::default(),
            live: AtomicBool::new(state.live),
        });
        record.counters.ledger.restore(&state.ledger);
        record
            .counters
            .delayed
            .store(state.delayed, Ordering::Relaxed);
        self.publish(record);
        Ok(())
    }

    /// Live tenants only (the admission path must not see departed
    /// records). A submit asks its handle's `TenantView` instead.
    pub fn get(&self, tenant: u64) -> Option<Arc<Tenant>> {
        self.shard(tenant)
            .read()
            .get(&tenant)
            .cloned()
            .filter(|t| t.is_live())
    }

    /// Settlement lookup: resolves departed records too, so a request
    /// admitted before its tenant deregistered still settles against the
    /// tenant's counters. What a `TenantView` falls back to.
    pub fn lookup_any(&self, tenant: u64) -> Option<Arc<Tenant>> {
        self.shard(tenant).read().get(&tenant).cloned()
    }

    /// Remaining admittable reservation.
    pub fn headroom(&self) -> usize {
        self.admission.lock().headroom()
    }

    /// Every record, live and departed, sorted by id. Snapshots use this so
    /// a tenant that migrated away mid-run still reports its served counts.
    pub fn all_tenants(&self) -> Vec<Arc<Tenant>> {
        let mut all: Vec<Arc<Tenant>> = self
            .shards
            .iter()
            .flat_map(|s| s.read().values().cloned().collect::<Vec<_>>())
            .collect();
        all.sort_by_key(|t| t.id);
        all
    }
}

/// Multiplicative hash so consecutive tenant ids spread out.
fn spread(tenant: u64) -> u64 {
    tenant.wrapping_mul(0x9E3779B97F4A7C15)
}

/// Slots of a [`TenantView`]: a power of two, one bit each in `filled`.
const VIEW_SLOTS: usize = 64;

/// The slot of a [`TenantView`] that `tenant` maps to.
fn slot_of(tenant: u64) -> usize {
    (spread(tenant) >> (64 - VIEW_SLOTS.trailing_zeros())) as usize
}

/// One thread's cache of the registry: a direct-mapped table of what
/// [`TenantRegistry::lookup_any`] found (`None` = no such id) and the epoch
/// it was filled under. A hit is a plain borrow — no shard lock, no SipHash,
/// no reference count. With more ids than slots a conflicting one goes back
/// to the shards; the table never grows.
pub(crate) struct TenantView {
    epoch: u64,
    /// Bit `i` set = `slots[i]` was filled under `epoch`.
    filled: u64,
    slots: Box<[(u64, Option<Arc<Tenant>>)]>,
}

impl TenantView {
    pub(crate) fn new() -> Self {
        TenantView {
            epoch: 0,
            filled: 0,
            slots: (0..VIEW_SLOTS).map(|_| (0, None)).collect(),
        }
    }

    /// The record `id` names in `registry`. Deregistration only clears the
    /// record's `live` flag, which callers read through the borrow; a
    /// replaced record is noticed by the epoch. The `Acquire` load pairs
    /// with the bump in [`TenantRegistry::publish`].
    pub(crate) fn resolve(&mut self, registry: &TenantRegistry, id: u64) -> Option<&Tenant> {
        let epoch = registry.epoch.load(Ordering::Acquire);
        if epoch != self.epoch {
            self.epoch = epoch;
            self.filled = 0;
        }
        let at = slot_of(id);
        if self.filled >> at & 1 == 0 || self.slots[at].0 != id {
            self.slots[at] = (id, registry.lookup_any(id));
            self.filled |= 1 << at;
        }
        self.slots[at].1.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{assert_one_side_per_line, span, Side};
    use crate::ledger::{Ledger, SettleKind};

    #[test]
    fn table1_walkthrough_through_the_registry() {
        // §III-A with S = 5: sizes 2, 2, 1 admitted; the fourth tenant only
        // after one deregisters.
        let reg = TenantRegistry::new(5, 4);
        reg.register(1, 2, OverloadPolicy::Delay).unwrap();
        reg.register(2, 2, OverloadPolicy::Delay).unwrap();
        reg.register(3, 1, OverloadPolicy::Reject).unwrap();
        assert_eq!(reg.headroom(), 0);
        let err = reg.register(4, 1, OverloadPolicy::Delay).unwrap_err();
        assert_eq!(
            err,
            RegisterError::OverCapacity {
                requested: 1,
                headroom: 0
            }
        );
        assert!(reg.deregister(2).is_some());
        reg.register(4, 2, OverloadPolicy::Delay).unwrap();
        assert_eq!(reg.headroom(), 0, "the freed reservation was taken");
        reg.deregister(1);
        assert_eq!(reg.headroom(), 2);
    }

    #[test]
    fn lookup_and_listing() {
        let reg = TenantRegistry::new(10, 2);
        assert!(reg.get(7).is_none());
        reg.register(7, 3, OverloadPolicy::Reject).unwrap();
        let t = reg.get(7).unwrap();
        assert_eq!(t.reserved, 3);
        assert_eq!(t.policy, OverloadPolicy::Reject);
        reg.register(3, 1, OverloadPolicy::Delay).unwrap();
        let ids: Vec<u64> = reg.all_tenants().iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![3, 7]);
        assert!(reg.deregister(99).is_none());
    }

    #[test]
    fn zero_reservation_is_refused() {
        let reg = TenantRegistry::new(5, 1);
        assert_eq!(
            reg.register(1, 0, OverloadPolicy::Delay).unwrap_err(),
            RegisterError::ZeroReservation
        );
    }

    #[test]
    fn counters_survive_deregistration() {
        let reg = TenantRegistry::new(5, 2);
        let t = reg.register(1, 1, OverloadPolicy::Delay).unwrap();
        t.counters.rejected.fetch_add(3, Ordering::Relaxed);
        let removed = reg.deregister(1).unwrap();
        assert_eq!(removed.counters.rejected.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn departed_records_stay_resolvable_until_reregistered() {
        let reg = TenantRegistry::new(5, 2);
        let t = reg.register(1, 2, OverloadPolicy::Delay).unwrap();
        for _ in 0..2 {
            t.counters.ledger.admit(true);
            t.counters.ledger.settle(SettleKind::Served);
        }
        assert!(reg.deregister(1).is_some());
        // The admission path no longer sees the tenant...
        assert!(reg.get(1).is_none());
        assert_eq!(reg.headroom(), 5, "reservation freed immediately");
        // ...but the seal path still resolves the departed record.
        let departed = reg.lookup_any(1).unwrap();
        assert!(!departed.is_live());
        assert_eq!(departed.counters.ledger.snapshot().served, 2);
        assert_eq!(reg.all_tenants().len(), 1);
        // A second deregister is a no-op (no double-free of the reservation).
        assert!(reg.deregister(1).is_none());
        assert_eq!(reg.headroom(), 5);
        // Re-registration starts a fresh serving epoch.
        let fresh = reg.register(1, 3, OverloadPolicy::Reject).unwrap();
        assert!(fresh.is_live());
        assert_eq!(fresh.counters.ledger.snapshot(), Ledger::default());
        assert_eq!(reg.all_tenants().len(), 1, "the fresh record replaced it");
        assert_eq!(reg.headroom(), 2);
    }

    #[test]
    fn reregistration_waits_for_departed_drain() {
        let reg = TenantRegistry::new(5, 2);
        let t = reg.register(1, 2, OverloadPolicy::Delay).unwrap();
        for _ in 0..3 {
            t.counters.ledger.admit(true);
        }
        t.counters.ledger.settle(SettleKind::Served);
        assert!(reg.deregister(1).is_some());
        // Two admissions still unsettled: a fresh epoch now would credit
        // their seal-time settlement to counters that never admitted them.
        assert_eq!(
            reg.register(1, 1, OverloadPolicy::Delay).unwrap_err(),
            RegisterError::DrainPending { in_flight: 2 }
        );
        assert_eq!(reg.headroom(), 5, "refusal must not leak reservation");
        // Once the residue settles, the id can start a fresh epoch.
        t.counters.ledger.settle(SettleKind::Served);
        t.counters.ledger.settle(SettleKind::HedgeWin);
        let fresh = reg.register(1, 1, OverloadPolicy::Reject).unwrap();
        assert!(fresh.is_live());
        assert_eq!(fresh.counters.ledger.snapshot(), Ledger::default());
    }

    #[test]
    fn a_view_hit_borrows_the_record_without_touching_its_refcount() {
        let reg = TenantRegistry::new(5, 2);
        let record = reg.register(1, 2, OverloadPolicy::Delay).unwrap();
        let mut view = TenantView::new();
        let first = view.resolve(&reg, 1).unwrap() as *const Tenant;
        assert_eq!(first, Arc::as_ptr(&record), "the registry's own record");
        let held = Arc::strong_count(&record); // shard + view + ours
        for _ in 0..3 {
            let hit = view.resolve(&reg, 1).unwrap() as *const Tenant;
            assert_eq!(hit, first);
            assert_eq!(Arc::strong_count(&record), held, "a hit clones nothing");
        }
    }

    #[test]
    fn a_view_sees_registrations_made_after_it_was_filled() {
        let reg = TenantRegistry::new(5, 2);
        let mut view = TenantView::new();
        assert!(view.resolve(&reg, 1).is_none());
        assert!(view.resolve(&reg, 1).is_none(), "the miss is cached too");
        let first = reg.register(1, 2, OverloadPolicy::Delay).unwrap();
        assert!(view.resolve(&reg, 1).is_some_and(Tenant::is_live));
        // Deregistration moves no epoch: the flag is read through the borrow.
        let epoch = reg.epoch.load(Ordering::Acquire);
        reg.deregister(1).unwrap();
        assert_eq!(reg.epoch.load(Ordering::Acquire), epoch);
        let departed = view.resolve(&reg, 1).unwrap();
        assert!(!departed.is_live());
        assert!(std::ptr::eq(departed, Arc::as_ptr(&first)));
        // Re-registration replaces the record; the warm view follows.
        let second = reg.register(1, 3, OverloadPolicy::Reject).unwrap();
        let seen = view.resolve(&reg, 1).unwrap();
        assert!(std::ptr::eq(seen, Arc::as_ptr(&second)));
        assert!(seen.is_live());
        assert_eq!(seen.reserved, 3);
    }

    #[test]
    fn a_view_never_grows_past_its_table() {
        let reg = TenantRegistry::new(10_000, 4);
        for id in 0..10_000u64 {
            reg.register(id, 1, OverloadPolicy::Delay).unwrap();
        }
        let mut view = TenantView::new();
        for round in 0..2 {
            for id in 0..10_000u64 {
                assert_eq!(view.resolve(&reg, id).unwrap().id, id, "round {round}");
            }
            assert!(view.resolve(&reg, 10_000).is_none());
        }
        assert_eq!(view.slots.len(), VIEW_SLOTS);
        // A handful of consecutive ids — every workload we run — share no
        // slot, so none of them ever evicts another.
        let mut slots: Vec<usize> = (1..=8).map(slot_of).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), 8);
    }

    #[test]
    fn restoring_a_record_moves_the_epoch() {
        let reg = TenantRegistry::new(5, 2);
        let mut view = TenantView::new();
        assert!(view.resolve(&reg, 9).is_none());
        let epoch = reg.epoch.load(Ordering::Acquire);
        let state = crate::wal::TenantState {
            reserved: 2,
            policy: 0,
            live: true,
            ledger: Ledger {
                admitted: 4,
                served: 4,
                ..Ledger::default()
            },
            delayed: 1,
        };
        reg.restore_record(9, &state).unwrap();
        assert!(reg.epoch.load(Ordering::Acquire) > epoch);
        let restored = view.resolve(&reg, 9).expect("the cached miss was dropped");
        assert_eq!(restored.counters.ledger.snapshot().served, 4);
    }

    #[test]
    fn layout_keeps_what_a_submit_touches_off_the_lines_workers_write() {
        let reg = TenantRegistry::new(5, 1);
        let record = reg.register(1, 1, OverloadPolicy::Delay).unwrap();
        let Tenant {
            id,
            reserved,
            policy,
            live,
            counters,
        } = &*record;
        // Read on every submit, written never (`live`: once).
        let mut spans = vec![
            span("id", id, Side::Submitter),
            span("reserved", reserved, Side::Submitter),
            span("policy", policy, Side::Submitter),
            span("live", live, Side::Submitter),
        ];
        spans.extend(counters.layout());
        assert_one_side_per_line(&*record, spans);
        // Measured; a tenant is one small allocation behind an `Arc`, and
        // growing it is a decision (run the RSS pre-check of the verify
        // skill when this moves).
        assert!(std::mem::size_of::<Tenant>() <= 168);
    }

    #[test]
    fn concurrent_registration_never_oversubscribes() {
        use std::sync::Arc as StdArc;
        let reg = StdArc::new(TenantRegistry::new(8, 4));
        let threads: Vec<_> = (0..16u64)
            .map(|id| {
                let reg = StdArc::clone(&reg);
                std::thread::spawn(move || reg.register(id, 1, OverloadPolicy::Delay).is_ok())
            })
            .collect();
        let admitted = threads
            .into_iter()
            .map(|t| t.join().unwrap())
            .filter(|&ok| ok)
            .count();
        assert_eq!(admitted, 8);
        assert_eq!(reg.headroom(), 0);
        assert_eq!(reg.all_tenants().len(), 8);
    }
}
