//! Sharded multi-tenant registry wrapping the paper's application-level
//! admission controller ([`AppAdmission`], §III-A) behind thread-safe
//! registration and a lock-striped hot lookup path.
//!
//! Registration (cold path) serializes on one mutex so the aggregate
//! reservation check against `S(M)` is atomic; per-request lookups (hot
//! path) only take a read lock on the tenant's shard.

use crate::metrics::TenantCounters;
use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::{Arc, Mutex, RwLock};
use crate::wal::Wal;
use fqos_core::{AppAdmission, OverloadPolicy};
use std::collections::HashMap;

/// Immutable per-tenant record handed out by lookups.
#[derive(Debug)]
pub struct Tenant {
    /// Tenant id.
    pub id: u64,
    /// Reserved per-interval request size (counts against `S(M)`).
    pub reserved: usize,
    /// What happens to this tenant's requests when a window is full.
    pub policy: OverloadPolicy,
    /// Serving counters, shared with the worker pool.
    pub counters: TenantCounters,
    /// Cleared on deregistration. The record itself stays in its shard so
    /// seal-time settlement can still credit in-flight admissions — a
    /// mid-window deregistration must not strand window-ring accounting.
    live: AtomicBool,
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
            admission: Mutex::new(AppAdmission::new(limit)),
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            wal,
        }
    }

    fn shard(&self, tenant: u64) -> &RwLock<HashMap<u64, Arc<Tenant>>> {
        // Multiplicative hash so consecutive tenant ids spread across shards.
        let h = tenant.wrapping_mul(0x9E3779B97F4A7C15);
        &self.shards[(h >> 32) as usize % self.shards.len()]
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
        // Replaces a departed record of the same id, if any. Counters start
        // fresh: a re-registered id is a new serving epoch (the old record's
        // already-sealed admissions settled against the old counters).
        self.shard(tenant)
            .write()
            .insert(tenant, Arc::clone(&record));
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
        self.shard(tenant).write().insert(tenant, record);
        Ok(())
    }

    /// Hot-path lookup: live tenants only (the admission path must not see
    /// departed records).
    pub fn get(&self, tenant: u64) -> Option<Arc<Tenant>> {
        self.shard(tenant)
            .read()
            .get(&tenant)
            .cloned()
            .filter(|t| t.is_live())
    }

    /// Seal-path lookup: resolves departed records too, so a request
    /// admitted before its tenant deregistered still settles against the
    /// tenant's counters.
    pub fn lookup_any(&self, tenant: u64) -> Option<Arc<Tenant>> {
        self.shard(tenant).read().get(&tenant).cloned()
    }

    /// Aggregate reservation currently admitted.
    pub fn reserved_total(&self) -> usize {
        self.admission.lock().total()
    }

    /// The aggregate reservation ceiling `S(M)` this registry admits up to
    /// (the healthy bound; per-window capacity tightens below it while
    /// devices are down — see [`crate::FaultPlane::degraded_limit`]).
    pub fn limit(&self) -> usize {
        let admission = self.admission.lock();
        admission.total() + admission.headroom()
    }

    /// Remaining admittable reservation.
    pub fn headroom(&self) -> usize {
        self.admission.lock().headroom()
    }

    /// All live tenants, sorted by id (reporting path).
    pub fn tenants(&self) -> Vec<Arc<Tenant>> {
        let mut all: Vec<Arc<Tenant>> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .values()
                    .filter(|t| t.is_live())
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_by_key(|t| t.id);
        all
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{Ledger, SettleKind};
    use std::sync::atomic::Ordering;

    #[test]
    fn table1_walkthrough_through_the_registry() {
        // §III-A with S = 5: sizes 2, 2, 1 admitted; the fourth tenant only
        // after one deregisters.
        let reg = TenantRegistry::new(5, 4);
        reg.register(1, 2, OverloadPolicy::Delay).unwrap();
        reg.register(2, 2, OverloadPolicy::Delay).unwrap();
        reg.register(3, 1, OverloadPolicy::Reject).unwrap();
        assert_eq!(reg.reserved_total(), 5);
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
        assert_eq!(reg.headroom(), 0);
        assert_eq!(reg.limit(), 5, "limit is invariant under churn");
        reg.deregister(1);
        assert_eq!(reg.limit(), 5);
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
        let ids: Vec<u64> = reg.tenants().iter().map(|t| t.id).collect();
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
        assert!(reg.tenants().is_empty());
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
        assert_eq!(reg.tenants().len(), 1);
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
        assert_eq!(reg.reserved_total(), 8);
        assert_eq!(reg.tenants().len(), 8);
    }
}
