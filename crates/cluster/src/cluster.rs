//! The cluster engine: N arrays behind one router and one control loop,
//! tolerant to whole-array fail-stop and fail-slow.
//!
//! # Failure model
//!
//! An array can *fail-stop* ([`QosCluster::kill_array`] or a scripted
//! `kill:A@T`): its engine halts without draining, stranding whatever was
//! admitted but not yet settled. The stranded difference is charged to the
//! fleet's `evacuation_lost` ledger the moment the engine halts, so the
//! cluster conservation law ([`ClusterMetrics::conserved`]: the fleet
//! ledger balances once `migrated_in_flight + evacuation_lost` are
//! accounted) holds throughout the outage, not just after repair. Detection is
//! decoupled from injection: the control loop heartbeats every slot once
//! per tick and handles report transport-level refusals; the health plane
//! (`crate::health`) turns those symptoms into a `Dead` verdict after
//! `DEAD_AFTER` (2) consecutive bad ticks, which triggers *emergency
//! evacuation* — the dead slot is tombstoned in the router and its tenants
//! are re-registered on survivors (register-on-target; the dead source has
//! nothing left to drain).
//!
//! [`QosCluster::restore_array`] brings a killed slot back. With a WAL the
//! engine rebuilds from its durable record ([`QosServer::recover`]) and the
//! ledger charge is reversed — losses re-appear as the engine's own
//! `fault_lost`/in-flight terms, and tenants the evacuation moved elsewhere
//! are reconciled into drain records. Without a WAL the slot restarts
//! empty, its frozen counters join the fleet's history and the stranded
//! residue stays lost.
//!
//! Membership is elastic: [`QosCluster::add_array`] grows the fleet at
//! runtime and [`QosCluster::remove_array`] retires a live slot gracefully
//! behind a router tombstone (re-registration on targets, cooperative
//! drain on the source).
//!
//! # One placement path
//!
//! Every tenant move — registration, migration, evacuation, retirement,
//! restore — routes the tenant in the [`Router`], `place`s it on a live
//! target and `drain`s it off its source. An evacuee whose own departed
//! record on its target still drains stays routed there, *pending*, until
//! a control tick places it. Migrations are `COOLDOWN_TICKS` (2) apart.
//!
//! # Lock order
//!
//! `cluster.ctrl` → `cluster.router` → `cluster.arrays` → `cluster.health`
//! → (engine classes). The control loop holds `ctrl` across a whole tick
//! and may acquire the router, the slot table and any array's registration
//! path beneath it; submission handles take the router lock alone on a
//! route-cache miss, the slot table read lock alone on an epoch refresh,
//! and the health lock alone to report refusals — never while inside an
//! array.

use crate::config::ClusterConfig;
use crate::ctrl::{
    pressure, ArrayObs, CtrlState, Drained, EvacuationEvent, RebalanceEvent, TenantObs,
};
use crate::error::ClusterError;
use crate::health::{ArrayHealth, ClusterFaultEvent, ClusterFaultKind, HealthPlane, Probe};
use crate::metrics::ClusterMetrics;
use crate::router::Router;
use fqos_server::{
    MetricsSnapshot, OverloadPolicy, QosServer, RegisterError, RejectReason, ServerConfig,
    SubmitOutcome, SubmitterHandle,
};
use fqos_sync::{Class, Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Ring points per array for the consistent-hash router.
const VNODES_PER_ARRAY: usize = 64;

/// Per-tick pressure (rejections + delays + over-budget overflow) at which
/// an array counts as saturated.
const MIN_PRESSURE: u64 = 1;

/// Minimum control ticks between two rebalances (hysteresis: a migration
/// must see its effect before the next one is considered).
const COOLDOWN_TICKS: u64 = 2;

/// What occupies an array slot. Slots are never removed — indices stay
/// stable for the router, the health plane and the audit — they change
/// state instead.
enum ArrayState {
    /// Serving (possibly retired, i.e. draining toward removal).
    Live(QosServer),
    /// Fail-stopped: the engine is gone; `frozen` is its last consistent
    /// snapshot and `cfg` is kept so `restore_array` can rebuild it.
    Dead {
        frozen: Box<MetricsSnapshot>,
        cfg: Box<ServerConfig>,
    },
    /// Transient placeholder while a mutation swaps the state; never
    /// observable outside a held write lock.
    Vacant,
}

/// One array slot: its engine (or corpse), identity and ledger hooks.
struct ArraySlot {
    state: ArrayState,
    /// Bumped whenever the slot gets a *new* engine (restore); handles
    /// compare it to know when their [`SubmitterHandle`] is stale.
    incarnation: u64,
    /// Frozen snapshots of prior fail-stopped incarnations that were not
    /// WAL-reconciled (fresh restarts). Their counters stay in the fleet's
    /// history; their stranded residue stays in `evacuation_lost`.
    past: Vec<MetricsSnapshot>,
    /// Graceful removal: tombstoned in the router, still settling its
    /// drain, excluded from placement, probing and migration.
    retired: bool,
    /// `(ε, S(M))` for the controller's budget algebra.
    budget: (f64, usize),
    /// Submissions routed to this slot (handle-side count).
    routed: Arc<AtomicU64>,
}

impl ArraySlot {
    /// A live slot around a new engine.
    fn new(server: QosServer) -> Self {
        let qos = &server.config().qos;
        ArraySlot {
            budget: (qos.epsilon, qos.request_limit()),
            state: ArrayState::Live(server),
            incarnation: 0,
            past: Vec::new(),
            retired: false,
            routed: Arc::new(AtomicU64::new(0)),
        }
    }
}

/// State shared between the cluster, its controller and every handle.
struct Shared {
    /// Controller state (lock class `cluster.ctrl`).
    ctrl: Mutex<CtrlState>,
    /// Tenant placement (lock class `cluster.router`).
    router: Mutex<Router>,
    /// The slot table (lock class `cluster.arrays`). Readers are handles
    /// refreshing their engine views and the control loop's probe pass;
    /// writers are membership changes (kill/restore/add/remove).
    arrays: RwLock<Vec<ArraySlot>>,
    /// The array health plane (lock class `cluster.health`).
    health: Mutex<HealthPlane>,
    /// Bumped on every placement or membership change; handles
    /// compare-and-refresh their route caches and engine views against it.
    epoch: AtomicU64,
    /// Submissions refused at the router (no assignment).
    unrouted: AtomicU64,
    /// Migrations executed.
    rebalances: AtomicU64,
    /// Admissions stranded on fail-stopped arrays, net of WAL-restore
    /// reversals: the `evacuation_lost` term of the extended law.
    evacuation_lost: AtomicU64,
    /// Tenants re-registered on survivors by emergency evacuations.
    evacuated_tenants: AtomicU64,
    /// Submissions refused at the transport level because the routed
    /// array was fail-stopped (each also feeds the health plane).
    refused_unavailable: AtomicU64,
}

/// Admissions a snapshot admitted but never settled: the stranded work a
/// fail-stop leaves behind, charged to `evacuation_lost`.
fn residue(s: &MetricsSnapshot) -> u64 {
    s.ledger().in_flight()
}

/// Unsettled admissions of drained tenants on their source arrays: the
/// `migrated_in_flight` term of the cluster law. Counts only departed
/// records on *live* sources — a frozen (dead) source's whole residue is
/// already in `evacuation_lost`, and a tenant that later returned to
/// `from` is live there again and accounted normally.
fn migrated_in_flight(ctrl: &CtrlState, snaps: &[MetricsSnapshot], frozen: &[bool]) -> u64 {
    ctrl.drained
        .iter()
        .filter(|d| !frozen.get(d.from).copied().unwrap_or(false))
        .map(|d| {
            snaps[d.from]
                .tenants
                .iter()
                .find(|t| t.tenant == d.tenant && !t.live)
                .map_or(0, fqos_server::TenantSnapshot::in_flight)
        })
        .sum()
}

/// Assemble the fleet metrics from a consistent view of all planes.
#[allow(
    clippy::too_many_arguments,
    reason = "one argument per plane of the caller's consistent view"
)]
fn fleet_metrics(
    shared: &Shared,
    ctrl: &CtrlState,
    liveness: &HealthPlane,
    snaps: Vec<MetricsSnapshot>,
    frozen: Vec<bool>,
    retired: Vec<bool>,
    past: Vec<MetricsSnapshot>,
    routed: Vec<u64>,
) -> ClusterMetrics {
    ClusterMetrics {
        migrated_in_flight: migrated_in_flight(ctrl, &snaps, &frozen),
        routed,
        unrouted: shared.unrouted.load(Ordering::Relaxed),
        rebalances: shared.rebalances.load(Ordering::Relaxed),
        router_epoch: shared.epoch.load(Ordering::Acquire),
        evacuation_lost: shared.evacuation_lost.load(Ordering::Relaxed),
        evacuated_tenants: shared.evacuated_tenants.load(Ordering::Relaxed),
        refused_unavailable: shared.refused_unavailable.load(Ordering::Relaxed),
        health: liveness.states(),
        health_suspects: liveness.suspects,
        health_verdicts_dead: liveness.verdicts_dead,
        health_verdicts_slow: liveness.verdicts_slow,
        health_recoveries: liveness.recoveries,
        events: ctrl.events.clone(),
        evacuations: ctrl.evacuations.clone(),
        arrays: snaps,
        frozen,
        retired,
        past,
    }
}

/// The engine of a live, non-retired `array`: the only kind of slot a
/// tenant may be placed on.
fn live_server(arrays: &[ArraySlot], array: usize) -> Result<&QosServer, ClusterError> {
    match arrays.get(array) {
        None => Err(ClusterError::UnknownArray {
            array,
            arrays: arrays.len(),
        }),
        Some(ArraySlot {
            state: ArrayState::Live(server),
            retired: false,
            ..
        }) => Ok(server),
        Some(_) => Err(ClusterError::ArrayNotLive { array }),
    }
}

/// The steps every tenant move is made of (module docs, "One placement
/// path"). Callers hold the router and the slot table.
impl CtrlState {
    /// Register `tenant` on `to` with `weight` and the directory's policy.
    fn place(
        &mut self,
        arrays: &[ArraySlot],
        tenant: u64,
        to: usize,
        weight: usize,
    ) -> Result<(), ClusterError> {
        let policy = self.directory.get(&tenant).copied().unwrap_or_default();
        live_server(arrays, to)?
            .register(tenant, weight, policy)
            .map_err(|source| ClusterError::ArrayRefused {
                array: to,
                tenant,
                source,
            })?;
        self.pending.remove(&tenant);
        Ok(())
    }

    /// Cooperative drain: `from` frees `tenant`'s reservation now and
    /// settles its in-flight admissions at its own seals, counted in
    /// `migrated_in_flight` until then. A dead source has nothing to drain.
    fn drain(&mut self, arrays: &[ArraySlot], tenant: u64, from: usize) {
        if let ArrayState::Live(server) = &arrays[from].state {
            if server.deregister(tenant).is_some() {
                self.drained.insert(Drained { tenant, from });
            }
        }
    }

    /// Take `array` off the ring and place each tenant it displaces on the
    /// survivor the ring picked. A tenant whose own departed record there
    /// is still draining stays routed to it, pending; one nobody has room
    /// for is released and must re-register. Returns `(tenant, new
    /// array)`, `None` = unplaced.
    fn rehome(
        &mut self,
        router: &mut Router,
        arrays: &[ArraySlot],
        array: usize,
    ) -> Vec<(u64, Option<usize>)> {
        router
            .tombstone_array(array)
            .into_iter()
            .map(|(tenant, target)| {
                let weight = router.assignment(tenant).map_or(1, |a| a.weight);
                let placed = target.filter(|&to| match self.place(arrays, tenant, to, weight) {
                    Ok(()) => true,
                    Err(ClusterError::ArrayRefused {
                        source: RegisterError::DrainPending { .. },
                        ..
                    }) => {
                        self.pending.insert(tenant, to);
                        true
                    }
                    Err(_) => false,
                });
                if placed.is_none() {
                    router.release(tenant);
                    self.directory.remove(&tenant);
                }
                (tenant, placed)
            })
            .collect()
    }

    /// Register the pending tenants whose departed records have drained.
    /// One routed elsewhere since, or released, has nothing to wait for.
    fn retry_pending(&mut self, router: &Router, arrays: &[ArraySlot]) {
        for (tenant, to) in std::mem::take(&mut self.pending) {
            if let Some(a) = router.assignment(tenant).filter(|a| a.array == to) {
                if self.place(arrays, tenant, to, a.weight).is_err() {
                    self.pending.insert(tenant, to);
                }
            }
        }
    }
}

/// N independent [`QosServer`] arrays behind a consistent-hash routing
/// tier with an ε-budget rebalancing control loop and an array health
/// plane (fail-stop detection, emergency evacuation, elastic membership).
///
/// Each array runs the paper's §III-A admission controller unchanged; the
/// cluster only decides *which* array a tenant lives on, watches per-array
/// pressure and liveness, and moves tenants — by migration when an array
/// saturates, by evacuation when one dies.
pub struct QosCluster {
    shared: Arc<Shared>,
    cfg: ClusterConfig,
}

impl QosCluster {
    /// Build every array, the routing tier and the health plane.
    pub fn new(cfg: ClusterConfig) -> Result<Self, ClusterError> {
        cfg.validate()?;
        let slots: Vec<ArraySlot> = cfg
            .arrays
            .iter()
            .enumerate()
            .map(|(array, a)| {
                QosServer::new(a.clone())
                    .map(ArraySlot::new)
                    .map_err(|source| ClusterError::Engine { array, source })
            })
            .collect::<Result<_, _>>()?;
        let capacities: Vec<usize> = slots.iter().map(|s| s.budget.1).collect();
        let shared = Arc::new(Shared {
            ctrl: Mutex::new(Class::ClusterCtrl, CtrlState::default()),
            router: Mutex::new(
                Class::ClusterRouter,
                Router::new(&capacities, VNODES_PER_ARRAY),
            ),
            health: Mutex::new(Class::ClusterHealth, HealthPlane::new(slots.len())),
            arrays: RwLock::new(Class::ClusterArrays, slots),
            epoch: AtomicU64::new(0),
            unrouted: AtomicU64::new(0),
            rebalances: AtomicU64::new(0),
            evacuation_lost: AtomicU64::new(0),
            evacuated_tenants: AtomicU64::new(0),
            refused_unavailable: AtomicU64::new(0),
        });
        Ok(QosCluster { shared, cfg })
    }

    /// Number of array slots in the fleet (live, dead and retired — slots
    /// are never removed, so indices stay stable).
    pub fn arrays(&self) -> usize {
        self.shared.arrays.read().len()
    }

    /// The array a tenant currently routes to.
    pub fn route_of(&self, tenant: u64) -> Option<usize> {
        self.shared.router.lock().route(tenant)
    }

    /// Current router epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Current health verdict per slot.
    pub fn health(&self) -> Vec<ArrayHealth> {
        self.shared.health.lock().states()
    }

    /// Current `evacuation_lost` ledger balance.
    pub fn evacuation_lost(&self) -> u64 {
        self.shared.evacuation_lost.load(Ordering::Relaxed)
    }

    /// Register a tenant: the router places it (consistent hashing with
    /// bounded loads), the chosen array admits the reservation against its
    /// own `S(M)`. Returns the array index.
    pub fn register_tenant(
        &self,
        tenant: u64,
        reserved: usize,
        policy: OverloadPolicy,
    ) -> Result<usize, ClusterError> {
        self.register(tenant, reserved, policy, None)
    }

    /// Register a tenant on a specific array, bypassing the ring (skew
    /// scenarios, `--pin`). Still bounded by the array's load bound.
    pub fn register_pinned(
        &self,
        array: usize,
        tenant: u64,
        reserved: usize,
        policy: OverloadPolicy,
    ) -> Result<(), ClusterError> {
        self.register(tenant, reserved, policy, Some(array))
            .map(drop)
    }

    /// Route `tenant` — on the ring, or on `pin` within its load bound —
    /// then place it there; a refusal undoes the route.
    fn register(
        &self,
        tenant: u64,
        reserved: usize,
        policy: OverloadPolicy,
        pin: Option<usize>,
    ) -> Result<usize, ClusterError> {
        let mut ctrl = self.shared.ctrl.lock();
        let mut router = self.shared.router.lock();
        let arrays = self.shared.arrays.read();
        let array = match pin {
            None => router
                .assign(tenant, reserved)
                .ok_or(ClusterError::NoHeadroom { tenant, reserved })?,
            Some(array) => {
                live_server(&arrays, array)?;
                if !router.assign_pinned(tenant, array, reserved) {
                    return Err(ClusterError::ArrayFull {
                        array,
                        tenant,
                        reserved,
                    });
                }
                array
            }
        };
        ctrl.directory.insert(tenant, policy);
        if let Err(e) = ctrl.place(&arrays, tenant, array, reserved) {
            // The ring can still point at a killed slot before the Dead
            // verdict tombstones it; the caller can retry after a tick.
            router.release(tenant);
            ctrl.directory.remove(&tenant);
            return Err(e);
        }
        Ok(array)
    }

    /// Deregister a tenant fleet-wide. Its reservation frees immediately;
    /// in-flight admissions still settle on its array (departed records
    /// stay resolvable at seal).
    pub fn deregister_tenant(&self, tenant: u64) -> bool {
        let mut ctrl = self.shared.ctrl.lock();
        let mut router = self.shared.router.lock();
        let Some(array) = router.route(tenant) else {
            return false;
        };
        router.release(tenant);
        ctrl.directory.remove(&tenant);
        let pending = ctrl.pending.remove(&tenant).is_some();
        drop(router);
        drop(ctrl);
        self.shared.epoch.fetch_add(1, Ordering::AcqRel);
        let arrays = self.shared.arrays.read();
        match &arrays[array].state {
            ArrayState::Live(server) => server.deregister(tenant).is_some() || pending,
            // The engine died with the registration; the route existed, so
            // the deregistration "succeeds" — the stranded work is already
            // charged to evacuation_lost.
            _ => true,
        }
    }

    /// A submission endpoint spanning every array (one per submitter
    /// thread, same discipline as [`QosServer::handle`]).
    pub fn handle(&self) -> ClusterHandle {
        let mut h = ClusterHandle {
            slots: Vec::new(),
            epoch: u64::MAX,
            shared: Arc::clone(&self.shared),
            cache: HashMap::new(),
        };
        h.refresh();
        h
    }

    /// Fail-stop `array` *now*: its engine halts without draining (queued
    /// work finishes, open windows never seal) and the stranded residue is
    /// charged to `evacuation_lost` so the extended law holds during the
    /// outage. The router is *not* touched — discovering the corpse is the
    /// health plane's job, which makes the detection latency observable.
    /// Returns the stranded admission count.
    pub fn kill_array(&self, array: usize) -> Result<u64, ClusterError> {
        let mut arrays = self.shared.arrays.write();
        let total = arrays.len();
        let slot = arrays.get_mut(array).ok_or(ClusterError::UnknownArray {
            array,
            arrays: total,
        })?;
        if slot.retired {
            return Err(ClusterError::ArrayNotLive { array });
        }
        match std::mem::replace(&mut slot.state, ArrayState::Vacant) {
            ArrayState::Live(server) => {
                let cfg = Box::new(server.config().clone());
                let frozen = Box::new(server.halt());
                let stranded = residue(&frozen);
                slot.state = ArrayState::Dead { frozen, cfg };
                drop(arrays);
                self.shared
                    .evacuation_lost
                    .fetch_add(stranded, Ordering::Relaxed);
                // Handles drop their dead SubmitterHandle on the next
                // refresh and start reporting transport refusals.
                self.shared.epoch.fetch_add(1, Ordering::AcqRel);
                Ok(stranded)
            }
            other => {
                slot.state = other;
                Err(ClusterError::ArrayNotLive { array })
            }
        }
    }

    /// Bring a fail-stopped `array` back. With a WAL the engine recovers
    /// its durable record and the `evacuation_lost` charge is reversed
    /// (losses re-surface as the engine's own accounting); tenants the
    /// evacuation already moved to survivors are deregistered here and
    /// become drain records. Without a WAL the slot restarts empty and its
    /// frozen history is archived. Returns `true` when the engine
    /// recovered from a WAL.
    pub fn restore_array(&self, array: usize) -> Result<bool, ClusterError> {
        let mut ctrl = self.shared.ctrl.lock();
        self.restore_slot(&mut ctrl, array)
    }

    /// Grow the fleet: build a new array at runtime and add it to the
    /// ring. Existing placements do not move (stability under scale-out);
    /// the control loop migrates hot tenants onto the new headroom on its
    /// own cadence. Returns the new slot index.
    pub fn add_array(&self, cfg: ServerConfig) -> Result<usize, ClusterError> {
        let mut router = self.shared.router.lock();
        let mut arrays = self.shared.arrays.write();
        let array = arrays.len();
        let slot = QosServer::new(cfg)
            .map(ArraySlot::new)
            .map_err(|source| ClusterError::Engine { array, source })?;
        let ring_index = router.add_array(slot.budget.1);
        debug_assert_eq!(ring_index, array, "router and slot table diverged");
        arrays.push(slot);
        drop(arrays);
        drop(router);
        self.shared.health.lock().push_array();
        self.shared.epoch.fetch_add(1, Ordering::AcqRel);
        Ok(array)
    }

    /// Retire a live `array` gracefully: tombstone it in the router,
    /// re-register its tenants on survivors (transactional, same shape as
    /// a migration) and cooperatively drain the source — it keeps settling
    /// in-flight admissions until [`QosCluster::finish`]. Returns the
    /// `(tenant, new_array)` placements (`None` = nobody could take it).
    pub fn remove_array(&self, array: usize) -> Result<Vec<(u64, Option<usize>)>, ClusterError> {
        let mut ctrl = self.shared.ctrl.lock();
        let mut router = self.shared.router.lock();
        let mut arrays = self.shared.arrays.write();
        live_server(&arrays, array)?;
        if !(0..arrays.len()).any(|i| i != array && live_server(&arrays, i).is_ok()) {
            return Err(ClusterError::LastArray { array });
        }
        let placements = ctrl.rehome(&mut router, &arrays, array);
        for &(tenant, _) in &placements {
            ctrl.drain(&arrays, tenant, array);
        }
        arrays[array].retired = true;
        drop(arrays);
        drop(router);
        self.shared.epoch.fetch_add(1, Ordering::AcqRel);
        Ok(placements)
    }

    fn restore_slot(&self, ctrl: &mut CtrlState, array: usize) -> Result<bool, ClusterError> {
        let mut router = self.shared.router.lock();
        let mut arrays = self.shared.arrays.write();
        let total = arrays.len();
        let slot = arrays.get_mut(array).ok_or(ClusterError::UnknownArray {
            array,
            arrays: total,
        })?;
        let (frozen, cfg) = match std::mem::replace(&mut slot.state, ArrayState::Vacant) {
            ArrayState::Dead { frozen, cfg } => (frozen, cfg),
            other => {
                slot.state = other;
                return Err(ClusterError::ArrayNotDead { array });
            }
        };
        let recovered = cfg.wal.is_some();
        let built = if recovered {
            QosServer::recover((*cfg).clone())
        } else {
            QosServer::new((*cfg).clone())
        };
        let server = match built {
            Ok(s) => s,
            Err(source) => {
                // Put the corpse back; the slot stays dead.
                slot.state = ArrayState::Dead { frozen, cfg };
                return Err(ClusterError::Engine { array, source });
            }
        };
        // Tenants the evacuation moved to survivors while this slot was
        // dead (only a recovered registry has any).
        let moved_off: Vec<u64> = server
            .metrics()
            .tenants
            .iter()
            .filter(|t| t.live && router.route(t.tenant) != Some(array))
            .map(|t| t.tenant)
            .collect();
        slot.state = ArrayState::Live(server);
        slot.incarnation += 1;
        if recovered {
            // The durable record supersedes the frozen counters: reverse
            // the ledger charge — what was stranded is now re-parked
            // in-flight or the engine's own fault_lost. The moved tenants'
            // recovered registrations drain: their durable in-flight
            // settles here as departed records (migrated_in_flight).
            self.shared
                .evacuation_lost
                .fetch_sub(residue(&frozen), Ordering::Relaxed);
            for tenant in moved_off {
                ctrl.drain(&arrays, tenant, array);
            }
        } else {
            // No log: the frozen counters are permanent history and the
            // stranded residue stays lost. A fresh engine also lost its
            // registry — rebuild it for tenants still routed here (restore
            // raced the Dead verdict).
            slot.past.push(*frozen);
            for (tenant, a) in router.assignments() {
                if a.array == array {
                    let _ = ctrl.place(&arrays, tenant, array, a.weight);
                }
            }
        }
        router.revive_array(array);
        drop(arrays);
        drop(router);
        self.shared.health.lock().reset(array);
        self.shared.epoch.fetch_add(1, Ordering::AcqRel);
        Ok(recovered)
    }

    /// Run `f` on every device of `array`, if it is live (scripted
    /// whole-array slow and heal events).
    fn each_device(&self, array: usize, f: impl Fn(&QosServer, usize)) {
        let arrays = self.shared.arrays.read();
        if let Some(ArraySlot {
            state: ArrayState::Live(server),
            ..
        }) = arrays.get(array)
        {
            (0..server.fault_plane().devices()).for_each(|d| f(server, d));
        }
    }

    /// Emergency evacuation of a `Dead`-verdicted slot: tombstone it in
    /// the router (ring re-placement picks the survivors) and re-register
    /// each displaced tenant on its target from the policy directory.
    /// There is no source-side drain — the dead engine is gone and its
    /// stranded in-flight was charged to `evacuation_lost` when it halted.
    fn evacuate(&self, ctrl: &mut CtrlState, dead: usize, tick: u64) {
        let mut router = self.shared.router.lock();
        let arrays = self.shared.arrays.read();
        let mut event = EvacuationEvent {
            tick,
            array: dead,
            moved: Vec::new(),
            unplaced: Vec::new(),
        };
        for (tenant, to) in ctrl.rehome(&mut router, &arrays, dead) {
            match to {
                Some(to) => event.moved.push((tenant, to)),
                None => event.unplaced.push(tenant),
            }
        }
        drop(arrays);
        drop(router);
        self.shared
            .evacuated_tenants
            .fetch_add(event.moved.len() as u64, Ordering::Relaxed);
        self.shared.epoch.fetch_add(1, Ordering::AcqRel);
        ctrl.evacuations.push(event);
    }

    /// One pass of the global control loop, intended to run once per
    /// window boundary. In order: apply scripted chaos events, register
    /// pending tenants whose departed records have drained, heartbeat
    /// every slot (feeding the health plane), evacuate fresh `Dead`
    /// verdicts, then differentiate pressure and (maybe) migrate the
    /// hottest tenant off a saturated array.
    pub fn control_tick(&self) -> Option<RebalanceEvent> {
        let mut ctrl = self.shared.ctrl.lock();
        ctrl.tick += 1;
        let tick = ctrl.tick;

        // Scripted whole-array faults fire at the start of their tick.
        let due: Vec<ClusterFaultEvent> = self.cfg.chaos.at(tick).copied().collect();
        for e in due {
            match e.kind {
                ClusterFaultKind::Kill => {
                    let _ = self.kill_array(e.array);
                }
                ClusterFaultKind::Restore => {
                    // A dead slot restarts; a live (degraded) one heals.
                    if self.restore_slot(&mut ctrl, e.array).is_err() {
                        self.each_device(e.array, |s, d| drop(s.restore_device(d)));
                    }
                }
                ClusterFaultKind::Slow(factor) => {
                    self.each_device(e.array, |s, d| drop(s.degrade_device(d, factor)));
                }
            }
        }

        if !ctrl.pending.is_empty() {
            let router = self.shared.router.lock();
            let arrays = self.shared.arrays.read();
            ctrl.retry_pending(&router, &arrays);
        }

        // Heartbeat probes → health verdicts, plus this tick's observation
        // set, all under one consistent read of the slot table.
        let arrays = self.shared.arrays.read();
        let mut verdicts = Vec::new();
        let mut liveness = self.shared.health.lock();
        for (i, slot) in arrays.iter().enumerate() {
            if slot.retired {
                continue;
            }
            let probe = match &slot.state {
                ArrayState::Live(s) => Probe {
                    alive: true,
                    slow: s.fault_plane().live_slow_mask() != 0,
                },
                _ => Probe {
                    alive: false,
                    slow: false,
                },
            };
            if liveness.observe(i, probe) == Some(ArrayHealth::Dead) {
                verdicts.push(i);
            }
        }
        let healths = liveness.states();
        drop(liveness);
        let snaps: Vec<Option<MetricsSnapshot>> = arrays
            .iter()
            .map(|s| match &s.state {
                ArrayState::Live(sv) => Some(sv.metrics()),
                _ => None,
            })
            .collect();
        let budgets: Vec<(f64, usize)> = arrays.iter().map(|s| s.budget).collect();
        let headrooms: Vec<usize> = arrays
            .iter()
            .map(|s| match &s.state {
                ArrayState::Live(sv) => sv.headroom(),
                _ => 0,
            })
            .collect();
        let retired: Vec<bool> = arrays.iter().map(|s| s.retired).collect();
        drop(arrays);

        // Emergency evacuation on each fresh Dead verdict.
        for dead in verdicts {
            self.evacuate(&mut ctrl, dead, tick);
        }

        let obs: Vec<ArrayObs> = snaps
            .iter()
            .enumerate()
            .map(|(i, s)| match s {
                Some(s) => ArrayObs {
                    rejected: s.rejected,
                    delayed: s.delayed,
                    overflow: s.overflow,
                },
                // A dead slot keeps its previous basis: a WAL-recovered
                // engine restores counters near it, so restoration does
                // not read as a pressure spike.
                None => ctrl.prev.get(i).copied().unwrap_or_default(),
            })
            .collect();
        let pressures: Vec<u64> = obs
            .iter()
            .enumerate()
            .map(|(i, &now)| {
                if snaps[i].is_none() || retired[i] {
                    return 0;
                }
                let prev = ctrl.prev.get(i).copied().unwrap_or_default();
                let delta = ArrayObs {
                    rejected: now.rejected.saturating_sub(prev.rejected),
                    delayed: now.delayed.saturating_sub(prev.delayed),
                    overflow: now.overflow.saturating_sub(prev.overflow),
                };
                pressure(delta, budgets[i].0, budgets[i].1)
            })
            .collect();

        let decision =
            self.pick_migration(&ctrl, &snaps, &pressures, &healths, &retired, &headrooms);

        // Re-baseline the differentiators before (maybe) migrating, so the
        // next tick measures the post-migration regime.
        ctrl.prev = obs;
        for (i, s) in snaps.iter().enumerate() {
            let Some(s) = s else { continue };
            for t in &s.tenants {
                if t.live {
                    ctrl.prev_tenants.insert(
                        (i, t.tenant),
                        TenantObs {
                            rejected: t.rejected,
                            delayed: t.delayed,
                            overflow: t.overflow,
                            admitted_total: t.ledger().admitted_total(),
                        },
                    );
                } else {
                    // A departed record's counters are frozen; keeping its
                    // baseline would poison the delta if the tenant ever
                    // re-registers here with fresh (near-zero) counters.
                    ctrl.prev_tenants.remove(&(i, t.tenant));
                }
            }
        }

        let (tenant, from, to, demand) = decision?;
        // Commit under the router lock so no handle can observe a
        // half-moved placement. Router first — it is the only step that
        // can refuse for load — then the placement on the target (rolled
        // back on refusal), then the source drain, which cannot fail.
        let mut router = self.shared.router.lock();
        // Deregistered or moved concurrently: nothing to move.
        let old = router.assignment(tenant).filter(|a| a.array == from)?;
        // Size the new reservation to observed demand, bounded by what the
        // calmest target can actually admit.
        let reserved = demand.max(old.weight).min(headrooms[to]);
        if reserved < old.weight || !router.reassign(tenant, to, reserved) {
            return None; // nowhere better than home
        }
        let arrays = self.shared.arrays.read();
        if ctrl.place(&arrays, tenant, to, reserved).is_err() {
            // Undo the routing; neither engine was touched yet (the
            // source always has room for the weight it just freed).
            router.reassign(tenant, from, old.weight);
            return None;
        }
        ctrl.drain(&arrays, tenant, from);
        drop(arrays);
        drop(router);
        self.shared.epoch.fetch_add(1, Ordering::AcqRel);
        self.shared.rebalances.fetch_add(1, Ordering::Relaxed);
        ctrl.last_rebalance = Some(tick);
        let event = RebalanceEvent {
            tick,
            tenant,
            from,
            to,
            reserved,
        };
        ctrl.events.push(event.clone());
        Some(event)
    }

    /// Choose `(tenant, from, to, demand)` for this tick, or `None` when
    /// the fleet is calm, cooling down, or out of healthy headroom. Slow
    /// and dead slots are never targets; dead and retired slots are never
    /// sources.
    fn pick_migration(
        &self,
        ctrl: &CtrlState,
        snaps: &[Option<MetricsSnapshot>],
        pressures: &[u64],
        healths: &[ArrayHealth],
        retired: &[bool],
        headrooms: &[usize],
    ) -> Option<(u64, usize, usize, usize)> {
        if !self.cfg.rebalance {
            return None;
        }
        if let Some(last) = ctrl.last_rebalance {
            if ctrl.tick - last <= COOLDOWN_TICKS {
                return None;
            }
        }
        let (from, &hot) = pressures.iter().enumerate().max_by_key(|&(_, &p)| p)?;
        if hot < MIN_PRESSURE {
            return None;
        }
        let snap = snaps[from].as_ref()?;
        // Hottest live tenant on the saturated array, by pressure delta.
        // Saturating: the baseline is pruned on departure, but a torn
        // snapshot could still read a counter below its basis.
        let tenant_delta = |t: &fqos_server::TenantSnapshot| {
            let prev = ctrl
                .prev_tenants
                .get(&(from, t.tenant))
                .copied()
                .unwrap_or_default();
            let rejected = t.rejected.saturating_sub(prev.rejected);
            let delayed = t.delayed.saturating_sub(prev.delayed);
            let overflow = t.overflow.saturating_sub(prev.overflow);
            let admitted_total = t
                .ledger()
                .admitted_total()
                .saturating_sub(prev.admitted_total);
            (rejected + delayed + overflow, admitted_total + rejected)
        };
        let (candidate, tenant_pressure, demand) = snap
            .tenants
            .iter()
            .filter(|t| t.live)
            .map(|t| {
                let (p, d) = tenant_delta(t);
                (t, p, d)
            })
            .max_by_key(|&(t, p, _)| (p, t.tenant))?;
        if tenant_pressure == 0 {
            return None;
        }
        let (to, _) = (0..snaps.len())
            .filter(|&i| {
                i != from
                    && !retired[i]
                    && snaps[i].is_some()
                    && pressures[i] < MIN_PRESSURE
                    && matches!(healths[i], ArrayHealth::Healthy | ArrayHealth::Suspect)
            })
            .map(|i| (i, headrooms[i]))
            .max_by_key(|&(i, h)| (h, usize::MAX - i))?;
        Some((candidate.tenant, from, to, demand as usize))
    }

    /// Live fleet snapshot (mid-run the law holds up to in-flight work;
    /// see [`ClusterMetrics::in_flight_total`]).
    pub fn metrics(&self) -> ClusterMetrics {
        let ctrl = self.shared.ctrl.lock();
        let arrays = self.shared.arrays.read();
        let mut snaps = Vec::with_capacity(arrays.len());
        let mut frozen = Vec::with_capacity(arrays.len());
        let mut retired = Vec::with_capacity(arrays.len());
        let mut routed = Vec::with_capacity(arrays.len());
        let mut past = Vec::new();
        for slot in arrays.iter() {
            past.extend(slot.past.iter().cloned());
            retired.push(slot.retired);
            routed.push(slot.routed.load(Ordering::Relaxed));
            match &slot.state {
                ArrayState::Live(server) => {
                    frozen.push(false);
                    snaps.push(server.metrics());
                }
                ArrayState::Dead { frozen: f, .. } => {
                    frozen.push(true);
                    snaps.push(f.as_ref().clone());
                }
                ArrayState::Vacant => unreachable!("vacant slot outside a held write lock"),
            }
        }
        drop(arrays);
        let liveness = self.shared.health.lock();
        fleet_metrics(
            &self.shared,
            &ctrl,
            &liveness,
            snaps,
            frozen,
            retired,
            past,
            routed,
        )
    }

    /// Seal and drain every live array (dead slots contribute their frozen
    /// snapshots), then return the final fleet metrics. The cluster
    /// conservation audit is printed; callers should also assert
    /// [`ClusterMetrics::conserved`].
    pub fn finish(self) -> ClusterMetrics {
        let QosCluster { shared, .. } = self;
        let mut arrays = shared.arrays.write();
        let mut finals = Vec::with_capacity(arrays.len());
        let mut frozen = Vec::with_capacity(arrays.len());
        let mut retired = Vec::with_capacity(arrays.len());
        let mut routed = Vec::with_capacity(arrays.len());
        let mut past = Vec::new();
        for slot in arrays.iter_mut() {
            past.append(&mut slot.past);
            retired.push(slot.retired);
            routed.push(slot.routed.load(Ordering::Relaxed));
            match std::mem::replace(&mut slot.state, ArrayState::Vacant) {
                ArrayState::Live(server) => {
                    frozen.push(false);
                    finals.push(server.finish());
                }
                ArrayState::Dead { frozen: f, .. } => {
                    frozen.push(true);
                    finals.push(*f);
                }
                ArrayState::Vacant => unreachable!("vacant slot outside a held write lock"),
            }
        }
        drop(arrays);
        let ctrl = shared.ctrl.lock();
        let liveness = shared.health.lock();
        let metrics = fleet_metrics(
            &shared, &ctrl, &liveness, finals, frozen, retired, past, routed,
        );
        println!("{}", metrics.render_audit());
        metrics
    }
}

/// One array's view inside a [`ClusterHandle`]: the submitter handle (if
/// the slot is alive), the engine incarnation it was built against, and
/// the slot's routed counter.
struct HandleSlot {
    handle: Option<SubmitterHandle>,
    incarnation: u64,
    routed: Arc<AtomicU64>,
}

/// A per-thread submission endpoint spanning the fleet. Routes each
/// submission to its tenant's array and keeps time moving on the others
/// (watermark advance), so every array's windows seal at trace cadence.
///
/// Routing reads a per-handle cache validated against the cluster epoch;
/// the router lock is only taken on a miss. The engine views refresh the
/// same way, so a fail-stopped or restored array is picked up without any
/// locking on the steady-state path. A submission routed to a
/// fail-stopped slot is retried (bounded) against fresh routes — an
/// evacuation racing the submit wins — and otherwise refused as
/// [`RejectReason::ArrayUnavailable`], never a hang or a spurious
/// `UnknownTenant`.
pub struct ClusterHandle {
    slots: Vec<HandleSlot>,
    epoch: u64,
    shared: Arc<Shared>,
    cache: HashMap<u64, (u64, usize)>,
}

impl ClusterHandle {
    /// Bounded retries against refreshed routes before a submission is
    /// refused as `ArrayUnavailable` (one verdict-racing evacuation plus
    /// slack).
    const SUBMIT_RETRIES: usize = 3;

    /// Re-sync the engine views with the slot table when the cluster
    /// epoch moved (membership change, migration, kill or restore).
    fn refresh(&mut self) {
        let epoch = self.shared.epoch.load(Ordering::Acquire);
        if epoch == self.epoch {
            return;
        }
        let arrays = self.shared.arrays.read();
        for (i, slot) in arrays.iter().enumerate() {
            if i == self.slots.len() {
                self.slots.push(HandleSlot {
                    handle: None,
                    incarnation: u64::MAX,
                    routed: Arc::clone(&slot.routed),
                });
            }
            let hs = &mut self.slots[i];
            match &slot.state {
                ArrayState::Live(server) => {
                    if hs.incarnation != slot.incarnation || hs.handle.is_none() {
                        hs.handle = Some(server.handle());
                        hs.incarnation = slot.incarnation;
                    }
                }
                _ => {
                    hs.handle = None;
                    hs.incarnation = slot.incarnation;
                }
            }
        }
        drop(arrays);
        self.epoch = epoch;
    }

    fn force_refresh(&mut self) {
        self.epoch = u64::MAX;
        self.refresh();
    }

    /// Submit one block read for `tenant` at `arrival_ns`; per-handle
    /// arrival times must be non-decreasing, as with
    /// [`SubmitterHandle::submit`].
    pub fn submit(&mut self, tenant: u64, lbn: u64, arrival_ns: u64) -> SubmitOutcome {
        self.refresh();
        let mut saw_dead = false;
        for attempt in 1..=Self::SUBMIT_RETRIES {
            let Some(array) = self.routed_array(tenant) else {
                self.shared.unrouted.fetch_add(1, Ordering::Relaxed);
                // An evacuation that found no survivor releases the
                // tenant; report the outage, not an unknown tenant.
                return SubmitOutcome::Rejected(if saw_dead {
                    RejectReason::ArrayUnavailable
                } else {
                    RejectReason::UnknownTenant
                });
            };
            if array >= self.slots.len() {
                // The route is from a newer topology than our slot view.
                self.force_refresh();
                if array >= self.slots.len() {
                    return SubmitOutcome::Rejected(RejectReason::UnknownTenant);
                }
            }
            // Idle arrays still see time pass: an open handle that never
            // advances its watermark would pin their windows open forever.
            for (i, hs) in self.slots.iter_mut().enumerate() {
                if i != array {
                    if let Some(h) = hs.handle.as_mut() {
                        h.advance_to(arrival_ns);
                    }
                }
            }
            let Some(h) = self.slots[array].handle.as_mut() else {
                // Routed to a fail-stopped slot: a transport-level refusal.
                // Feed the health plane (refusals count as failed
                // heartbeats) and retry — a concurrent control tick may
                // already have evacuated the tenant to a survivor.
                saw_dead = true;
                self.shared
                    .refused_unavailable
                    .fetch_add(1, Ordering::Relaxed);
                self.shared.health.lock().note_refusal(array);
                self.cache.remove(&tenant);
                if attempt == Self::SUBMIT_RETRIES {
                    break;
                }
                std::thread::yield_now();
                self.force_refresh();
                continue;
            };
            let out = h.submit(tenant, lbn, arrival_ns);
            self.slots[array].routed.fetch_add(1, Ordering::Relaxed);
            match out {
                SubmitOutcome::Rejected(RejectReason::UnknownTenant) => {
                    // A migration between the route read and the submit
                    // lands the request on the drained source. Re-route
                    // and retry, so a rebalance never surfaces as a
                    // spurious rejection.
                    self.cache.remove(&tenant);
                    if self.routed_array(tenant) == Some(array) {
                        return out; // genuinely unknown on its own array
                    }
                }
                SubmitOutcome::Rejected(RejectReason::ServerStopping) => {
                    // The engine halted between our refresh and the
                    // submit; same treatment as a missing handle.
                    saw_dead = true;
                    self.shared.health.lock().note_refusal(array);
                    self.cache.remove(&tenant);
                    if attempt == Self::SUBMIT_RETRIES {
                        break;
                    }
                    std::thread::yield_now();
                    self.force_refresh();
                }
                _ => return out,
            }
        }
        SubmitOutcome::Rejected(if saw_dead {
            RejectReason::ArrayUnavailable
        } else {
            RejectReason::UnknownTenant
        })
    }

    /// Resolve `tenant`'s array through the per-handle cache, falling back
    /// to the router (and refreshing the cache) on a miss or stale epoch.
    fn routed_array(&mut self, tenant: u64) -> Option<usize> {
        let epoch = self.shared.epoch.load(Ordering::Acquire);
        if let Some(&(e, a)) = self.cache.get(&tenant) {
            if e == epoch {
                return Some(a);
            }
        }
        let routed = self.shared.router.lock().route(tenant);
        match routed {
            Some(a) => {
                self.cache.insert(tenant, (epoch, a));
            }
            None => {
                self.cache.remove(&tenant);
            }
        }
        routed
    }

    /// Advance every live array's watermark without submitting
    /// (end-of-phase drain in paced drivers).
    pub fn advance_all(&mut self, arrival_ns: u64) {
        self.refresh();
        for hs in &mut self.slots {
            if let Some(h) = hs.handle.as_mut() {
                h.advance_to(arrival_ns);
            }
        }
    }

    /// Close all per-array handles. Dropping does the same.
    pub fn close(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use fqos_core::QosConfig;
    use fqos_server::ServerConfig;

    const BASE_T: u64 = 133_000;

    fn two_arrays() -> QosCluster {
        let array = ServerConfig::new(QosConfig::paper_9_3_1());
        QosCluster::new(ClusterConfig::uniform(2, &array)).unwrap()
    }

    #[test]
    fn residue_counts_settled_writes_as_settled() {
        // A fail-stopped array that had settled writes — three landed, one
        // lost a replica through its retries — and nothing in flight.
        let server = QosServer::new(ServerConfig::new(QosConfig::paper_9_3_1())).unwrap();
        server.register(1, 2, OverloadPolicy::Delay).unwrap();
        let scheme = server.config().qos.scheme.clone();
        let dead = {
            use fqos_decluster::AllocationScheme;
            scheme.replicas(scheme.bucket_for_lbn(7))[0]
        };
        let mut h = server.handle();
        for w in 0..3u64 {
            assert!(h.submit_write(1, 100 + w, w * BASE_T).is_admitted());
        }
        // Seal the three before the fault lands: it takes effect at the
        // next unsealed window.
        h.advance_to(5 * BASE_T);
        server.inject_fault(dead).unwrap();
        assert!(h.submit_write(1, 7, 5 * BASE_T).is_admitted());
        drop(h); // seals and dispatches everything admitted
        let frozen = server.halt();
        assert_eq!((frozen.write_settled, frozen.write_lost), (3, 1));
        assert_eq!(frozen.served, 0);
        assert_eq!(residue(&frozen), 0, "settled writes are not stranded");
        // A fleet holding that frozen snapshot, charged its residue,
        // closes the law.
        let array = ServerConfig::new(QosConfig::paper_9_3_1());
        let empty = QosCluster::new(ClusterConfig::uniform(1, &array))
            .unwrap()
            .finish();
        let fleet = ClusterMetrics {
            evacuation_lost: residue(&frozen),
            arrays: vec![frozen],
            frozen: vec![true],
            ..empty
        };
        assert!(fleet.conserved(), "{}", fleet.render_audit());
    }

    #[test]
    fn routed_submissions_land_on_the_assigned_array() {
        let c = two_arrays();
        let a = c.register_tenant(1, 2, OverloadPolicy::Delay).unwrap();
        let mut h = c.handle();
        assert!(h.submit(1, 0, 0).is_admitted());
        assert!(h.submit(1, 1, BASE_T).is_admitted());
        let m = c.finish();
        assert!(m.conserved(), "{}", m.render_audit());
        assert_eq!(m.arrays[a].admitted, 2);
        assert_eq!(m.arrays[1 - a].admitted, 0);
        assert_eq!(m.routed[a], 2);
    }

    #[test]
    fn unknown_tenants_are_refused_at_the_router() {
        let c = two_arrays();
        let mut h = c.handle();
        assert_eq!(
            h.submit(42, 0, 0),
            SubmitOutcome::Rejected(RejectReason::UnknownTenant)
        );
        let m = c.finish();
        assert_eq!(m.unrouted, 1);
        assert_eq!(m.admitted_total(), 0);
    }

    #[test]
    fn registration_spreads_within_bounds() {
        let c = two_arrays(); // S(1) = 5 per array
        for t in 0..10u64 {
            c.register_tenant(t, 1, OverloadPolicy::Delay).unwrap();
        }
        assert!(matches!(
            c.register_tenant(10, 1, OverloadPolicy::Delay),
            Err(ClusterError::NoHeadroom {
                tenant: 10,
                reserved: 1
            })
        ));
        let m = c.finish();
        assert_eq!(m.arrays.len(), 2);
    }

    #[test]
    fn deregistration_bumps_the_epoch_and_unroutes() {
        let c = two_arrays();
        c.register_tenant(1, 1, OverloadPolicy::Delay).unwrap();
        let mut h = c.handle();
        assert!(h.submit(1, 0, 0).is_admitted());
        let before = c.epoch();
        assert!(c.deregister_tenant(1));
        assert!(c.epoch() > before);
        assert_eq!(
            h.submit(1, 1, BASE_T),
            SubmitOutcome::Rejected(RejectReason::UnknownTenant)
        );
        let m = c.finish();
        assert!(m.conserved(), "{}", m.render_audit());
        assert_eq!(m.admitted_total(), 1);
        assert_eq!(m.completed(), 1, "drained admission still settles");
    }

    #[test]
    fn killing_an_array_charges_the_ledger_and_refuses_typed() {
        let c = two_arrays();
        let a = c.register_tenant(1, 2, OverloadPolicy::Delay).unwrap();
        let mut h = c.handle();
        assert!(h.submit(1, 0, 0).is_admitted());
        let stranded = c.kill_array(a).unwrap();
        assert_eq!(stranded, 1, "the admission never settled");
        assert_eq!(c.evacuation_lost(), 1);
        // No control tick has run: the tenant still routes to the corpse
        // and the refusal is transport-typed, not UnknownTenant.
        assert_eq!(
            h.submit(1, 1, BASE_T),
            SubmitOutcome::Rejected(RejectReason::ArrayUnavailable)
        );
        assert!(matches!(
            c.kill_array(a),
            Err(ClusterError::ArrayNotLive { .. })
        ));
        drop(h);
        let m = c.finish();
        assert!(m.conserved(), "{}", m.render_audit());
        assert_eq!(m.evacuation_lost, 1);
        assert!(m.refused_unavailable >= 1);
    }

    #[test]
    fn dead_verdict_evacuates_to_the_survivor() {
        let array = ServerConfig::new(QosConfig::paper_9_3_1());
        let c = QosCluster::new(ClusterConfig::uniform(2, &array).with_rebalance(false)).unwrap();
        let a = c.register_tenant(1, 1, OverloadPolicy::Delay).unwrap();
        c.kill_array(a).unwrap();
        // dead_after = 2 consecutive bad heartbeats.
        assert!(c.control_tick().is_none());
        assert!(c.control_tick().is_none());
        assert_eq!(c.health()[a], ArrayHealth::Dead);
        assert_eq!(c.route_of(1), Some(1 - a), "tenant lives on the survivor");
        let mut h = c.handle();
        assert!(h.submit(1, 0, 0).is_admitted());
        drop(h);
        let m = c.finish();
        assert!(m.conserved(), "{}", m.render_audit());
        assert_eq!(m.evacuations.len(), 1);
        assert_eq!(m.evacuations[0].moved, vec![(1, 1 - a)]);
        assert_eq!(m.evacuated_tenants, 1);
    }
}
