//! Interval window state: a ring of per-window admission slots.
//!
//! Window `w` covers simulated time `[w·T, (w+1)·T)`. Requests admitted
//! during `w` are *executed* in window `w+1` and must finish by the start
//! of `w+2` — that is the request's **interval deadline**. Because every
//! admitted set is schedulable within `cap[d] ≤ M` accesses on each device
//! `d` (exactly, via incremental max-flow, or conservatively, via greedy
//! EFT) and `M · service ≤ T` is enforced by config validation, a sealed
//! window's guaranteed requests always meet their deadline — regardless of
//! how submitter threads interleave.
//!
//! # One capacity per device
//!
//! Every slot captures the [`FaultPlane`]'s conservative view when it
//! opens, as one capacity per device: 0 for a device down on arrival or
//! during the execution interval or condemned `Slow` by the health scorer,
//! and `M` less the device's GC reserve otherwise. Both assignment modes
//! admit against that vector, so admission re-routes blocks away from
//! excluded devices and holds back what GC needs, in one feasibility
//! question (Hall's condition with per-device capacities). At seal the
//! *execution* health view is re-read: items still assigned to a device
//! that failed meanwhile (live injection between admission and seal) are
//! drained and re-dispatched onto a surviving replica within the same
//! interval, on the survivors' full `M`; an item with no surviving replica
//! is counted lost — never silently dropped.
//!
//! Slots are reused modulo the configured ring size
//! ([`crate::config::ServerConfig::ring_slots`]); the engine's watermark
//! protocol guarantees a slot is sealed and drained before its index comes
//! around again (enforced here with an occupancy check).

use crate::config::AssignmentMode;
use crate::fault::{FaultPlane, MAX_FAULT_DEVICES};
use fqos_flashsim::{IoOp, IoRequest};
use fqos_maxflow::IncrementalRetrieval;
use fqos_sync::{Arc, Class, Mutex, MutexGuard};

/// Most replicas a block can have: an `(N, c, 1)` design needs
/// `N ≥ c² − c + 1` devices, so `c ≤ 8` under the 64-device fault plane.
pub(crate) const MAX_COPIES: usize = 8;

/// A block's replica devices stored inline, in the scheme's tuple order —
/// the seal-time least-loaded picks break ties toward the earlier replica.
#[derive(Debug, Clone, Copy)]
struct ReplicaTuple {
    devs: [u8; MAX_COPIES],
    len: u8,
}

impl ReplicaTuple {
    fn new(replicas: &[usize]) -> Self {
        assert!(
            replicas.len() <= MAX_COPIES,
            "replica tuple of {} exceeds {MAX_COPIES} copies",
            replicas.len()
        );
        let mut devs = [0u8; MAX_COPIES];
        for (slot, &d) in devs.iter_mut().zip(replicas) {
            debug_assert!(d < MAX_FAULT_DEVICES);
            *slot = d as u8;
        }
        ReplicaTuple {
            devs,
            len: replicas.len() as u8,
        }
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.devs[..self.len as usize].iter().map(|&d| d as usize)
    }

    fn mask(&self) -> u64 {
        self.iter().fold(0u64, |m, d| m | 1 << d)
    }

    /// Replicas outside `mask`, in tuple order.
    fn outside(&self, mask: u64) -> impl Iterator<Item = usize> + '_ {
        self.iter().filter(move |&d| mask >> d & 1 == 0)
    }

    /// The tuple widened into `buf`, for the `&[usize]` feasibility API.
    fn widen<'a>(&self, buf: &'a mut [usize; MAX_COPIES]) -> &'a [usize] {
        for (slot, d) in buf.iter_mut().zip(self.iter()) {
            *slot = d;
        }
        &buf[..self.len as usize]
    }
}

/// A request parked in a window awaiting seal.
#[derive(Debug, Clone)]
struct Parked {
    tenant: u64,
    req: IoRequest,
    replicas: ReplicaTuple,
    /// Chosen replica of a read: set at admit time in EFT mode, copied out
    /// of the flow kernel at seal in flow mode. Writes fan out to every
    /// replica; the units they charged are the replicas outside the
    /// slot's `admit_mask`.
    assigned: Option<usize>,
}

/// Outcome of one [`WindowRing::try_admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdmitResult {
    /// Admitted into the window's guaranteed set.
    Admitted,
    /// Every replica of the block sits on a device the scorer classifies
    /// `Slow` (but live): parked as best-effort overflow on the degraded
    /// replica set instead of promising a deadline we cannot keep — and
    /// instead of falsely rejecting a block whose data is still readable.
    AdmittedSlow,
    /// The window (or the tenant's reservation in it) is full; a later
    /// window may still take the request.
    Full,
    /// Every replica of the block is on a failed device for this window
    /// (≥ `c` co-hosting failures); delaying helps only if a recovery is
    /// scheduled within the horizon.
    Unavailable,
}

impl AdmitResult {
    /// True for the admitted variant (the engine matches variants directly;
    /// the tests read better with a predicate).
    #[cfg(test)]
    pub fn is_admitted(self) -> bool {
        self == AdmitResult::Admitted
    }
}

/// A slot's per-window feasibility state, one variant per
/// [`AssignmentMode`]. Built once with the ring — without allocating: a
/// thousand small buffers per ring fragment the heap of whoever builds and
/// drops servers — and reset per window, keeping what the windows grew.
#[derive(Debug)]
enum Feasibility {
    /// Exact feasibility: the max-flow kernel over the window's capacities.
    Flow(IncrementalRetrieval),
    /// Greedy EFT: per-device guaranteed load against the same capacities.
    Eft {
        loads: [u16; MAX_FAULT_DEVICES],
        cap: [u16; MAX_FAULT_DEVICES],
    },
}

/// Mutable state of one in-flight window.
#[derive(Debug)]
struct SlotState {
    /// Which window this slot currently holds; meaningful iff `active`.
    window: u64,
    active: bool,
    /// Exclusion bitmap captured when the slot opened: fail-stop admission
    /// view plus devices the scorer classified `Slow` at open.
    admit_mask: u64,
    /// Fail-stop-only subset of `admit_mask`; distinguishes "data gone"
    /// (reject `Unavailable`) from "data slow" (serve best-effort).
    fail_mask: u64,
    feas: Feasibility,
    /// Per-tenant admitted count, enforcing each tenant's reservation. A
    /// window holds at most `S(M)` tenants — a few dozen — so a scan beats
    /// a map's two hashes per admission.
    per_tenant: Vec<(u64, u32)>,
    guaranteed: Vec<Parked>,
    overflow: Vec<Parked>,
}

impl SlotState {
    /// Open the slot for `window`: capture the health view as one capacity
    /// per device and clear the previous window's state. The feasibility
    /// state and `per_tenant` keep their buffers; `guaranteed` and
    /// `overflow` arrive empty and unallocated, because `seal` takes them
    /// with `mem::take` on purpose — kept, 1 024 slots × `S(M)` parked
    /// entries would stay resident for the engine's life.
    fn reset_for(&mut self, window: u64, accesses: usize, fault: &FaultPlane) {
        // Fail-stop devices are excluded outright; detected-slow devices
        // are steered around too (they are live — blocks with no other
        // copy still fall back to them, see try_admit).
        let fail_mask = fault.admission_mask(window);
        let admit_mask = fail_mask | fault.live_slow_mask();
        self.window = window;
        self.active = true;
        self.admit_mask = admit_mask;
        self.fail_mask = fail_mask;
        // Capacity 0 on an excluded device; elsewhere `M` less the accesses
        // withheld for GC on devices under write amplification.
        let devices = fault.devices();
        let mut caps = [0u16; MAX_FAULT_DEVICES];
        for (d, c) in caps[..devices].iter_mut().enumerate() {
            if admit_mask >> d & 1 == 0 {
                let cap = accesses - fault.gc_reserve(d, accesses);
                *c = u16::try_from(cap).unwrap_or(u16::MAX);
            }
        }
        match &mut self.feas {
            Feasibility::Flow(kernel) => kernel.reset_caps(&caps[..devices]),
            Feasibility::Eft { loads, cap } => {
                *loads = [0; MAX_FAULT_DEVICES];
                *cap = caps;
            }
        }
        self.per_tenant.clear();
        self.guaranteed.clear();
        self.overflow.clear();
    }
}

/// One dispatch-ready request out of a sealed window.
#[derive(Debug, Clone)]
pub(crate) struct SealedItem {
    pub tenant: u64,
    /// Request with its final `device` assignment filled in.
    pub req: IoRequest,
    /// Admitted under the deterministic guarantee (vs statistical overflow).
    pub guaranteed: bool,
    /// Bitmap of every replica device holding this block — the worker's
    /// hedge candidates beyond the assigned one.
    pub replica_mask: u64,
    /// Write fan-out only: `(group, fanout)` — this item is one of
    /// `fanout` replica copies of logical write `group` within its window.
    /// The engine settles the logical write once all copies land
    /// (all-must-settle). `None` for reads.
    pub write_group: Option<(u32, u32)>,
}

/// The drained contents of one window, in dispatch order.
#[derive(Debug)]
pub(crate) struct SealedWindow {
    /// Logical guaranteed admissions (a write counts once, not per copy).
    pub guaranteed: u64,
    /// Logical total admissions; `items.len()` may exceed this when writes
    /// fanned out to several replica copies.
    pub total: u64,
    pub items: Vec<SealedItem>,
    /// Tenant of each admission unservable at seal (every replica down),
    /// one entry per lost request, in drain order — the engine settles
    /// each as [`crate::ledger::SettleKind::Lost`].
    pub lost: Vec<u64>,
}

/// Ring of interval-admission slots shared by all submitter threads.
pub(crate) struct WindowRing {
    slots: Vec<Mutex<SlotState>>,
    devices: usize,
    accesses: usize,
    fault: Arc<FaultPlane>,
    /// Whether seal drains items off devices the scorer detected `Slow`
    /// *after* admission (the fail-slow reaction path; off when hedging is
    /// disabled so the unmitigated cost is observable).
    failslow: bool,
}

impl WindowRing {
    pub fn new(
        ring_slots: usize,
        devices: usize,
        accesses: usize,
        mode: AssignmentMode,
        fault: Arc<FaultPlane>,
        failslow: bool,
    ) -> Self {
        assert_eq!(fault.devices(), devices);
        WindowRing {
            slots: (0..ring_slots)
                .map(|_| {
                    Mutex::new(
                        Class::WindowSlot,
                        SlotState {
                            window: 0,
                            active: false,
                            admit_mask: 0,
                            fail_mask: 0,
                            feas: match mode {
                                AssignmentMode::OptimalFlow => {
                                    Feasibility::Flow(IncrementalRetrieval::new(devices, accesses))
                                }
                                AssignmentMode::Eft => Feasibility::Eft {
                                    loads: [0; MAX_FAULT_DEVICES],
                                    cap: [0; MAX_FAULT_DEVICES],
                                },
                            },
                            per_tenant: Vec::new(),
                            guaranteed: Vec::new(),
                            overflow: Vec::new(),
                        },
                    )
                })
                .collect(),
            devices,
            accesses,
            fault,
            failslow,
        }
    }

    fn slot(&self, window: u64) -> &Mutex<SlotState> {
        &self.slots[(window % self.slots.len() as u64) as usize]
    }

    /// Lock `window`'s slot, (re-)initializing it on first touch. Panics if
    /// the slot still holds an unsealed *older* window — that means
    /// submitter clocks drifted further apart than the ring covers.
    fn locked(&self, window: u64) -> MutexGuard<'_, SlotState> {
        let mut s = self.slot(window).lock();
        if !s.active {
            s.reset_for(window, self.accesses, &self.fault);
        } else if s.window != window {
            assert!(
                s.window > window,
                "window ring wrapped: window {} still unsealed while {} arrives \
                 (submitter drift exceeds the ring size {})",
                s.window,
                window,
                self.slots.len(),
            );
            // s.window > window would mean admitting into a sealed past
            // window; the engine's watermark protocol forbids it.
            #[expect(
                clippy::panic,
                reason = "unreachable: no seal passes an open handle's watermark"
            )]
            {
                panic!(
                    "admission into window {window} after it was sealed and its slot reused by {}",
                    s.window
                );
            }
        }
        s
    }

    /// Park one guaranteed admission in `s` and count it against its
    /// tenant. A window's first one sizes the buffer for `N·M` entries, all
    /// a window can hold: one allocation per window where growth by
    /// doubling takes four, and doubling measured no faster (DESIGN.md,
    /// "Rejected alternatives").
    fn park(&self, s: &mut SlotState, parked: Parked) {
        match s.per_tenant.iter_mut().find(|(t, _)| *t == parked.tenant) {
            Some((_, n)) => *n += 1,
            None => s.per_tenant.push((parked.tenant, 1)),
        }
        if s.guaranteed.capacity() == 0 {
            s.guaranteed.reserve_exact(self.devices * self.accesses);
        }
        s.guaranteed.push(parked);
    }

    /// Try to admit one guaranteed request for `tenant` (with per-interval
    /// reservation `reserved`) into `window`. Admits iff the tenant has
    /// reservation left in this window **and** the request fits the
    /// window's per-device capacities.
    ///
    /// A replicated write consumes one unit on **every** replica the window
    /// can schedule (`c×` capacity), not one of `c` — a copy must land on
    /// each device. Replicas excluded by the admission view (failed or
    /// detected-slow) are not charged; the fan-out at seal still targets
    /// all replicas and the worker's bounded retry decides whether an
    /// excluded copy settles or the logical write is charged `write_lost`.
    pub fn try_admit(
        &self,
        window: u64,
        tenant: u64,
        reserved: usize,
        req: IoRequest,
        replicas: &[usize],
    ) -> AdmitResult {
        let mut guard = self.locked(window);
        let s = &mut *guard;
        let held = s.per_tenant.iter().find(|&&(t, _)| t == tenant);
        if held.map_or(0, |&(_, n)| n) as usize >= reserved {
            return AdmitResult::Full;
        }
        let mask = s.admit_mask;
        let tuple = ReplicaTuple::new(replicas);
        let write = req.op == IoOp::Write;
        if tuple.outside(mask).next().is_none() {
            // No schedulable replica. All failed is a data-path refusal.
            // All merely slow: a read is readable, so it parks as
            // best-effort overflow with no deadline promised; a write is
            // congestion — delay it, don't lose it. Writes never park as
            // overflow: they are `Full`, and the engine delays them within
            // the horizon or sheds them, protecting read deadlines.
            if replicas.iter().all(|&d| s.fail_mask >> d & 1 == 1) {
                return AdmitResult::Unavailable;
            }
            if write {
                return AdmitResult::Full;
            }
            s.overflow.push(Parked {
                tenant,
                req,
                replicas: tuple,
                assigned: None,
            });
            return AdmitResult::AdmittedSlow;
        }
        let assigned = match &mut s.feas {
            Feasibility::Flow(kernel) if write => {
                // One pinned unit per schedulable replica, all or nothing.
                // A unit that does not fit may already have re-routed
                // earlier requests: roll back to the exact prior schedule.
                kernel.checkpoint();
                if !tuple.outside(mask).all(|d| kernel.try_add(&[d])) {
                    kernel.rollback();
                    return AdmitResult::Full;
                }
                None
            }
            Feasibility::Flow(kernel) => {
                if !kernel.try_add(replicas) {
                    return AdmitResult::Full;
                }
                None
            }
            Feasibility::Eft { loads, cap } if write => {
                if !tuple.outside(mask).all(|d| loads[d] < cap[d]) {
                    return AdmitResult::Full;
                }
                tuple.outside(mask).for_each(|d| loads[d] += 1);
                None
            }
            Feasibility::Eft { loads, cap } => {
                // Earliest finish time under equal service times = least
                // loaded replica, among the window's live devices.
                let best = tuple.outside(mask).min_by_key(|&d| loads[d]);
                let Some(best) = best.filter(|&d| loads[d] < cap[d]) else {
                    return AdmitResult::Full;
                };
                loads[best] += 1;
                Some(best)
            }
        };
        if mask & tuple.mask() != 0 {
            self.fault.note_reroute();
        }
        let parked = Parked {
            tenant,
            req,
            replicas: tuple,
            assigned,
        };
        self.park(s, parked);
        AdmitResult::Admitted
    }

    /// Total requests (guaranteed + overflow) currently parked in `window`.
    pub fn admitted_total(&self, window: u64) -> usize {
        let s = self.locked(window);
        s.guaranteed.len() + s.overflow.len()
    }

    /// Park an overflow (statistically admitted) request in `window`,
    /// bypassing the reservation and feasibility checks. Device choice is
    /// deferred to seal, where overflow items pile onto the least-loaded
    /// surviving replica after the guaranteed schedule. Returns `false`
    /// (and parks nothing) when every replica is down for this window.
    pub fn add_overflow(
        &self,
        window: u64,
        tenant: u64,
        req: IoRequest,
        replicas: &[usize],
    ) -> bool {
        // Writes are never admitted statistically: an overflow write would
        // consume `c×` device capacity with no feasibility backing, eating
        // directly into guaranteed read headroom. The engine delays or
        // sheds writes instead.
        if req.op == IoOp::Write {
            return false;
        }
        let mut s = self.locked(window);
        // Only an all-*failed* replica set refuses: slow devices are live
        // and can still carry best-effort work.
        if s.fail_mask != 0 && replicas.iter().all(|&d| s.fail_mask >> d & 1 == 1) {
            return false;
        }
        s.overflow.push(Parked {
            tenant,
            req,
            replicas: ReplicaTuple::new(replicas),
            assigned: None,
        });
        true
    }

    /// Seal `window`: fix every request's replica assignment against the
    /// final execution-interval health view and drain the slot for reuse.
    /// An untouched window seals to an empty result.
    pub fn seal(&self, window: u64) -> SealedWindow {
        // The execution interval of window `w` is window `w + 1`; re-read
        // its health now in case a live injection landed after admission.
        let exec_mask = self.fault.mask_at(window + 1);
        // When the fail-slow reaction path is on, devices the scorer
        // condemned after this window admitted drain too: their queued
        // blocks move to healthy replicas (deadline-aware re-dispatch,
        // reusing the fail-stop rebuild machinery below).
        let slow_mask = if self.failslow {
            self.fault.live_slow_mask() & !exec_mask
        } else {
            0
        };
        let drain_mask = exec_mask | slow_mask;
        if exec_mask != 0 {
            self.fault.note_degraded_window();
        }
        let mut guard = self.slot(window).lock();
        let s = &mut *guard;
        if !s.active || s.window != window {
            return SealedWindow {
                guaranteed: 0,
                total: 0,
                items: Vec::new(),
                lost: Vec::new(),
            };
        }
        s.active = false;
        if let Feasibility::Flow(kernel) = &s.feas {
            // The kernel's assignment list holds one entry per admitted
            // unit in admission order: a read consumed one unit, a write
            // one per charged replica. Writes ignore their entries (they
            // fan out to every replica regardless).
            let assigned = kernel.assigned();
            let mut next = 0;
            for p in &mut s.guaranteed {
                if p.req.op == IoOp::Write {
                    next += p.replicas.outside(s.admit_mask).count();
                } else {
                    p.assigned = assigned.get(next).map(|&d| d as usize);
                    next += 1;
                }
            }
            debug_assert_eq!(next, assigned.len());
        }
        let guaranteed = std::mem::take(&mut s.guaranteed);
        let overflow = std::mem::take(&mut s.overflow);
        drop(guard);

        // Final per-device loads are rebuilt from scratch so seal-time
        // re-dispatch balances against what actually lands on survivors.
        let mut loads = [0u32; MAX_FAULT_DEVICES];
        let mut items = Vec::with_capacity(guaranteed.len() + overflow.len());
        let mut lost: Vec<u64> = Vec::new();
        // Logical guaranteed admissions: a write counts once even though it
        // emits one item per replica copy below.
        let n_guaranteed = guaranteed.len() as u64;
        // Sequential id for each logical write within this window; the
        // engine keys its all-must-settle aggregation on it.
        let mut write_groups = 0u32;
        if drain_mask == 0 {
            // Healthy execution interval: the admission-time assignments
            // stand as-is.
            for p in guaranteed {
                if p.req.op == IoOp::Write {
                    fan_out_write(&mut items, &mut loads, &mut write_groups, &p);
                    continue;
                }
                #[expect(
                    clippy::expect_used,
                    reason = "admission assigns every guaranteed read a replica"
                )]
                let d = p.assigned.expect("guaranteed request must be assigned");
                loads[d] += 1;
                items.push(p.sealed_on(d, true));
            }
        } else {
            // A device is down (or condemned slow) for the execution
            // interval — a live injection or a scorer verdict landed after
            // admission. Patching drained items one by one onto the
            // least-loaded survivor can overload it past `M`; instead
            // rebuild the whole window's schedule on the surviving
            // subgraph, so whenever a feasible `≤ M` per-device schedule
            // exists the rebuilt one meets every deadline.
            let mut rebuilt =
                IncrementalRetrieval::with_failed(self.devices, self.accesses, drain_mask);
            // Writes keep their full fan-out whatever the drain: pre-charge
            // the rebuilt schedule with one pinned unit per surviving write
            // replica so read re-dispatch packs around the write load
            // instead of overcommitting the survivors. Pinned adds on
            // drained devices charge nothing.
            for p in guaranteed.iter().filter(|p| p.req.op == IoOp::Write) {
                for d in p.replicas.iter() {
                    rebuilt.try_add(&[d]);
                }
            }
            let mut next = rebuilt.len();
            let mut buf = [0usize; MAX_COPIES];
            // Per read: whether the rebuilt schedule took it, or `None`
            // when every replica is drained.
            let placements: Vec<Option<bool>> = guaranteed
                .iter()
                .map(|p| {
                    let live = p.replicas.outside(drain_mask).next().is_some();
                    (p.req.op != IoOp::Write && live)
                        .then(|| rebuilt.try_add(p.replicas.widen(&mut buf)))
                })
                .collect();
            for (p, placement) in guaranteed.into_iter().zip(placements) {
                if p.req.op == IoOp::Write {
                    fan_out_write(&mut items, &mut loads, &mut write_groups, &p);
                    continue;
                }
                let d = match placement {
                    Some(true) => {
                        let d = rebuilt.assigned()[next] as usize;
                        next += 1;
                        // One audit note per moved item: off a failed
                        // device = redispatch, off a slow one = retry.
                        if p.assigned.is_some_and(|pd| exec_mask >> pd & 1 == 1) {
                            self.fault.note_redispatch();
                        } else if p.assigned.is_some_and(|pd| slow_mask >> pd & 1 == 1) {
                            self.fault.note_retry();
                        }
                        d
                    }
                    Some(false) => {
                        // No `M`-respecting slot on any survivor. With a
                        // pure fail-stop drain, overload the least-loaded
                        // live replica rather than drop (PR 2 semantics) —
                        // may finish late, counted and audited, never
                        // hidden. When the squeeze comes from excluding a
                        // live-but-slow device, the fallback below may
                        // land back on it; that is a retry, not an
                        // overload of a healthy survivor.
                        if slow_mask == 0 {
                            self.fault.note_overload();
                        } else {
                            self.fault.note_retry();
                        }
                        #[expect(
                            clippy::expect_used,
                            reason = "Infeasible is reported only when a replica is live"
                        )]
                        let d = p
                            .replicas
                            .outside(exec_mask)
                            .min_by_key(|&d| loads[d])
                            .expect("Infeasible implies a live replica exists");
                        d
                    }
                    None => {
                        // Every replica failed or condemned slow. A slow
                        // replica is still live: keep the block on the
                        // least-loaded one (the worker-side hedge and
                        // deadline audit pick it up) instead of losing
                        // readable data. Only an all-failed set — beyond
                        // the c − 1 tolerance — is lost: counted, audited,
                        // never silently dropped.
                        match p.replicas.outside(exec_mask).min_by_key(|&d| loads[d]) {
                            Some(d) => {
                                self.fault.note_retry();
                                d
                            }
                            None => {
                                lost.push(p.tenant);
                                continue;
                            }
                        }
                    }
                };
                loads[d] += 1;
                items.push(p.sealed_on(d, true));
            }
        }
        let n_guaranteed = n_guaranteed - lost.len() as u64;
        let mut n_overflow = 0u64;
        for p in overflow {
            // Prefer replicas that are neither failed nor detected-slow;
            // fall back to a slow-but-live one before declaring loss.
            let pick = p
                .replicas
                .outside(drain_mask)
                .min_by_key(|&d| loads[d])
                .or_else(|| p.replicas.outside(exec_mask).min_by_key(|&d| loads[d]));
            let Some(d) = pick else {
                lost.push(p.tenant);
                continue;
            };
            loads[d] += 1;
            n_overflow += 1;
            items.push(p.sealed_on(d, false));
        }
        SealedWindow {
            guaranteed: n_guaranteed,
            total: n_guaranteed + n_overflow,
            items,
            lost,
        }
    }
}

impl Parked {
    /// The dispatch-ready read item for this request on device `d`.
    fn sealed_on(&self, d: usize, guaranteed: bool) -> SealedItem {
        let mut req = self.req;
        req.device = d;
        SealedItem {
            tenant: self.tenant,
            req,
            guaranteed,
            replica_mask: self.replicas.mask(),
            write_group: None,
        }
    }
}

/// Emit one [`SealedItem`] per replica copy of a logical write, all tagged
/// with the same `(group, fanout)` so the engine settles the write once
/// every copy lands. The fan-out deliberately includes replicas the window
/// did not charge (failed/slow at admission): the worker's bounded retry
/// against the live health view decides each copy's fate.
fn fan_out_write(
    items: &mut Vec<SealedItem>,
    loads: &mut [u32],
    write_groups: &mut u32,
    p: &Parked,
) {
    let group = *write_groups;
    *write_groups += 1;
    let fanout = u32::from(p.replicas.len);
    for d in p.replicas.iter() {
        loads[d] += 1;
        let mut item = p.sealed_on(d, true);
        item.write_group = Some((group, fanout));
        items.push(item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WINDOW_RING;
    use crate::fault::{FaultKind, FaultSchedule};
    use fqos_decluster::analysis::CutTable;
    use fqos_flashsim::IoRequest;

    fn req(id: u64) -> IoRequest {
        IoRequest::read_block(id, 0, 0, id)
    }

    fn healthy(devices: usize) -> Arc<FaultPlane> {
        Arc::new(FaultPlane::new(devices, FaultSchedule::new()).unwrap())
    }

    fn ring(mode: AssignmentMode) -> WindowRing {
        // 3 devices, M = 1; replica pairs below.
        WindowRing::new(WINDOW_RING, 3, 1, mode, healthy(3), true)
    }

    #[test]
    fn flow_mode_reassigns_to_fit() {
        let r = ring(AssignmentMode::OptimalFlow);
        // First request could sit on 0; second only fits on 0 → flow must
        // re-route the first to 1.
        assert!(r.try_admit(0, 1, 10, req(1), &[0, 1]).is_admitted());
        assert!(r.try_admit(0, 1, 10, req(2), &[0]).is_admitted());
        let sealed = r.seal(0);
        assert_eq!(sealed.guaranteed, 2);
        let devs: Vec<usize> = sealed.items.iter().map(|i| i.req.device).collect();
        assert!(devs.contains(&0) && devs.contains(&1));
    }

    #[test]
    fn eft_mode_can_strand_what_flow_accepts() {
        // Greedy ties break toward the first replica: request A on 0, then
        // B (only replica 0) is stranded — the documented EFT tradeoff.
        let eft = ring(AssignmentMode::Eft);
        assert!(eft.try_admit(0, 1, 10, req(1), &[0, 1]).is_admitted());
        assert_eq!(eft.try_admit(0, 1, 10, req(2), &[0]), AdmitResult::Full);

        let flow = ring(AssignmentMode::OptimalFlow);
        assert!(flow.try_admit(0, 1, 10, req(1), &[0, 1]).is_admitted());
        assert!(flow.try_admit(0, 1, 10, req(2), &[0]).is_admitted());
    }

    #[test]
    fn per_tenant_reservation_is_enforced() {
        let r = ring(AssignmentMode::OptimalFlow);
        assert!(r.try_admit(3, 7, 2, req(1), &[0, 1]).is_admitted());
        assert!(r.try_admit(3, 7, 2, req(2), &[1, 2]).is_admitted());
        assert_eq!(
            r.try_admit(3, 7, 2, req(3), &[2, 0]),
            AdmitResult::Full,
            "reservation of 2 exhausted"
        );
        assert!(
            r.try_admit(3, 8, 1, req(4), &[2, 0]).is_admitted(),
            "other tenants unaffected"
        );
    }

    #[test]
    fn device_budget_is_enforced() {
        let r = ring(AssignmentMode::OptimalFlow);
        // M = 1 on 3 devices → at most 3 requests, whatever the replicas.
        assert!(r.try_admit(1, 1, 99, req(1), &[0, 1, 2]).is_admitted());
        assert!(r.try_admit(1, 1, 99, req(2), &[0, 1, 2]).is_admitted());
        assert!(r.try_admit(1, 1, 99, req(3), &[0, 1, 2]).is_admitted());
        assert_eq!(r.try_admit(1, 1, 99, req(4), &[0, 1, 2]), AdmitResult::Full);
        let sealed = r.seal(1);
        assert_eq!(sealed.total, 3);
        let mut devs: Vec<usize> = sealed.items.iter().map(|i| i.req.device).collect();
        devs.sort_unstable();
        assert_eq!(devs, vec![0, 1, 2]);
    }

    #[test]
    fn overflow_lands_on_least_loaded_replica_after_guaranteed() {
        let r = ring(AssignmentMode::OptimalFlow);
        assert!(r.try_admit(0, 1, 9, req(1), &[0]).is_admitted());
        assert!(r.add_overflow(0, 2, req(2), &[0, 1]));
        assert!(r.add_overflow(0, 2, req(3), &[0, 1]));
        let sealed = r.seal(0);
        assert_eq!(sealed.guaranteed, 1);
        assert_eq!(sealed.total, 3);
        assert!(!sealed.items[1].guaranteed);
        // First overflow goes to empty device 1, second balances back.
        assert_eq!(sealed.items[1].req.device, 1);
        assert_eq!(sealed.admitted_devices_sorted(), vec![0, 0, 1]);
    }

    impl SealedWindow {
        fn admitted_devices_sorted(&self) -> Vec<usize> {
            let mut v: Vec<usize> = self.items.iter().map(|i| i.req.device).collect();
            v.sort_unstable();
            v
        }
    }

    #[test]
    fn sealing_empty_and_reuse() {
        for mode in BOTH_MODES {
            let r = ring(mode);
            let sealed = r.seal(42);
            assert_eq!(sealed.total, 0);
            // Admit into w, seal, then the slot is reusable for w + RING:
            // the previous window's load must not carry over.
            assert!(r.try_admit(5, 1, 9, req(1), &[0]).is_admitted());
            assert_eq!(r.try_admit(5, 1, 9, req(2), &[0]), AdmitResult::Full);
            assert_eq!(r.seal(5).total, 1);
            let next = 5 + WINDOW_RING as u64;
            assert!(r.try_admit(next, 1, 9, req(3), &[0]).is_admitted());
            assert_eq!(r.seal(next).total, 1);
        }
    }

    #[test]
    #[should_panic(expected = "window ring wrapped")]
    fn unsealed_slot_reuse_panics() {
        let r = ring(AssignmentMode::Eft);
        assert!(r.try_admit(0, 1, 1, req(1), &[0]).is_admitted());
        // Same slot index one full ring later, while window 0 is unsealed.
        let _ = r.try_admit(WINDOW_RING as u64, 1, 1, req(2), &[0]);
    }

    #[test]
    fn scripted_failure_routes_admission_around_the_dead_device() {
        let fault =
            Arc::new(FaultPlane::new(3, FaultSchedule::new().fail(0, 4).recover(0, 6)).unwrap());
        let r = WindowRing::new(
            WINDOW_RING,
            3,
            1,
            AssignmentMode::OptimalFlow,
            Arc::clone(&fault),
            true,
        );
        // Window 3 executes during window 4 (device 0 down): the request
        // naming device 0 must land on a survivor at admission time.
        assert!(r.try_admit(3, 1, 9, req(1), &[0, 1]).is_admitted());
        let sealed = r.seal(3);
        assert_eq!(sealed.total, 1);
        assert_eq!(sealed.items[0].req.device, 1);
        assert_eq!(fault.reroutes(), 1);
        assert_eq!(fault.redispatches(), 0, "scripted faults never redispatch");
        assert!(sealed.lost.is_empty());
        // Window 6 executes during 7: recovered, full capacity back.
        assert!(r.try_admit(6, 1, 9, req(2), &[0]).is_admitted());
        assert_eq!(r.seal(6).items[0].req.device, 0);
    }

    #[test]
    fn all_replicas_down_is_unavailable_not_full() {
        let fault =
            Arc::new(FaultPlane::new(3, FaultSchedule::new().fail(0, 0).fail(1, 0)).unwrap());
        let r = WindowRing::new(
            WINDOW_RING,
            3,
            1,
            AssignmentMode::OptimalFlow,
            Arc::clone(&fault),
            true,
        );
        assert_eq!(
            r.try_admit(0, 1, 9, req(1), &[0, 1]),
            AdmitResult::Unavailable
        );
        assert!(r.try_admit(0, 1, 9, req(2), &[1, 2]).is_admitted());
        assert!(
            !r.add_overflow(0, 1, req(3), &[0, 1]),
            "overflow refused too"
        );
        let eft = WindowRing::new(WINDOW_RING, 3, 1, AssignmentMode::Eft, fault, true);
        assert_eq!(
            eft.try_admit(0, 1, 9, req(4), &[0, 1]),
            AdmitResult::Unavailable
        );
    }

    #[test]
    fn live_injection_drains_the_failing_device_at_seal() {
        let fault = Arc::new(FaultPlane::new(3, FaultSchedule::new()).unwrap());
        let r = WindowRing::new(
            WINDOW_RING,
            3,
            1,
            AssignmentMode::Eft,
            Arc::clone(&fault),
            true,
        );
        // EFT assigns at admit time; ties break toward replica 0.
        assert!(r.try_admit(0, 1, 9, req(1), &[0, 1]).is_admitted());
        // Device 0 dies before the execution interval (window 1).
        fault.inject(0, FaultKind::Fail, 1).unwrap();
        let sealed = r.seal(0);
        assert_eq!(sealed.total, 1);
        assert_eq!(sealed.items[0].req.device, 1, "re-dispatched to survivor");
        assert_eq!(fault.redispatches(), 1);
        assert!(sealed.lost.is_empty());
    }

    #[test]
    fn items_with_no_surviving_replica_are_counted_lost() {
        let fault = Arc::new(FaultPlane::new(3, FaultSchedule::new()).unwrap());
        let r = WindowRing::new(
            WINDOW_RING,
            3,
            1,
            AssignmentMode::Eft,
            Arc::clone(&fault),
            true,
        );
        assert!(r.try_admit(0, 1, 9, req(1), &[0, 1]).is_admitted());
        assert!(r.add_overflow(0, 1, req(2), &[0]));
        fault.inject(0, FaultKind::Fail, 1).unwrap();
        fault.inject(1, FaultKind::Fail, 1).unwrap();
        let sealed = r.seal(0);
        assert_eq!(sealed.total, 0, "both replicas down: nothing dispatchable");
        assert_eq!(sealed.lost, vec![1, 1]);
        assert_eq!(fault.degraded_windows(), 1);
    }

    /// Feed the scorer enough samples to condemn `device`: a healthy
    /// baseline, then a promote-streak of 10× outliers.
    fn condemn(plane: &FaultPlane, device: usize) {
        const BASE: u64 = 132_507;
        for _ in 0..4 {
            plane.observe(device, BASE, 0);
        }
        for _ in 0..3 {
            plane.observe(device, BASE * 10, 0);
        }
        assert_eq!(plane.health_state(device), crate::fault::DeviceHealth::Slow);
        assert_eq!(plane.live_slow_mask() >> device & 1, 1);
    }

    #[test]
    fn scorer_condemned_device_is_excluded_from_new_admissions() {
        let fault = healthy(3);
        condemn(&fault, 0);
        let r = WindowRing::new(
            WINDOW_RING,
            3,
            1,
            AssignmentMode::Eft,
            Arc::clone(&fault),
            true,
        );
        // EFT would tie-break toward 0; the live-slow bit forces 1.
        assert!(r.try_admit(0, 1, 9, req(1), &[0, 1]).is_admitted());
        let sealed = r.seal(0);
        assert_eq!(sealed.total, 1);
        assert_eq!(sealed.items[0].req.device, 1, "routed off the slow device");
        assert_eq!(fault.reroutes(), 1);
        assert_eq!(
            fault.retries(),
            0,
            "avoided at admission, not re-dispatched"
        );
    }

    #[test]
    fn seal_drains_a_mid_window_slow_verdict_as_a_retry() {
        let fault = healthy(3);
        let r = WindowRing::new(
            WINDOW_RING,
            3,
            1,
            AssignmentMode::Eft,
            Arc::clone(&fault),
            true,
        );
        assert!(r.try_admit(0, 1, 9, req(1), &[0, 1]).is_admitted());
        // The scorer condemns device 0 only after admission assigned to it.
        condemn(&fault, 0);
        let sealed = r.seal(0);
        assert_eq!(sealed.total, 1);
        assert_eq!(
            sealed.items[0].req.device, 1,
            "drained to the healthy replica"
        );
        assert_eq!(fault.retries(), 1);
        assert_eq!(fault.redispatches(), 0, "slow is not fail-stop");
        assert!(sealed.lost.is_empty());
        assert_eq!(fault.degraded_windows(), 0, "no device actually failed");
    }

    #[test]
    fn failslow_off_leaves_slow_assignments_in_place() {
        let fault = healthy(3);
        let r = WindowRing::new(
            WINDOW_RING,
            3,
            1,
            AssignmentMode::Eft,
            Arc::clone(&fault),
            false,
        );
        assert!(r.try_admit(0, 1, 9, req(1), &[0, 1]).is_admitted());
        condemn(&fault, 0);
        let sealed = r.seal(0);
        assert_eq!(sealed.total, 1);
        assert_eq!(sealed.items[0].req.device, 0, "control arm: no drain");
        assert_eq!(fault.retries(), 0);
    }

    fn wreq(id: u64) -> IoRequest {
        IoRequest::write_block(id, 0, 0, id)
    }

    const BOTH_MODES: [AssignmentMode; 2] = [AssignmentMode::OptimalFlow, AssignmentMode::Eft];

    #[test]
    fn write_charges_capacity_on_every_replica() {
        for mode in BOTH_MODES {
            let r = ring(mode); // 3 devices, M = 1
            assert!(r.try_admit(0, 1, 9, wreq(1), &[0, 1]).is_admitted());
            // The write consumed the single slot on both replicas.
            assert_eq!(r.try_admit(0, 1, 9, req(2), &[0]), AdmitResult::Full);
            assert_eq!(r.try_admit(0, 1, 9, req(3), &[1]), AdmitResult::Full);
            assert!(r.try_admit(0, 1, 9, req(4), &[2]).is_admitted());
            let sealed = r.seal(0);
            assert_eq!(sealed.guaranteed, 2, "logical: one write + one read");
            assert_eq!(sealed.total, 2);
            assert_eq!(sealed.items.len(), 3, "write fans out to both replicas");
            let copies: Vec<_> = sealed
                .items
                .iter()
                .filter(|i| i.write_group.is_some())
                .collect();
            assert_eq!(copies.len(), 2);
            assert!(copies.iter().all(|i| i.write_group == Some((0, 2))));
            let mut devs: Vec<usize> = copies.iter().map(|i| i.req.device).collect();
            devs.sort_unstable();
            assert_eq!(devs, vec![0, 1]);
        }
    }

    #[test]
    fn write_refusal_rolls_back_partial_charges() {
        for mode in BOTH_MODES {
            let r = ring(mode);
            assert!(r.try_admit(0, 1, 9, req(1), &[0]).is_admitted());
            // Device 0 is full: the write cannot charge its whole fan-out.
            assert_eq!(r.try_admit(0, 1, 9, wreq(2), &[0, 1]), AdmitResult::Full);
            // The refused attempt must not leak capacity onto device 1.
            assert!(r.try_admit(0, 1, 9, req(3), &[1]).is_admitted());
            assert!(r.try_admit(0, 1, 9, req(4), &[2]).is_admitted());
            assert_eq!(r.seal(0).total, 3);
        }
    }

    #[test]
    fn write_refused_on_its_second_replica_restores_rerouted_reads() {
        let r = ring(AssignmentMode::OptimalFlow);
        assert!(r.try_admit(0, 1, 9, req(1), &[0, 1]).is_admitted());
        assert!(r.try_admit(0, 1, 9, req(2), &[1, 2]).is_admitted());
        // The write's unit on 1 fits by pushing read 2 over to device 2;
        // its unit on 2 then cannot fit. The refusal must undo the push.
        assert_eq!(r.try_admit(0, 1, 9, wreq(3), &[1, 2]), AdmitResult::Full);
        let devs: Vec<usize> = r.seal(0).items.iter().map(|i| i.req.device).collect();
        assert_eq!(devs, vec![0, 1]);
    }

    #[test]
    fn writes_never_park_as_overflow() {
        let r = ring(AssignmentMode::Eft);
        assert!(!r.add_overflow(0, 1, wreq(1), &[0, 1]));
        assert_eq!(r.seal(0).total, 0);
    }

    #[test]
    fn write_on_all_failed_replicas_is_unavailable_but_all_slow_is_full() {
        let fault =
            Arc::new(FaultPlane::new(3, FaultSchedule::new().fail(0, 0).fail(1, 0)).unwrap());
        let r = WindowRing::new(WINDOW_RING, 3, 1, AssignmentMode::OptimalFlow, fault, true);
        assert_eq!(
            r.try_admit(0, 1, 9, wreq(1), &[0, 1]),
            AdmitResult::Unavailable
        );

        let slow = healthy(3);
        condemn(&slow, 0);
        condemn(&slow, 1);
        let r = WindowRing::new(WINDOW_RING, 3, 1, AssignmentMode::Eft, slow, true);
        assert_eq!(
            r.try_admit(0, 1, 9, wreq(2), &[0, 1]),
            AdmitResult::Full,
            "slow replicas are congestion: delay the write, don't refuse it"
        );
    }

    #[test]
    fn write_with_one_failed_replica_charges_survivor_but_fans_to_both() {
        let fault =
            Arc::new(FaultPlane::new(3, FaultSchedule::new().fail(0, 0).recover(0, 8)).unwrap());
        let r = WindowRing::new(
            WINDOW_RING,
            3,
            1,
            AssignmentMode::OptimalFlow,
            Arc::clone(&fault),
            true,
        );
        assert!(r.try_admit(0, 1, 9, wreq(1), &[0, 1]).is_admitted());
        // Only the live replica was charged — and it is now full.
        assert_eq!(r.try_admit(0, 1, 9, req(2), &[1]), AdmitResult::Full);
        let sealed = r.seal(0);
        assert_eq!(sealed.guaranteed, 1);
        assert_eq!(
            sealed.items.len(),
            2,
            "fan-out still targets the failed replica; the worker decides its fate"
        );
        assert!(sealed.items.iter().all(|i| i.write_group == Some((0, 2))));
    }

    #[test]
    fn gc_reserve_shrinks_window_capacity() {
        for mode in BOTH_MODES {
            let fault = healthy(3);
            // Sustained WA-3 writes on device 0: with M = 2 the reserve
            // withholds one of its two slots.
            for _ in 0..64 {
                fault.observe_gc(0, 1, 3);
            }
            let r = WindowRing::new(WINDOW_RING, 3, 2, mode, Arc::clone(&fault), true);
            assert!(r.try_admit(0, 1, 99, req(1), &[0]).is_admitted());
            assert_eq!(
                r.try_admit(0, 1, 99, req(2), &[0]),
                AdmitResult::Full,
                "GC pressure withheld the second slot"
            );
            // Devices without GC pressure keep their full budget.
            assert!(r.try_admit(0, 1, 99, req(3), &[1]).is_admitted());
            assert!(r.try_admit(0, 1, 99, req(4), &[1]).is_admitted());
            let sealed = r.seal(0);
            assert_eq!(sealed.total, 3);
            assert!(sealed.items.iter().all(|i| i.write_group.is_none()));
        }
    }

    #[test]
    fn all_replicas_slow_is_admitted_slow_and_still_dispatched() {
        let fault = healthy(3);
        condemn(&fault, 0);
        condemn(&fault, 1);
        let r = WindowRing::new(
            WINDOW_RING,
            3,
            1,
            AssignmentMode::Eft,
            Arc::clone(&fault),
            true,
        );
        // Data is readable, just slow everywhere: park without a deadline
        // promise rather than reject.
        assert_eq!(
            r.try_admit(0, 1, 9, req(1), &[0, 1]),
            AdmitResult::AdmittedSlow
        );
        let sealed = r.seal(0);
        assert_eq!(sealed.total, 1, "slow-but-live data still serves");
        assert_eq!(sealed.guaranteed, 0, "no deadline promise was made");
        assert!(sealed.lost.is_empty());
    }

    fn fnv(h: &mut u64, x: u64) {
        *h = (*h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl WindowRing {
        /// The capacity vector `window`'s slot admits against, opening the
        /// slot if it is not yet.
        fn caps(&self, window: u64) -> Vec<u16> {
            match &self.locked(window).feas {
                Feasibility::Flow(kernel) => kernel.caps().to_vec(),
                Feasibility::Eft { cap, .. } => cap[..self.devices].to_vec(),
            }
        }
    }

    /// Whether Hall's cuts over `caps` admit one more request on
    /// `replicas` into `cuts`, and `cuts` with it added: a read as one
    /// request, a write as one single-replica unit per replica with
    /// capacity, all or nothing.
    fn cut_verdict(
        cuts: &CutTable,
        caps: &[u16],
        replicas: &[usize],
        write: bool,
    ) -> (bool, CutTable) {
        let mut next = cuts.clone();
        if !write {
            let fits = cuts.fits(replicas, caps);
            next.add(replicas);
            return (fits, next);
        }
        let fits = replicas.iter().filter(|&&d| caps[d] > 0).all(|&d| {
            let fits = next.fits(&[d], caps);
            next.add(&[d]);
            fits
        });
        (fits, next)
    }

    /// One mode's digest over 24 windows of `(9,3,1)` at `M = 4`, about
    /// 1.6× a window's capacity each, a quarter of them writes: scripted
    /// failures (a whole block down in windows 14–17), GC reserves of 2 and
    /// 1 from window 3, a device condemned before window 6 admits and
    /// another after window 12 admits, and live failures injected between
    /// admission and seal in windows 5, 10 and 22. Hashes every admission
    /// verdict, every overflow verdict and every sealed item's device,
    /// guarantee and write group.
    ///
    /// Hall's cuts over the slot's capacities judge every verdict the
    /// capacities decide (the tenant has reservation left and the block a
    /// replica with capacity): flow admits exactly what the cut table
    /// admits, EFT only what it admits.
    fn window_digest(mode: AssignmentMode) -> u64 {
        let scheme = fqos_decluster::AllocationScheme::paper_9_3_1();
        let schedule = FaultSchedule::new()
            .fail(2, 4)
            .recover(2, 8)
            .fail(0, 14)
            .fail(1, 14)
            .fail(2, 14)
            .recover(0, 18)
            .recover(1, 18)
            .recover(2, 18)
            .fail(3, 20);
        let fault = Arc::new(FaultPlane::new(9, schedule).unwrap());
        let r = WindowRing::new(WINDOW_RING, 9, 4, mode, Arc::clone(&fault), true);
        let mut rng = 0x901d_u64;
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let mut seen = [0u32; 4];
        let mut lost = 0;
        for w in 0..24u64 {
            match w {
                3 => {
                    for _ in 0..64 {
                        fault.observe_gc(0, 1, 3);
                        fault.observe_gc(3, 4, 7);
                    }
                    assert_eq!((fault.gc_reserve(0, 4), fault.gc_reserve(3, 4)), (2, 1));
                }
                6 => condemn(&fault, 5),
                _ => {}
            }
            let caps = r.caps(w);
            let mut cuts = CutTable::new(9);
            let mut held = [0usize; 3];
            for i in 0..57u64 {
                let bucket = (splitmix(&mut rng) % 36) as usize;
                let replicas = scheme.replicas(bucket);
                let id = w * 100 + i;
                let write = splitmix(&mut rng).is_multiple_of(4);
                let req = if write { wreq(id) } else { req(id) };
                let tenant = splitmix(&mut rng) % 3;
                let reserved = if tenant == 0 { 5 } else { 99 };
                let out = r.try_admit(w, tenant, reserved, req, replicas);
                fnv(&mut h, out as u64);
                seen[out as usize] += 1;
                let judged =
                    held[tenant as usize] < reserved && replicas.iter().any(|&d| caps[d] > 0);
                let (fits, with) = cut_verdict(&cuts, &caps, replicas, write);
                let admitted = out == AdmitResult::Admitted;
                match mode {
                    AssignmentMode::OptimalFlow if judged => assert_eq!(admitted, fits),
                    _ => assert!(!admitted || fits, "EFT admitted past a cut"),
                }
                if admitted {
                    cuts = with;
                    held[tenant as usize] += 1;
                }
                if splitmix(&mut rng).is_multiple_of(8) {
                    let parked = r.add_overflow(w, 9, req, scheme.replicas(bucket));
                    fnv(&mut h, u64::from(parked));
                }
            }
            match w {
                5 => {
                    fault.inject(7, FaultKind::Fail, 6).unwrap();
                    fault.inject(7, FaultKind::Recover, 7).unwrap();
                }
                10 => {
                    fault.inject(6, FaultKind::Fail, 11).unwrap();
                    fault.inject(6, FaultKind::Recover, 12).unwrap();
                }
                12 => condemn(&fault, 4),
                22 => {
                    for d in [6, 7, 8] {
                        fault.inject(d, FaultKind::Fail, 23).unwrap();
                    }
                }
                _ => {}
            }
            let sealed = r.seal(w);
            fnv(&mut h, sealed.guaranteed);
            fnv(&mut h, sealed.total);
            for item in &sealed.items {
                fnv(&mut h, item.req.device as u64);
                fnv(&mut h, u64::from(item.guaranteed));
                let (group, fanout) = item.write_group.unwrap_or((u32::MAX, 0));
                fnv(&mut h, u64::from(group) << 32 | u64::from(fanout));
            }
            for &tenant in &sealed.lost {
                fnv(&mut h, tenant);
            }
            lost += sealed.lost.len();
            fnv(&mut h, 0xff);
        }
        assert!(seen.iter().all(|&n| n > 0), "every verdict: {seen:?}");
        assert!(lost > 0 && fault.redispatches() > 0 && fault.retries() > 0);
        h
    }

    /// Recorded before the per-device capacity vector replaced the
    /// degraded-window wrapper, the GC reserve's pinned units and EFT's
    /// reserve vector: the same admissions and the same sealed schedule.
    #[test]
    fn window_golden() {
        assert_eq!(
            window_digest(AssignmentMode::OptimalFlow),
            0x7ba4_8d88_b01b_fc93
        );
        assert_eq!(window_digest(AssignmentMode::Eft), 0xb37c_29b8_2c46_a47d);
    }
}
