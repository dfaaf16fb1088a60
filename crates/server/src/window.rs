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
//! and `M` otherwise. Both assignment modes admit against that vector, so
//! admission re-routes blocks away from excluded devices in one feasibility
//! question (Hall's condition with per-device capacities). At seal the
//! *execution* health view is re-read: items still assigned to a device
//! that failed meanwhile (live injection between admission and seal) are
//! drained and re-dispatched onto a surviving replica within the same
//! interval, on the survivors' full `M`; an item with no surviving replica
//! is counted lost — never silently dropped.
//!
//! # Sealing in place
//!
//! A request's [`Parked`] entry is its one record from admission until a
//! worker's batch copies it. The seal finalises the window's entries where
//! they are — a read's `assigned` becomes its dispatch device, or `None`
//! when it is lost; a write goes to every replica — and hands the window's
//! [`OpenWindow`] on as the [`SealedWindow`]. Only a window whose schedule
//! is rebuilt around a drained device allocates at seal.
//!
//! # Only open windows hold state
//!
//! Slots are reused modulo the configured ring size
//! ([`crate::config::ServerConfig::ring_slots`]); the engine's watermark
//! protocol guarantees a slot is sealed and drained before its index comes
//! around again (enforced here when a slot opens). A closed slot is
//! its window tag and an empty `Option`. Everything a window needs while it
//! is open — its capacities and feasibility kernel, per-tenant counts and
//! parked entries — is one boxed [`OpenWindow`], which the opening
//! submitter brings as its spare and the engine recycles after the seal.

use crate::config::AssignmentMode;
use crate::fault::{FaultPlane, MAX_FAULT_DEVICES};
use fqos_flashsim::{IoOp, IoRequest};
use fqos_maxflow::IncrementalRetrieval;
use fqos_sync::{Arc, Class, Mutex};

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

/// A request parked in a window: the one record it has from admission
/// until a worker's batch copies it. The seal fixes it in place.
#[derive(Debug, Clone)]
pub(crate) struct Parked {
    pub tenant: u64,
    pub req: IoRequest,
    replicas: ReplicaTuple,
    /// Chosen replica of a read: set at admit time in EFT mode, copied out
    /// of the flow kernel at seal in flow mode, and final once sealed,
    /// where `None` means every replica is down (lost). Writes fan out to
    /// every replica; the units they charged are the replicas outside the
    /// slot's `admit_mask`.
    assigned: Option<usize>,
}

impl Parked {
    fn is_write(&self) -> bool {
        self.req.op == IoOp::Write
    }

    /// A write's copy count, one per replica; `None` for a read.
    pub fn write_copies(&self) -> Option<u32> {
        self.is_write().then_some(u32::from(self.replicas.len))
    }

    /// Where a sealed entry is dispatched: a write to every replica, in
    /// tuple order, one copy each — including replicas the window did not
    /// charge (failed or slow at admission), whose fate the worker's
    /// bounded retry decides; a read to its assigned device, or nowhere
    /// when it is lost.
    pub fn targets(&self) -> impl Iterator<Item = usize> + '_ {
        let (copies, read) = match self.req.op {
            IoOp::Write => (self.replicas.len as usize, None),
            IoOp::Read => (0, self.assigned),
        };
        self.replicas.iter().take(copies).chain(read)
    }
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

/// An open window's feasibility state, one variant per [`AssignmentMode`].
/// It lives in the window's [`OpenWindow`] and is reset, buffers kept,
/// each time a slot checks that out.
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

/// What a window holds only while it is open. A slot checks one out when
/// its window opens, the seal hands it on with the window's entries, and
/// it goes back to the engine's free list once they are cut into batches:
/// the engine holds as many as windows are open, not one per slot.
#[derive(Debug)]
pub(crate) struct OpenWindow {
    /// Exclusion bitmap captured when the window opened: fail-stop
    /// admission view plus devices the scorer classified `Slow` at open.
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
    /// The next state on the free list while this one waits there.
    next: Option<Box<OpenWindow>>,
}

/// Window states waiting to open a window, linked through the states
/// themselves: keeping one costs no allocation.
#[derive(Debug, Default)]
pub(crate) struct Spares(Option<Box<OpenWindow>>);

impl Spares {
    pub fn push(&mut self, mut w: Box<OpenWindow>) {
        w.next = self.0.take();
        self.0 = Some(w);
    }

    pub fn pop(&mut self) -> Option<Box<OpenWindow>> {
        let mut w = self.0.take()?;
        self.0 = w.next.take();
        Some(w)
    }

    /// How many states wait here.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        std::iter::successors(self.0.as_deref(), |w| w.next.as_deref()).count()
    }
}

impl OpenWindow {
    /// An empty window state for `mode` on `devices` devices at `accesses`
    /// a window, its buffers sized for the `N·M` guaranteed admissions a
    /// window can hold: built in one go, it never grows in a window, and
    /// its buffers sit together rather than among the batches a seal
    /// allocates meanwhile.
    fn new(mode: AssignmentMode, devices: usize, accesses: usize) -> Self {
        let window = devices * accesses;
        OpenWindow {
            admit_mask: 0,
            fail_mask: 0,
            feas: match mode {
                AssignmentMode::OptimalFlow => {
                    let mut kernel = IncrementalRetrieval::new(devices, accesses);
                    kernel.reserve(window, MAX_COPIES);
                    Feasibility::Flow(kernel)
                }
                AssignmentMode::Eft => Feasibility::Eft {
                    loads: [0; MAX_FAULT_DEVICES],
                    cap: [0; MAX_FAULT_DEVICES],
                },
            },
            per_tenant: Vec::with_capacity(window),
            guaranteed: Vec::with_capacity(window),
            overflow: Vec::new(),
            next: None,
        }
    }

    /// Open for `window`: capture the health view as one capacity per
    /// device and clear the previous window's state, keeping its buffers.
    fn reset_for(&mut self, window: u64, accesses: usize, fault: &FaultPlane) {
        // Fail-stop devices are excluded outright; detected-slow devices
        // are steered around too (they are live — blocks with no other
        // copy still fall back to them, see try_admit).
        let fail_mask = fault.admission_mask(window);
        let admit_mask = fail_mask | fault.live_slow_mask();
        self.admit_mask = admit_mask;
        self.fail_mask = fail_mask;
        // Capacity 0 on an excluded device, `M` on every other.
        let devices = fault.devices();
        let m = u16::try_from(accesses).unwrap_or(u16::MAX);
        let mut caps = [0u16; MAX_FAULT_DEVICES];
        for (d, c) in caps[..devices].iter_mut().enumerate() {
            if admit_mask >> d & 1 == 0 {
                *c = m;
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

    /// Park one guaranteed admission and count it against its tenant, in
    /// buffers [`OpenWindow::new`] sized for a window.
    fn park(&mut self, parked: Parked) {
        let held = self
            .per_tenant
            .iter_mut()
            .find(|(t, _)| *t == parked.tenant);
        match held {
            Some((_, n)) => *n += 1,
            None => self.per_tenant.push((parked.tenant, 1)),
        }
        self.guaranteed.push(parked);
    }

    /// The accesses the window's devices hold in all: `Σ_d cap_d`.
    fn capacity(&self) -> usize {
        let caps = match &self.feas {
            Feasibility::Flow(kernel) => kernel.caps(),
            Feasibility::Eft { cap, .. } => &cap[..],
        };
        caps.iter().map(|&c| usize::from(c)).sum()
    }
}

/// One ring slot: the window it last opened for, and that window's state
/// while it is open (`None` once sealed, or before its first window).
#[derive(Debug)]
struct SlotState {
    window: u64,
    open: Option<Box<OpenWindow>>,
}

/// The drained contents of one window: the slot's own entries, sealed in
/// place, in dispatch order — the guaranteed set in admission order, then
/// overflow — inside the [`OpenWindow`] they were parked in.
#[derive(Debug, Default)]
pub(crate) struct SealedWindow {
    /// Guaranteed admissions still servable (a write counts once, not per
    /// copy).
    pub guaranteed: u64,
    /// Admissions still servable, guaranteed and overflow.
    pub total: u64,
    /// `None` for a window nothing was admitted into.
    entries: Option<Box<OpenWindow>>,
}

impl SealedWindow {
    /// Every entry in dispatch order, with whether it was admitted under
    /// the deterministic guarantee (vs statistical overflow). A lost read
    /// is among them, with no target.
    pub fn entries(&self) -> impl Iterator<Item = (&Parked, bool)> {
        let (in_guarantee, overflow) = match self.entries.as_deref() {
            Some(w) => (&w.guaranteed[..], &w.overflow[..]),
            None => (&[][..], &[][..]),
        };
        let guaranteed = in_guarantee.iter().map(|p| (p, true));
        guaranteed.chain(overflow.iter().map(|p| (p, false)))
    }

    /// Tenant of each admission unservable at seal (every replica down),
    /// one per lost request, in drain order — the engine settles each as
    /// [`crate::ledger::SettleKind::Lost`].
    pub fn lost(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries()
            .filter(|(p, _)| !p.is_write() && p.assigned.is_none())
            .map(|(p, _)| p.tenant)
    }

    /// The window state, entries and all, for the free list once the
    /// entries are cut into batches; the next window to check it out
    /// clears them.
    pub fn recycle(self) -> Option<Box<OpenWindow>> {
        self.entries
    }
}

/// Ring of interval-admission slots shared by all submitter threads.
pub(crate) struct WindowRing {
    slots: Vec<Mutex<SlotState>>,
    fault: Arc<FaultPlane>,
    accesses: usize,
    mode: AssignmentMode,
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
                    let closed = SlotState {
                        window: 0,
                        open: None,
                    };
                    Mutex::new(Class::WindowSlot, closed)
                })
                .collect(),
            fault,
            accesses,
            mode,
            failslow,
        }
    }

    /// A new, empty window state sized for this ring, for a free list
    /// that has none to give.
    pub fn spare(&self) -> Box<OpenWindow> {
        let devices = self.fault.devices();
        Box::new(OpenWindow::new(self.mode, devices, self.accesses))
    }

    fn slot(&self, window: u64) -> &Mutex<SlotState> {
        &self.slots[(window % self.slots.len() as u64) as usize]
    }

    /// `window`'s state in its locked slot `s`, opening the window on first
    /// touch with `spare` (a new one if that is empty). Panics if the slot
    /// still holds an unsealed *older* window — that means submitter clocks
    /// drifted further apart than the ring covers.
    fn open<'s>(
        &self,
        s: &'s mut SlotState,
        window: u64,
        spare: &mut Option<Box<OpenWindow>>,
    ) -> &'s mut OpenWindow {
        if s.open.is_some() && s.window != window {
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
        s.window = window;
        s.open.get_or_insert_with(|| {
            let mut w = spare.take().unwrap_or_else(|| self.spare());
            w.reset_for(window, self.accesses, &self.fault);
            w
        })
    }

    /// Try to admit one guaranteed request for `tenant` (with per-interval
    /// reservation `reserved`) into `window`, opening it with `spare` if it
    /// is not yet open. Admits iff the tenant has reservation left in this
    /// window **and** the request fits the window's per-device capacities.
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
        spare: &mut Option<Box<OpenWindow>>,
    ) -> AdmitResult {
        let mut guard = self.slot(window).lock();
        let w = self.open(&mut guard, window, spare);
        let held = w.per_tenant.iter().find(|&&(t, _)| t == tenant);
        if held.map_or(0, |&(_, n)| n) as usize >= reserved {
            return AdmitResult::Full;
        }
        let mask = w.admit_mask;
        let tuple = ReplicaTuple::new(replicas);
        let write = req.op == IoOp::Write;
        if tuple.outside(mask).next().is_none() {
            // No schedulable replica. All failed is a data-path refusal.
            // All merely slow: a read is readable, so it parks as
            // best-effort overflow with no deadline promised; a write is
            // congestion — delay it, don't lose it. Writes never park as
            // overflow: they are `Full`, and the engine delays them within
            // the horizon or sheds them, protecting read deadlines.
            if replicas.iter().all(|&d| w.fail_mask >> d & 1 == 1) {
                return AdmitResult::Unavailable;
            }
            if write {
                return AdmitResult::Full;
            }
            w.overflow.push(Parked {
                tenant,
                req,
                replicas: tuple,
                assigned: None,
            });
            return AdmitResult::AdmittedSlow;
        }
        let assigned = match &mut w.feas {
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
        w.park(parked);
        AdmitResult::Admitted
    }

    /// Park an overflow (statistically admitted) request in `window`,
    /// opening it with `spare` if it is not yet open, bypassing the
    /// reservation and feasibility checks, if `admits(k, Σ_d cap_d)`: `k`
    /// counts the window's requests with this one, in the hold that parks,
    /// so two submitters cannot both take its last place. Device choice is
    /// deferred to seal, where overflow items pile onto the least-loaded
    /// surviving replica after the guaranteed schedule. Returns `false`
    /// (and parks nothing) on a refusal or when every replica is down.
    pub fn add_overflow(
        &self,
        window: u64,
        tenant: u64,
        req: IoRequest,
        replicas: &[usize],
        spare: &mut Option<Box<OpenWindow>>,
        admits: impl FnOnce(usize, usize) -> bool,
    ) -> bool {
        // Writes are never admitted statistically: an overflow write would
        // consume `c×` device capacity with no feasibility backing, eating
        // directly into guaranteed read headroom. The engine delays or
        // sheds writes instead.
        if req.op == IoOp::Write {
            return false;
        }
        let mut guard = self.slot(window).lock();
        let w = self.open(&mut guard, window, spare);
        if !admits(w.guaranteed.len() + w.overflow.len() + 1, w.capacity()) {
            return false;
        }
        // Only an all-*failed* replica set refuses: slow devices are live
        // and can still carry best-effort work.
        if w.fail_mask != 0 && replicas.iter().all(|&d| w.fail_mask >> d & 1 == 1) {
            return false;
        }
        w.overflow.push(Parked {
            tenant,
            req,
            replicas: ReplicaTuple::new(replicas),
            assigned: None,
        });
        true
    }

    /// Seal `window`: fix every request's replica assignment against the
    /// final execution-interval health view, in the window's own entries,
    /// and close the slot. An untouched window seals to an empty result.
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
        let open = {
            let mut s = self.slot(window).lock();
            if s.window == window {
                s.open.take()
            } else {
                None
            }
        };
        let Some(mut open) = open else {
            return SealedWindow::default();
        };
        let w = &mut *open;
        if let Feasibility::Flow(kernel) = &w.feas {
            // The kernel's assignment list holds one entry per admitted
            // unit in admission order: a read consumed one unit, a write
            // one per charged replica. Writes ignore their entries (they
            // fan out to every replica regardless).
            let assigned = kernel.assigned();
            let mut next = 0;
            for p in &mut w.guaranteed {
                if p.is_write() {
                    next += p.replicas.outside(w.admit_mask).count();
                } else {
                    p.assigned = assigned.get(next).map(|&d| d as usize);
                    next += 1;
                }
            }
            debug_assert_eq!(next, assigned.len());
        }
        let OpenWindow {
            guaranteed,
            overflow,
            ..
        } = w;

        // Final per-device loads are rebuilt from scratch so seal-time
        // re-dispatch balances against what actually lands on survivors.
        let mut loads = [0u32; MAX_FAULT_DEVICES];
        let mut lost = 0u64;
        if drain_mask == 0 {
            // Healthy execution interval: the admission-time assignments
            // stand as-is.
            for p in guaranteed.iter() {
                if p.is_write() {
                    p.replicas.iter().for_each(|d| loads[d] += 1);
                    continue;
                }
                #[expect(
                    clippy::expect_used,
                    reason = "admission assigns every guaranteed read a replica"
                )]
                let d = p.assigned.expect("guaranteed request must be assigned");
                loads[d] += 1;
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
                IncrementalRetrieval::with_failed(self.fault.devices(), self.accesses, drain_mask);
            // Writes keep their full fan-out whatever the drain: pre-charge
            // the rebuilt schedule with one pinned unit per surviving write
            // replica so read re-dispatch packs around the write load
            // instead of overcommitting the survivors. Pinned adds on
            // drained devices charge nothing.
            for p in guaranteed.iter().filter(|p| p.is_write()) {
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
                    (!p.is_write() && live).then(|| rebuilt.try_add(p.replicas.widen(&mut buf)))
                })
                .collect();
            for (p, placement) in guaranteed.iter_mut().zip(placements) {
                if p.is_write() {
                    p.replicas.iter().for_each(|d| loads[d] += 1);
                    continue;
                }
                p.assigned = match placement {
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
                        Some(d)
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
                        Some(d)
                    }
                    None => {
                        // Every replica failed or condemned slow. A slow
                        // replica is still live: keep the block on the
                        // least-loaded one (the worker-side hedge and
                        // deadline audit pick it up) instead of losing
                        // readable data. Only an all-failed set — beyond
                        // the c − 1 tolerance — is lost: counted, audited,
                        // never silently dropped.
                        let d = p.replicas.outside(exec_mask).min_by_key(|&d| loads[d]);
                        match d {
                            Some(_) => self.fault.note_retry(),
                            None => lost += 1,
                        }
                        d
                    }
                };
                if let Some(d) = p.assigned {
                    loads[d] += 1;
                }
            }
        }
        let n_guaranteed = guaranteed.len() as u64 - lost;
        let mut n_overflow = 0u64;
        for p in overflow.iter_mut() {
            // Prefer replicas that are neither failed nor detected-slow;
            // fall back to a slow-but-live one before declaring loss.
            p.assigned = p
                .replicas
                .outside(drain_mask)
                .min_by_key(|&d| loads[d])
                .or_else(|| p.replicas.outside(exec_mask).min_by_key(|&d| loads[d]));
            if let Some(d) = p.assigned {
                loads[d] += 1;
                n_overflow += 1;
            }
        }
        SealedWindow {
            guaranteed: n_guaranteed,
            total: n_guaranteed + n_overflow,
            entries: Some(open),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WINDOW_RING;
    use crate::fault::{FaultKind, FaultSchedule};
    use fqos_decluster::analysis::CutTable;
    use fqos_flashsim::IoRequest;

    impl Parked {
        /// A sealed entry on `replicas`: a read dispatched to `assigned`
        /// (`None`: lost), a write to every replica.
        pub(crate) fn sealed(
            tenant: u64,
            req: IoRequest,
            replicas: &[usize],
            assigned: Option<usize>,
        ) -> Self {
            let replicas = ReplicaTuple::new(replicas);
            Parked {
                tenant,
                req,
                replicas,
                assigned,
            }
        }
    }

    impl SealedWindow {
        /// A sealed window of guaranteed entries, counted as the seal counts.
        pub(crate) fn of(in_guarantee: Vec<Parked>) -> Self {
            let mut entries = OpenWindow::new(AssignmentMode::Eft, 1, 1);
            entries.guaranteed = in_guarantee;
            let mut sealed = SealedWindow {
                guaranteed: 0,
                total: 0,
                entries: Some(Box::new(entries)),
            };
            let servable = sealed.entries().count() - sealed.lost().count();
            sealed.guaranteed = servable as u64;
            sealed.total = servable as u64;
            sealed
        }
    }

    impl WindowRing {
        /// [`WindowRing::try_admit`], opening a closed window with a new
        /// state.
        fn admit(
            &self,
            window: u64,
            tenant: u64,
            reserved: usize,
            req: IoRequest,
            replicas: &[usize],
        ) -> AdmitResult {
            self.try_admit(window, tenant, reserved, req, replicas, &mut None)
        }

        /// [`WindowRing::add_overflow`] with a test that always admits,
        /// opening a closed window with a new state.
        fn overflow(&self, window: u64, tenant: u64, req: IoRequest, replicas: &[usize]) -> bool {
            self.add_overflow(window, tenant, req, replicas, &mut None, |_, _| true)
        }
    }

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
        assert!(r.admit(0, 1, 10, req(1), &[0, 1]).is_admitted());
        assert!(r.admit(0, 1, 10, req(2), &[0]).is_admitted());
        let sealed = r.seal(0);
        assert_eq!(sealed.guaranteed, 2);
        let devs: Vec<usize> = sealed.items().iter().map(|i| i.device).collect();
        assert!(devs.contains(&0) && devs.contains(&1));
    }

    #[test]
    fn eft_mode_can_strand_what_flow_accepts() {
        // Greedy ties break toward the first replica: request A on 0, then
        // B (only replica 0) is stranded — the documented EFT tradeoff.
        let eft = ring(AssignmentMode::Eft);
        assert!(eft.admit(0, 1, 10, req(1), &[0, 1]).is_admitted());
        assert_eq!(eft.admit(0, 1, 10, req(2), &[0]), AdmitResult::Full);

        let flow = ring(AssignmentMode::OptimalFlow);
        assert!(flow.admit(0, 1, 10, req(1), &[0, 1]).is_admitted());
        assert!(flow.admit(0, 1, 10, req(2), &[0]).is_admitted());
    }

    #[test]
    fn per_tenant_reservation_is_enforced() {
        let r = ring(AssignmentMode::OptimalFlow);
        assert!(r.admit(3, 7, 2, req(1), &[0, 1]).is_admitted());
        assert!(r.admit(3, 7, 2, req(2), &[1, 2]).is_admitted());
        assert_eq!(
            r.admit(3, 7, 2, req(3), &[2, 0]),
            AdmitResult::Full,
            "reservation of 2 exhausted"
        );
        assert!(
            r.admit(3, 8, 1, req(4), &[2, 0]).is_admitted(),
            "other tenants unaffected"
        );
    }

    #[test]
    fn device_budget_is_enforced() {
        let r = ring(AssignmentMode::OptimalFlow);
        // M = 1 on 3 devices → at most 3 requests, whatever the replicas.
        assert!(r.admit(1, 1, 99, req(1), &[0, 1, 2]).is_admitted());
        assert!(r.admit(1, 1, 99, req(2), &[0, 1, 2]).is_admitted());
        assert!(r.admit(1, 1, 99, req(3), &[0, 1, 2]).is_admitted());
        assert_eq!(r.admit(1, 1, 99, req(4), &[0, 1, 2]), AdmitResult::Full);
        let sealed = r.seal(1);
        assert_eq!(sealed.total, 3);
        let mut devs: Vec<usize> = sealed.items().iter().map(|i| i.device).collect();
        devs.sort_unstable();
        assert_eq!(devs, vec![0, 1, 2]);
    }

    #[test]
    fn overflow_lands_on_least_loaded_replica_after_guaranteed() {
        let r = ring(AssignmentMode::OptimalFlow);
        assert!(r.admit(0, 1, 9, req(1), &[0]).is_admitted());
        assert!(r.overflow(0, 2, req(2), &[0, 1]));
        assert!(r.overflow(0, 2, req(3), &[0, 1]));
        let sealed = r.seal(0);
        assert_eq!(sealed.guaranteed, 1);
        assert_eq!(sealed.total, 3);
        assert!(!sealed.items()[1].guaranteed);
        // First overflow goes to empty device 1, second balances back.
        assert_eq!(sealed.items()[1].device, 1);
        assert_eq!(sealed.admitted_devices_sorted(), vec![0, 0, 1]);
    }

    /// One dispatch of a sealed window as a flat list reads it: the device,
    /// whether it is guaranteed, and for a write's copy `(group, fanout)` —
    /// the write's ordinal among the window's writes and its copy count.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Dispatch {
        device: usize,
        guaranteed: bool,
        group: Option<(u32, u32)>,
    }

    impl SealedWindow {
        /// Every dispatch in order, a write's copies back to back.
        fn items(&self) -> Vec<Dispatch> {
            let mut writes = 0;
            let mut out = Vec::new();
            for (p, guaranteed) in self.entries() {
                let group = p.write_copies().map(|fanout| {
                    writes += 1;
                    (writes - 1, fanout)
                });
                out.extend(p.targets().map(|device| Dispatch {
                    device,
                    guaranteed,
                    group,
                }));
            }
            out
        }

        fn admitted_devices_sorted(&self) -> Vec<usize> {
            let mut v: Vec<usize> = self.items().iter().map(|i| i.device).collect();
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
            assert!(r.admit(5, 1, 9, req(1), &[0]).is_admitted());
            assert_eq!(r.admit(5, 1, 9, req(2), &[0]), AdmitResult::Full);
            assert_eq!(r.seal(5).total, 1);
            let next = 5 + WINDOW_RING as u64;
            assert!(r.admit(next, 1, 9, req(3), &[0]).is_admitted());
            assert_eq!(r.seal(next).total, 1);
        }
    }

    #[test]
    fn layout_a_closed_slot_is_its_tag_and_an_empty_option() {
        // A thousand slots stay resident for the ring's life; only the few
        // open windows carry a kernel and buffers.
        let size = std::mem::size_of::<Mutex<SlotState>>();
        assert!(size <= 64, "{size} bytes");
        assert_eq!(std::mem::size_of::<SlotState>(), 16);
    }

    #[test]
    fn a_refused_overflow_parks_nothing() {
        let r = ring(AssignmentMode::OptimalFlow);
        assert!(r.admit(3, 1, 9, req(1), &[0]).is_admitted());
        // The test sees the window with the request counted: one parked,
        // this one, of three devices of one access.
        let mut asked = None;
        let refuse = |k, capacity| {
            asked = Some((k, capacity));
            false
        };
        assert!(!r.add_overflow(3, 2, req(2), &[1], &mut None, refuse));
        assert_eq!(asked, Some((2, 3)));
        assert!(r.overflow(3, 2, req(3), &[1]));
        let admit_third = |k, capacity| k <= capacity;
        assert!(r.add_overflow(3, 2, req(4), &[2], &mut None, admit_third));
        assert!(!r.add_overflow(3, 2, req(5), &[2], &mut None, admit_third));
        let sealed = r.seal(3);
        assert_eq!((sealed.guaranteed, sealed.total), (1, 3));
        let mut spare = sealed.recycle();
        // The sealed state opens the next window empty.
        let next = 4;
        assert!(r
            .try_admit(next, 1, 9, req(6), &[0], &mut spare)
            .is_admitted());
        assert!(spare.is_none(), "the window opened with the spare");
        assert!(r.add_overflow(next, 2, req(7), &[1], &mut None, |k, _| k == 2));
    }

    #[test]
    #[should_panic(expected = "window ring wrapped")]
    fn unsealed_slot_reuse_panics() {
        let r = ring(AssignmentMode::Eft);
        assert!(r.admit(0, 1, 1, req(1), &[0]).is_admitted());
        // Same slot index one full ring later, while window 0 is unsealed.
        let _ = r.admit(WINDOW_RING as u64, 1, 1, req(2), &[0]);
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
        assert!(r.admit(3, 1, 9, req(1), &[0, 1]).is_admitted());
        let sealed = r.seal(3);
        assert_eq!(sealed.total, 1);
        assert_eq!(sealed.items()[0].device, 1);
        assert_eq!(fault.reroutes(), 1);
        assert_eq!(fault.redispatches(), 0, "scripted faults never redispatch");
        assert!(sealed.lost().next().is_none());
        // Window 6 executes during 7: recovered, full capacity back.
        assert!(r.admit(6, 1, 9, req(2), &[0]).is_admitted());
        assert_eq!(r.seal(6).items()[0].device, 0);
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
        assert_eq!(r.admit(0, 1, 9, req(1), &[0, 1]), AdmitResult::Unavailable);
        assert!(r.admit(0, 1, 9, req(2), &[1, 2]).is_admitted());
        assert!(!r.overflow(0, 1, req(3), &[0, 1]), "overflow refused too");
        let eft = WindowRing::new(WINDOW_RING, 3, 1, AssignmentMode::Eft, fault, true);
        assert_eq!(
            eft.admit(0, 1, 9, req(4), &[0, 1]),
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
        assert!(r.admit(0, 1, 9, req(1), &[0, 1]).is_admitted());
        // Device 0 dies before the execution interval (window 1).
        fault.inject(0, FaultKind::Fail, 1).unwrap();
        let sealed = r.seal(0);
        assert_eq!(sealed.total, 1);
        assert_eq!(sealed.items()[0].device, 1, "re-dispatched to survivor");
        assert_eq!(fault.redispatches(), 1);
        assert!(sealed.lost().next().is_none());
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
        assert!(r.admit(0, 1, 9, req(1), &[0, 1]).is_admitted());
        assert!(r.overflow(0, 1, req(2), &[0]));
        fault.inject(0, FaultKind::Fail, 1).unwrap();
        fault.inject(1, FaultKind::Fail, 1).unwrap();
        let sealed = r.seal(0);
        assert_eq!(sealed.total, 0, "both replicas down: nothing dispatchable");
        assert_eq!(sealed.lost().collect::<Vec<_>>(), vec![1, 1]);
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
        assert!(r.admit(0, 1, 9, req(1), &[0, 1]).is_admitted());
        let sealed = r.seal(0);
        assert_eq!(sealed.total, 1);
        assert_eq!(sealed.items()[0].device, 1, "routed off the slow device");
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
        assert!(r.admit(0, 1, 9, req(1), &[0, 1]).is_admitted());
        // The scorer condemns device 0 only after admission assigned to it.
        condemn(&fault, 0);
        let sealed = r.seal(0);
        assert_eq!(sealed.total, 1);
        assert_eq!(
            sealed.items()[0].device,
            1,
            "drained to the healthy replica"
        );
        assert_eq!(fault.retries(), 1);
        assert_eq!(fault.redispatches(), 0, "slow is not fail-stop");
        assert!(sealed.lost().next().is_none());
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
        assert!(r.admit(0, 1, 9, req(1), &[0, 1]).is_admitted());
        condemn(&fault, 0);
        let sealed = r.seal(0);
        assert_eq!(sealed.total, 1);
        assert_eq!(sealed.items()[0].device, 0, "control arm: no drain");
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
            assert!(r.admit(0, 1, 9, wreq(1), &[0, 1]).is_admitted());
            // The write consumed the single slot on both replicas.
            assert_eq!(r.admit(0, 1, 9, req(2), &[0]), AdmitResult::Full);
            assert_eq!(r.admit(0, 1, 9, req(3), &[1]), AdmitResult::Full);
            assert!(r.admit(0, 1, 9, req(4), &[2]).is_admitted());
            let sealed = r.seal(0);
            assert_eq!(sealed.guaranteed, 2, "logical: one write + one read");
            assert_eq!(sealed.total, 2);
            assert_eq!(sealed.items().len(), 3, "write fans out to both replicas");
            let items = sealed.items();
            let copies: Vec<_> = items.iter().filter(|i| i.group.is_some()).collect();
            assert_eq!(copies.len(), 2);
            assert!(copies.iter().all(|i| i.group == Some((0, 2))));
            let mut devs: Vec<usize> = copies.iter().map(|i| i.device).collect();
            devs.sort_unstable();
            assert_eq!(devs, vec![0, 1]);
        }
    }

    #[test]
    fn write_refusal_rolls_back_partial_charges() {
        for mode in BOTH_MODES {
            let r = ring(mode);
            assert!(r.admit(0, 1, 9, req(1), &[0]).is_admitted());
            // Device 0 is full: the write cannot charge its whole fan-out.
            assert_eq!(r.admit(0, 1, 9, wreq(2), &[0, 1]), AdmitResult::Full);
            // The refused attempt must not leak capacity onto device 1.
            assert!(r.admit(0, 1, 9, req(3), &[1]).is_admitted());
            assert!(r.admit(0, 1, 9, req(4), &[2]).is_admitted());
            assert_eq!(r.seal(0).total, 3);
        }
    }

    #[test]
    fn write_refused_on_its_second_replica_restores_rerouted_reads() {
        let r = ring(AssignmentMode::OptimalFlow);
        assert!(r.admit(0, 1, 9, req(1), &[0, 1]).is_admitted());
        assert!(r.admit(0, 1, 9, req(2), &[1, 2]).is_admitted());
        // The write's unit on 1 fits by pushing read 2 over to device 2;
        // its unit on 2 then cannot fit. The refusal must undo the push.
        assert_eq!(r.admit(0, 1, 9, wreq(3), &[1, 2]), AdmitResult::Full);
        let devs: Vec<usize> = r.seal(0).items().iter().map(|i| i.device).collect();
        assert_eq!(devs, vec![0, 1]);
    }

    #[test]
    fn writes_never_park_as_overflow() {
        let r = ring(AssignmentMode::Eft);
        assert!(!r.overflow(0, 1, wreq(1), &[0, 1]));
        assert_eq!(r.seal(0).total, 0);
    }

    #[test]
    fn write_on_all_failed_replicas_is_unavailable_but_all_slow_is_full() {
        let fault =
            Arc::new(FaultPlane::new(3, FaultSchedule::new().fail(0, 0).fail(1, 0)).unwrap());
        let r = WindowRing::new(WINDOW_RING, 3, 1, AssignmentMode::OptimalFlow, fault, true);
        assert_eq!(r.admit(0, 1, 9, wreq(1), &[0, 1]), AdmitResult::Unavailable);

        let slow = healthy(3);
        condemn(&slow, 0);
        condemn(&slow, 1);
        let r = WindowRing::new(WINDOW_RING, 3, 1, AssignmentMode::Eft, slow, true);
        assert_eq!(
            r.admit(0, 1, 9, wreq(2), &[0, 1]),
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
        assert!(r.admit(0, 1, 9, wreq(1), &[0, 1]).is_admitted());
        // Only the live replica was charged — and it is now full.
        assert_eq!(r.admit(0, 1, 9, req(2), &[1]), AdmitResult::Full);
        let sealed = r.seal(0);
        assert_eq!(sealed.guaranteed, 1);
        assert_eq!(
            sealed.items().len(),
            2,
            "fan-out still targets the failed replica; the worker decides its fate"
        );
        assert!(sealed.items().iter().all(|i| i.group == Some((0, 2))));
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
        assert_eq!(r.admit(0, 1, 9, req(1), &[0, 1]), AdmitResult::AdmittedSlow);
        let sealed = r.seal(0);
        assert_eq!(sealed.total, 1, "slow-but-live data still serves");
        assert_eq!(sealed.guaranteed, 0, "no deadline promise was made");
        assert!(sealed.lost().next().is_none());
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
        /// window with `spare` if it is not open yet.
        fn caps(&self, window: u64, spare: &mut Option<Box<OpenWindow>>) -> Vec<u16> {
            let mut s = self.slot(window).lock();
            match &self.open(&mut s, window, spare).feas {
                Feasibility::Flow(kernel) => kernel.caps().to_vec(),
                Feasibility::Eft { cap, .. } => cap[..self.fault.devices()].to_vec(),
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
    /// failures (a whole block down in windows 14–17), a device condemned
    /// before window 6 admits and another after window 12 admits, and live
    /// failures injected between admission and seal in windows 5, 10 and
    /// 22. Hashes every admission verdict, every overflow verdict and every
    /// sealed item's device, guarantee and write group.
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
        // Each window opens with the state the previous one sealed, as the
        // engine recycles them: nothing it held may leak into the next.
        let mut spare = None;
        for w in 0..24u64 {
            if w == 6 {
                condemn(&fault, 5);
            }
            let caps = r.caps(w, &mut spare);
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
                let out = r.admit(w, tenant, reserved, req, replicas);
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
                    let parked = r.overflow(w, 9, req, scheme.replicas(bucket));
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
            for item in sealed.items() {
                fnv(&mut h, item.device as u64);
                fnv(&mut h, u64::from(item.guaranteed));
                let (group, fanout) = item.group.unwrap_or((u32::MAX, 0));
                fnv(&mut h, u64::from(group) << 32 | u64::from(fanout));
            }
            for tenant in sealed.lost() {
                fnv(&mut h, tenant);
                lost += 1;
            }
            fnv(&mut h, 0xff);
            spare = sealed.recycle();
            assert!(spare.is_some(), "window {w} opened");
        }
        assert!(seen.iter().all(|&n| n > 0), "every verdict: {seen:?}");
        assert!(lost > 0 && fault.redispatches() > 0 && fault.retries() > 0);
        h
    }

    /// Recorded on the code that still withheld a GC reserve, with this
    /// scenario's GC step taken out: deleting the reserve changed no
    /// admission and no sealed item here.
    #[test]
    fn window_golden() {
        assert_eq!(
            window_digest(AssignmentMode::OptimalFlow),
            0x2854_17c5_b52e_9ffd
        );
        assert_eq!(window_digest(AssignmentMode::Eft), 0xd308_32b7_760d_b775);
    }
}
