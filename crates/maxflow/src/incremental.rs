//! Incremental retrieval scheduling: add requests one at a time and keep the
//! schedule optimal, re-augmenting instead of re-solving (the "integrated
//! maximum flow" idea of the paper's ref \[15\]).
//!
//! Used by the online retrieval path and the statistical admission
//! controller, which probe "would adding this request keep the interval
//! retrievable in `M` accesses?" many times per interval. The budget is a
//! capacity per device, so a failed device (capacity 0) and one with
//! capacity withheld (below `M`) are the same question.
//!
//! The state is a bipartite b-matching kept in flat arrays — no residual
//! graph. Every request has exactly one residual in-edge (from the device it
//! is assigned to), so the search runs over *devices* only: a request's
//! level is its device's level plus one, and per-device `u64` bitmaps serve
//! as the level sets and the DFS dead-end marks. The augmenting path found
//! is the one Dinic's algorithm finds on the equivalent
//! `source → requests → devices → sink` network (see DESIGN.md,
//! "Per-window feasibility kernel"): that is how the kernel was validated
//! against the residual-graph implementation it replaced, whose decisions
//! and assignments the golden fingerprints in `tests/kernel.rs` still pin.
//! The batch [`crate::RetrievalNetwork`] is a loop over this kernel.

use fqos_designs::DeviceId;

/// Largest device count the kernel supports: device sets are `u64` bitmaps
/// and device ids are stored as `u8`.
pub const MAX_DEVICES: usize = 64;

/// Incrementally maintained retrieval schedule over per-device capacities.
///
/// Device `d` serves at most `cap[d]` requests. A zero-capacity device is
/// out of the window: it is dropped from every replica tuple and never
/// assigned, which is how a failed device is modelled. Hall's condition
/// over these capacities (every device set `D` holds at most
/// `Σ_{d ∈ D} cap[d]` of the requests whose live replicas lie in it) is
/// what [`Self::try_add`] decides.
#[derive(Debug, Clone)]
pub struct IncrementalRetrieval {
    devices: u8,
    /// Devices with `load < cap`.
    free: u64,
    /// Per-device capacity and load of the current schedule. Inline, and
    /// the vectors below start empty: building a kernel allocates nothing.
    cap: [u16; MAX_DEVICES],
    load: [u16; MAX_DEVICES],
    /// Device each admitted request is assigned to, in admission order.
    assigned: Vec<u8>,
    /// Request `i`'s live replicas are `reps[end[i - 1]..end[i]]` (from 0
    /// for the first), in the caller's tuple order.
    end: Vec<u32>,
    reps: Vec<u8>,
    /// `assigned` as of the last [`Self::checkpoint`].
    saved: Vec<u8>,
}

fn bit(d: u8) -> u64 {
    1 << d
}

/// An access budget as a capacity.
fn budget(accesses: usize) -> u16 {
    u16::try_from(accesses).expect("access budget fits u16")
}

impl IncrementalRetrieval {
    /// Create an empty scheduler over `devices` devices with a per-device
    /// budget of `accesses`.
    pub fn new(devices: usize, accesses: usize) -> Self {
        Self::with_failed(devices, accesses, 0)
    }

    /// As [`Self::new`], with the devices in the `failed` bitmap down: they
    /// get capacity 0.
    pub fn with_failed(devices: usize, accesses: usize, failed: u64) -> Self {
        assert!(
            (1..=MAX_DEVICES).contains(&devices),
            "1..={MAX_DEVICES} devices supported, got {devices}"
        );
        let mut inc = IncrementalRetrieval {
            devices: devices as u8,
            free: 0,
            cap: [0; MAX_DEVICES],
            load: [0; MAX_DEVICES],
            assigned: Vec::new(),
            end: Vec::new(),
            reps: Vec::new(),
            saved: Vec::new(),
        };
        inc.reset(accesses, failed);
        inc
    }

    /// Forget every request and start over with a new budget and failed
    /// set, keeping the buffers: equivalent to [`Self::with_failed`] on the
    /// same device count, without allocating.
    pub fn reset(&mut self, accesses: usize, failed: u64) {
        let (m, n) = (budget(accesses), self.devices());
        for (d, c) in self.cap[..n].iter_mut().enumerate() {
            *c = if failed >> d & 1 == 1 { 0 } else { m };
        }
        self.clear();
    }

    /// Forget every request and start over with capacity `caps[d]` on
    /// device `d`, keeping the buffers. `caps` covers every device.
    pub fn reset_caps(&mut self, caps: &[u16]) {
        assert_eq!(caps.len(), self.devices(), "one capacity per device");
        self.cap[..caps.len()].copy_from_slice(caps);
        self.clear();
    }

    fn clear(&mut self) {
        self.load.fill(0);
        self.assigned.clear();
        self.end.clear();
        self.reps.clear();
        self.saved.clear();
        self.recount_free();
    }

    /// Number of devices (zero-capacity ones included).
    pub fn devices(&self) -> usize {
        self.devices as usize
    }

    /// Per-device capacity.
    pub fn caps(&self) -> &[u16] {
        &self.cap[..self.devices()]
    }

    /// Number of admitted requests.
    pub fn len(&self) -> usize {
        self.assigned.len()
    }

    /// True if no request has been admitted.
    pub fn is_empty(&self) -> bool {
        self.assigned.is_empty()
    }

    /// Current access budget `M`: the largest device capacity.
    pub fn accesses(&self) -> usize {
        self.caps().iter().copied().max().unwrap_or(0) as usize
    }

    /// Try to admit one more request. Returns `true` (and keeps the request)
    /// if all admitted requests remain schedulable within the devices'
    /// capacities; returns `false` and leaves the state untouched otherwise.
    pub fn try_add(&mut self, replicas: &[DeviceId]) -> bool {
        let mut live = 0u64;
        for &d in replicas {
            assert!(d < self.devices(), "replica {d} out of range");
            if self.cap[d] != 0 {
                live |= 1 << d;
            }
        }
        let Some(first) = self.augment(replicas, live) else {
            return false;
        };
        self.assigned.push(first);
        self.reps.extend(
            replicas
                .iter()
                .map(|&d| d as u8)
                .filter(|&d| live & bit(d) != 0),
        );
        self.end.push(self.reps.len() as u32);
        true
    }

    /// Find the augmenting path for a new request with live replica set
    /// `live`, re-route the requests along it, charge the device at its far
    /// end, and return the device the new request lands on.
    fn augment(&mut self, replicas: &[DeviceId], live: u64) -> Option<u8> {
        if self.free == 0 {
            // Saturated window: no path can end anywhere.
            return None;
        }
        // Level graph over devices: level 0 is the request's own replicas;
        // a device reaches every replica of every request assigned to it.
        // The sink is levelled as soon as a level holds a free device.
        let mut level = [u8::MAX; MAX_DEVICES];
        let (mut seen, mut frontier, mut last) = (0u64, live, 0u8);
        while frontier & self.free == 0 {
            seen |= frontier;
            let mut next = 0u64;
            for (i, &a) in self.assigned.iter().enumerate() {
                if frontier & bit(a) != 0 {
                    for &r in &self.reps[self.span(i)] {
                        next |= bit(r);
                    }
                }
            }
            frontier = next & !seen;
            if frontier == 0 {
                return None;
            }
            last += 1;
            let mut rest = frontier;
            while rest != 0 {
                level[rest.trailing_zeros() as usize] = last;
                rest &= rest - 1;
            }
        }
        let mut dead = 0u64;
        let first = replicas
            .iter()
            .map(|&d| d as u8)
            .find(|&d| live & bit(d) != 0 && self.descend(d, 0, last, &level, &mut dead));
        debug_assert!(first.is_some(), "a levelled sink is always reachable");
        first
    }

    /// Level-constrained DFS from device `d` at level `lvl`. Devices are
    /// tried in tuple order at a request, requests in admission order at a
    /// device; an exhausted device is marked `dead` and never re-entered.
    fn descend(&mut self, d: u8, lvl: u8, last: u8, level: &[u8], dead: &mut u64) -> bool {
        if *dead & bit(d) != 0 {
            return false;
        }
        if lvl == last {
            if self.free & bit(d) != 0 {
                self.load[d as usize] += 1;
                if self.load[d as usize] >= self.cap[d as usize] {
                    self.free &= !bit(d);
                }
                return true;
            }
        } else {
            for i in 0..self.assigned.len() {
                if self.assigned[i] != d {
                    continue;
                }
                for j in self.span(i) {
                    let r = self.reps[j];
                    if r != d
                        && level[r as usize] == lvl + 1
                        && self.descend(r, lvl + 1, last, level, dead)
                    {
                        self.assigned[i] = r;
                        return true;
                    }
                }
            }
        }
        *dead |= bit(d);
        false
    }

    /// Index range of request `i`'s replicas in `reps`.
    fn span(&self, i: usize) -> std::ops::Range<usize> {
        let start = if i == 0 { 0 } else { self.end[i - 1] };
        start as usize..self.end[i] as usize
    }

    fn recount_free(&mut self) {
        self.free = 0;
        for d in 0..self.devices() {
            if self.load[d] < self.cap[d] {
                self.free |= 1 << d;
            }
        }
    }

    /// Raise the access budget to `accesses` (no-op if not larger): every
    /// device with a non-zero capacity gets `accesses`. A zero-capacity
    /// device stays out, so a kernel built with budget 0 admits nothing
    /// until it is reset.
    pub fn grow_accesses(&mut self, accesses: usize) {
        if accesses <= self.accesses() {
            return;
        }
        let m = budget(accesses);
        for c in self.cap.iter_mut().filter(|c| **c != 0) {
            *c = m;
        }
        self.recount_free();
    }

    /// Remember the current schedule so that [`Self::rollback`] can return
    /// to it. One level deep: a second checkpoint replaces the first.
    pub fn checkpoint(&mut self) {
        self.saved.clear();
        self.saved.extend_from_slice(&self.assigned);
    }

    /// Undo every `try_add` since the last [`Self::checkpoint`]: requests
    /// admitted since are dropped and every earlier request returns to the
    /// device it was assigned to then. The capacities must not have been
    /// changed in between.
    pub fn rollback(&mut self) {
        let n = self.saved.len();
        self.assigned.truncate(n);
        self.assigned.copy_from_slice(&self.saved);
        self.end.truncate(n);
        self.reps
            .truncate(self.end.last().map_or(0, |&e| e as usize));
        self.load.fill(0);
        for &d in &self.assigned {
            self.load[d as usize] += 1;
        }
        self.recount_free();
    }

    /// Device of every admitted request, in admission order, as stored.
    pub fn assigned(&self) -> &[u8] {
        &self.assigned
    }

    /// Current device assignment of every admitted request, in admission
    /// order.
    pub fn assignments(&self) -> Vec<DeviceId> {
        self.assigned.iter().map(|&d| d as DeviceId).collect()
    }

    /// Per-device load of the current schedule.
    pub fn device_loads(&self) -> Vec<usize> {
        self.load[..self.devices()]
            .iter()
            .map(|&l| l as usize)
            .collect()
    }

    /// Heap bytes held by the kernel's buffers (capacity, not length).
    pub fn retained_bytes(&self) -> usize {
        self.assigned.capacity()
            + self.end.capacity() * 4
            + self.reps.capacity()
            + self.saved.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_up_to_capacity() {
        // 3 devices, 1 access: any 3 disjoint unit requests fit.
        let mut inc = IncrementalRetrieval::new(3, 1);
        assert!(inc.try_add(&[0]));
        assert!(inc.try_add(&[1]));
        assert!(inc.try_add(&[2]));
        assert!(!inc.try_add(&[0]));
        assert_eq!(inc.len(), 3);
    }

    #[test]
    fn rejection_leaves_schedule_intact() {
        let mut inc = IncrementalRetrieval::new(2, 1);
        assert!(inc.try_add(&[0, 1]));
        assert!(inc.try_add(&[0, 1]));
        assert!(!inc.try_add(&[0, 1]));
        let loads = inc.device_loads();
        assert_eq!(loads, vec![1, 1]);
    }

    #[test]
    fn augmenting_reroutes_earlier_requests() {
        // Request A can use {0,1}; request B only {0}. Greedy might put A on
        // 0; adding B must re-route A to 1 through the residual graph.
        let mut inc = IncrementalRetrieval::new(2, 1);
        assert!(inc.try_add(&[0, 1]));
        assert!(inc.try_add(&[0]));
        let assign = inc.assignments();
        assert_eq!(assign[1], 0);
        assert_eq!(assign[0], 1);
    }

    #[test]
    fn unequal_capacities_bound_each_device() {
        // Device 0 serves two, device 1 is out, device 2 serves one.
        let mut inc = IncrementalRetrieval::new(3, 2);
        inc.reset_caps(&[2, 0, 1]);
        assert!(!inc.try_add(&[1]), "a zero-capacity device serves nothing");
        assert!(inc.try_add(&[1, 2]));
        assert!(inc.try_add(&[2, 0]));
        assert!(inc.try_add(&[0]));
        assert!(!inc.try_add(&[0, 1, 2]));
        assert_eq!(inc.device_loads(), vec![2, 0, 1]);
        assert_eq!(inc.assignments(), vec![2, 0, 0]);
        inc.grow_accesses(3);
        assert_eq!(inc.caps(), [3, 0, 3]);
    }

    #[test]
    fn grow_accesses_unlocks_rejected_load() {
        let mut inc = IncrementalRetrieval::new(2, 1);
        assert!(inc.try_add(&[0]));
        assert!(inc.try_add(&[0, 1]));
        assert!(!inc.try_add(&[0]));
        inc.grow_accesses(2);
        assert!(inc.try_add(&[0]));
        assert_eq!(inc.len(), 3);
        let loads = inc.device_loads();
        assert_eq!(loads.iter().sum::<usize>(), 3);
        assert!(loads.iter().all(|&l| l <= 2));
    }
}
