//! The flash array: `N` devices behind a controller, plus trace replay.

use crate::device::{CalibratedSsd, Device};
use crate::request::{Completion, IoRequest};
use crate::stats::ResponseStats;
use crate::time::SimTime;

/// An array of `N` flash modules. The controller forwards each request to
/// its target device; replica selection happens *above* this layer (in the
/// declustering/QoS crates), matching the paper's architecture where the
/// retrieval algorithm decides the device and DiskSim executes the access.
#[derive(Debug, Clone)]
pub struct FlashArray<D: Device> {
    devices: Vec<D>,
    completions: u64,
}

impl FlashArray<CalibratedSsd> {
    /// An array of `n` paper-calibrated SSD modules (0.132507 ms / 8 KiB
    /// read) — the configuration every paper experiment uses.
    pub fn calibrated(n: usize) -> Self {
        FlashArray::new((0..n).map(|_| CalibratedSsd::new()).collect())
    }
}

impl<D: Device> FlashArray<D> {
    /// Build an array from pre-configured devices.
    pub fn new(devices: Vec<D>) -> Self {
        assert!(!devices.is_empty());
        FlashArray {
            devices,
            completions: 0,
        }
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Access a device model (for inspection).
    pub fn device(&self, idx: usize) -> &D {
        &self.devices[idx]
    }

    /// Submit a request to its target device at time `now`.
    pub fn submit(&mut self, req: &IoRequest, now: SimTime) -> Completion {
        assert!(req.device < self.devices.len(), "device index out of range");
        self.completions += 1;
        self.devices[req.device].submit(req, now)
    }

    /// Earliest time device `idx` can start a new request submitted at `now`
    /// — drives the online algorithm's earliest-finish-time replica choice.
    pub fn next_free(&self, idx: usize, now: SimTime) -> SimTime {
        self.devices[idx].next_free(now)
    }

    /// Index of the device among `candidates` with the earliest next-free
    /// time; idle devices win, ties break to the first (primary) candidate,
    /// matching the online retrieval preference of §IV-B.
    pub fn earliest_free_of(&self, candidates: &[usize], now: SimTime) -> usize {
        *candidates
            .iter()
            .min_by_key(|&&d| self.next_free(d, now))
            .expect("candidate list must be non-empty")
    }

    /// Total requests submitted so far.
    pub fn completions(&self) -> u64 {
        self.completions
    }

    /// Reset all devices to idle at time zero.
    pub fn reset(&mut self) {
        for d in &mut self.devices {
            d.reset();
        }
        self.completions = 0;
    }

    /// Replay a trace (requests sorted by arrival time, each already routed
    /// to a concrete device) and collect every completion.
    pub fn replay(&mut self, trace: impl IntoIterator<Item = IoRequest>) -> SimulationResult {
        let mut result = SimulationResult::default();
        let mut last_arrival = 0;
        for req in trace {
            debug_assert!(
                req.arrival >= last_arrival,
                "trace must be sorted by arrival"
            );
            last_arrival = req.arrival;
            let c = self.submit(&req, req.arrival);
            result.record(c);
        }
        result
    }
}

/// Aggregated outcome of a trace replay.
#[derive(Debug, Clone, Default)]
pub struct SimulationResult {
    /// Response-time statistics over all completed requests.
    pub stats: ResponseStats,
    /// All completions, in submission order.
    pub completions: Vec<Completion>,
}

impl SimulationResult {
    /// Record one completion.
    pub fn record(&mut self, c: Completion) {
        self.stats.record(c.response_time());
        self.completions.push(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::BLOCK_READ_NS;

    #[test]
    fn parallel_devices_do_not_interfere() {
        let mut arr = FlashArray::calibrated(3);
        let reqs: Vec<IoRequest> = (0..3)
            .map(|d| IoRequest::read_block(d as u64, 0, d, 0))
            .collect();
        for r in &reqs {
            let c = arr.submit(r, 0);
            assert_eq!(c.response_time(), BLOCK_READ_NS);
        }
    }

    #[test]
    fn same_device_serializes() {
        let mut arr = FlashArray::calibrated(3);
        let c1 = arr.submit(&IoRequest::read_block(1, 0, 1, 0), 0);
        let c2 = arr.submit(&IoRequest::read_block(2, 0, 1, 1), 0);
        assert_eq!(c1.response_time(), BLOCK_READ_NS);
        assert_eq!(c2.response_time(), 2 * BLOCK_READ_NS);
    }

    #[test]
    fn earliest_free_prefers_idle_then_primary() {
        let mut arr = FlashArray::calibrated(3);
        arr.submit(&IoRequest::read_block(1, 0, 0, 0), 0);
        // Device 0 busy; 1 and 2 idle → first idle candidate wins.
        assert_eq!(arr.earliest_free_of(&[0, 1, 2], 0), 1);
        // All idle → primary (first listed) wins.
        assert_eq!(arr.earliest_free_of(&[2, 1], BLOCK_READ_NS * 2), 2);
    }

    #[test]
    fn replay_counts_every_request() {
        let mut arr = FlashArray::calibrated(2);
        let trace: Vec<IoRequest> = (0..10)
            .map(|i| IoRequest::read_block(i, i * 1000, (i % 2) as usize, i))
            .collect();
        let result = arr.replay(trace);
        assert_eq!(result.stats.count(), 10);
        assert_eq!(result.completions.len(), 10);
        assert_eq!(arr.completions(), 10);
    }

    #[test]
    #[should_panic]
    fn out_of_range_device_panics() {
        let mut arr = FlashArray::calibrated(2);
        arr.submit(&IoRequest::read_block(1, 0, 5, 0), 0);
    }

    #[test]
    fn reset_restores_all_devices() {
        let mut arr = FlashArray::calibrated(2);
        arr.submit(&IoRequest::read_block(1, 0, 0, 0), 0);
        arr.reset();
        assert_eq!(arr.next_free(0, 0), 0);
        assert_eq!(arr.completions(), 0);
    }
}
