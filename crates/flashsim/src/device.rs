//! Device models: how long does a request take on one flash module?

use crate::ftl::{FtlGeometry, GeometryError, PageMappedFtl, WriteOutcome};
use crate::request::{Completion, IoOp, IoRequest};
use crate::time::{Duration, SimTime, BLOCK_READ_NS};

/// A storage device that services submitted requests and reports their
/// completion times. Devices own their queueing discipline; the default
/// calibrated model is FCFS, matching DiskSim's per-device queue.
pub trait Device {
    /// Submit a request at simulated time `now` (must be `>= req.arrival`
    /// and non-decreasing across calls). Returns the completion record.
    fn submit(&mut self, req: &IoRequest, now: SimTime) -> Completion;

    /// The earliest time at which a request submitted at `now` would *start*
    /// service (i.e. when the device becomes free). Used by the online
    /// retrieval algorithm's earliest-finish-time replica selection.
    fn next_free(&self, now: SimTime) -> SimTime;

    /// Reset all internal state to time zero.
    fn reset(&mut self);
}

/// The calibrated flash module of the paper's evaluation: a fixed service
/// time per 8 KiB block (0.132507 ms for reads, per the MSR DiskSim SSD
/// extension parameters) behind an FCFS queue.
///
/// # Fail-slow degradation
///
/// A real module can stay *live* but serve far slower than calibrated (GC
/// stall, thermal throttle, wear-leveling pause). That mode is modeled by a
/// service-time multiplier ([`CalibratedSsd::set_degradation`]): a factor
/// of 10 makes every request take 10× the calibrated latency until the
/// factor is reset to 1. Queueing discipline is unchanged — the device is
/// slow, not failed.
#[derive(Debug, Clone)]
pub struct CalibratedSsd {
    read_ns_per_block: Duration,
    write_ns_per_block: Duration,
    busy_until: SimTime,
    /// Fail-slow service-time multiplier; 1 = calibrated speed.
    degrade: u32,
    /// Block erase latency charged per GC erase (only used with `ftl`).
    erase_ns: Duration,
    /// Optional write/GC model: when present, programs run through the
    /// page-mapped FTL and GC work (relocation reads + programs + erases)
    /// stalls the device in-line with the host write.
    ftl: Option<PageMappedFtl>,
    gc: GcStats,
}

/// Cumulative garbage-collection counters of one device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Host page programs.
    pub host_pages: u64,
    /// GC relocation page programs (`gc_writes`).
    pub gc_pages: u64,
    /// Pages read back during relocation.
    pub relocated: u64,
    /// Erase operations.
    pub erases: u64,
    /// Writes refused by the FTL (working set above usable capacity);
    /// charged at plain program cost without GC.
    pub full_errors: u64,
}

impl GcStats {
    /// Write amplification so far: `(host + GC pages) / host pages`
    /// (1.0 before any host write).
    pub fn write_amplification(&self) -> f64 {
        if self.host_pages == 0 {
            1.0
        } else {
            (self.host_pages + self.gc_pages) as f64 / self.host_pages as f64
        }
    }
}

impl CalibratedSsd {
    /// The model used by every paper experiment: 0.132507 ms per 8 KiB read.
    /// Writes are given the same cost (the paper's traces are read-only);
    /// use [`CalibratedSsd::with_latencies`] to differentiate.
    pub fn new() -> Self {
        Self::with_latencies(BLOCK_READ_NS, BLOCK_READ_NS)
    }

    /// Custom per-block read/write latencies.
    pub fn with_latencies(read_ns: Duration, write_ns: Duration) -> Self {
        CalibratedSsd {
            read_ns_per_block: read_ns,
            write_ns_per_block: write_ns,
            busy_until: 0,
            degrade: 1,
            erase_ns: 0,
            ftl: None,
            gc: GcStats::default(),
        }
    }

    /// Attach a write/GC model: programs run through a page-mapped FTL
    /// (one logical page per 8 KiB block) and GC work stalls the device.
    /// Relocation reads cost the read latency, relocation programs the
    /// write latency, and each erase costs `erase_ns`.
    pub fn with_gc(
        mut self,
        geometry: FtlGeometry,
        erase_ns: Duration,
    ) -> Result<Self, GeometryError> {
        self.ftl = Some(PageMappedFtl::try_new(geometry)?);
        self.erase_ns = erase_ns;
        Ok(self)
    }

    /// Set the fail-slow latency multiplier (clamped to at least 1;
    /// 1 restores calibrated speed). Applies to requests submitted from
    /// now on; an already-queued backlog keeps its old finish times.
    pub fn set_degradation(&mut self, factor: u32) {
        self.degrade = factor.max(1);
    }

    /// The current fail-slow latency multiplier (1 = healthy).
    pub fn degradation(&self) -> u32 {
        self.degrade
    }

    /// Cancel an in-flight request, releasing its reserved service time —
    /// only possible while it is still the last submission (nothing queued
    /// behind it). Returns `true` if the reservation was reclaimed.
    pub fn cancel(&mut self, completion: &Completion) -> bool {
        if self.busy_until == completion.finish {
            self.busy_until = completion.service_start;
            true
        } else {
            false
        }
    }

    /// Pure service time of a request on this device, including any
    /// fail-slow degradation in force — but **excluding** GC stalls, which
    /// depend on FTL state and are only known when the write is submitted.
    pub fn service_time(&self, req: &IoRequest) -> Duration {
        let per_block = match req.op {
            IoOp::Read => self.read_ns_per_block,
            IoOp::Write => self.write_ns_per_block,
        };
        per_block * req.num_blocks() as Duration * self.degrade as Duration
    }

    /// Run a write through the FTL and return the stall its GC work adds.
    ///
    /// The fail-slow `degrade` multiplier deliberately does **not** apply
    /// to this term: the multiplier models *external* slowness (thermal
    /// throttle, a live `slow:` injection) scaling the calibrated program
    /// cost, while the GC stall is itself a slowness source measured in
    /// real latency units. Multiplying both would double-count the stall
    /// whenever a `slow:` schedule composes with a GC storm.
    fn gc_stall(&mut self, req: &IoRequest) -> Duration {
        let Some(ftl) = self.ftl.as_mut() else {
            return 0;
        };
        let blocks = req.num_blocks() as u64;
        let mut gc = WriteOutcome::default();
        let mut full = 0u64;
        for i in 0..blocks {
            match ftl.write(req.lbn * blocks + i) {
                Ok((_, out)) => {
                    gc.pages_programmed += out.pages_programmed;
                    gc.pages_relocated += out.pages_relocated;
                    gc.erases += out.erases;
                }
                // Over-capacity working set: the program is charged but
                // no GC ran; counted, never panicked on.
                Err(_) => full += 1,
            }
        }
        let host = blocks - full;
        let gc_pages = gc.pages_programmed.saturating_sub(host);
        self.gc.host_pages += host;
        self.gc.gc_pages += gc_pages;
        self.gc.relocated += gc.pages_relocated;
        self.gc.erases += gc.erases;
        self.gc.full_errors += full;
        gc.pages_relocated * self.read_ns_per_block
            + gc_pages * self.write_ns_per_block
            + gc.erases * self.erase_ns
    }

    /// Cumulative GC counters (all zero without an attached FTL).
    pub fn gc_stats(&self) -> GcStats {
        self.gc
    }
}

impl Default for CalibratedSsd {
    fn default() -> Self {
        Self::new()
    }
}

impl Device for CalibratedSsd {
    fn submit(&mut self, req: &IoRequest, now: SimTime) -> Completion {
        debug_assert!(now >= req.arrival);
        let gc_ns = match req.op {
            IoOp::Read => 0,
            IoOp::Write => self.gc_stall(req),
        };
        let service_start = self.busy_until.max(now);
        // One busy-frontier reservation covers calibrated service and GC
        // stall together: the device is occupied once, not charged twice.
        let finish = service_start + self.service_time(req) + gc_ns;
        self.busy_until = finish;
        Completion {
            request: *req,
            service_start,
            finish,
        }
    }

    fn next_free(&self, now: SimTime) -> SimTime {
        self.busy_until.max(now)
    }

    fn reset(&mut self) {
        self.busy_until = 0;
        self.gc = GcStats::default();
        if let Some(ftl) = self.ftl.as_mut() {
            *ftl = PageMappedFtl::new(*ftl.geometry());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_device_serves_immediately() {
        let mut d = CalibratedSsd::new();
        let r = IoRequest::read_block(1, 1000, 0, 0);
        let c = d.submit(&r, 1000);
        assert_eq!(c.service_start, 1000);
        assert_eq!(c.response_time(), BLOCK_READ_NS);
    }

    #[test]
    fn fcfs_queueing_accumulates() {
        let mut d = CalibratedSsd::new();
        let r1 = IoRequest::read_block(1, 0, 0, 0);
        let r2 = IoRequest::read_block(2, 0, 0, 1);
        let c1 = d.submit(&r1, 0);
        let c2 = d.submit(&r2, 0);
        assert_eq!(c1.response_time(), BLOCK_READ_NS);
        assert_eq!(c2.queue_delay(), BLOCK_READ_NS);
        assert_eq!(c2.response_time(), 2 * BLOCK_READ_NS);
    }

    #[test]
    fn idle_gap_does_not_carry_over() {
        let mut d = CalibratedSsd::new();
        let r1 = IoRequest::read_block(1, 0, 0, 0);
        d.submit(&r1, 0);
        // Arrives long after the device went idle.
        let late = 10 * BLOCK_READ_NS;
        let r2 = IoRequest::read_block(2, late, 0, 1);
        let c2 = d.submit(&r2, late);
        assert_eq!(c2.queue_delay(), 0);
    }

    #[test]
    fn next_free_tracks_backlog() {
        let mut d = CalibratedSsd::new();
        assert_eq!(d.next_free(5), 5);
        let r = IoRequest::read_block(1, 0, 0, 0);
        d.submit(&r, 0);
        assert_eq!(d.next_free(0), BLOCK_READ_NS);
    }

    #[test]
    fn multi_block_scales_service() {
        let mut d = CalibratedSsd::new();
        let mut r = IoRequest::read_block(1, 0, 0, 0);
        r.size_bytes = 4 * crate::time::BLOCK_SIZE_BYTES;
        let c = d.submit(&r, 0);
        assert_eq!(c.service_time(), 4 * BLOCK_READ_NS);
    }

    #[test]
    fn reset_clears_backlog() {
        let mut d = CalibratedSsd::new();
        d.submit(&IoRequest::read_block(1, 0, 0, 0), 0);
        d.reset();
        assert_eq!(d.next_free(0), 0);
    }

    #[test]
    fn degradation_multiplies_service_time() {
        let mut d = CalibratedSsd::new();
        d.set_degradation(10);
        assert_eq!(d.degradation(), 10);
        let c = d.submit(&IoRequest::read_block(1, 0, 0, 0), 0);
        assert_eq!(c.service_time(), 10 * BLOCK_READ_NS);
        // Restoring to calibrated speed affects subsequent requests only.
        d.set_degradation(1);
        let c2 = d.submit(&IoRequest::read_block(2, 0, 0, 1), 0);
        assert_eq!(c2.service_time(), BLOCK_READ_NS);
        assert_eq!(c2.finish, 11 * BLOCK_READ_NS);
    }

    #[test]
    fn degradation_factor_zero_clamps_to_calibrated() {
        let mut d = CalibratedSsd::new();
        d.set_degradation(0);
        assert_eq!(d.degradation(), 1);
    }

    #[test]
    fn cancel_reclaims_only_the_last_submission() {
        let mut d = CalibratedSsd::new();
        let c1 = d.submit(&IoRequest::read_block(1, 0, 0, 0), 0);
        let c2 = d.submit(&IoRequest::read_block(2, 0, 0, 1), 0);
        // c1 is no longer last: its slot cannot be reclaimed.
        assert!(!d.cancel(&c1));
        assert_eq!(d.next_free(0), c2.finish);
        // c2 is last: cancelling frees the device back to c2's start.
        assert!(d.cancel(&c2));
        assert_eq!(d.next_free(0), c2.service_start);
    }

    fn gc_device() -> CalibratedSsd {
        // Tiny geometry with low over-provisioning: overwrites trigger GC
        // after a handful of programs.
        CalibratedSsd::with_latencies(100, 300)
            .with_gc(
                crate::ftl::FtlGeometry {
                    dies: 1,
                    blocks_per_die: 8,
                    pages_per_block: 4,
                    overprovision: 0.25,
                },
                5_000,
            )
            .unwrap()
    }

    #[test]
    fn writes_without_ftl_cost_plain_program_time() {
        let mut d = CalibratedSsd::with_latencies(100, 300);
        let c = d.submit(&IoRequest::write_block(1, 0, 0, 7), 0);
        assert_eq!(c.service_time(), 300);
        assert_eq!(d.gc_stats(), GcStats::default());
    }

    #[test]
    fn gc_writes_stall_the_device_inline() {
        let mut d = gc_device();
        // Overwrite a small working set until GC must run.
        let mut saw_stall = false;
        let mut now = 0;
        let mut seed = 1u64;
        for i in 0..400u64 {
            // Pseudo-random overwrites over 18 of 32 physical pages: GC
            // victims usually hold valid pages to relocate.
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let before = d.gc_stats();
            let c = d.submit(&IoRequest::write_block(i, now, 0, (seed >> 33) % 18), now);
            let after = d.gc_stats();
            let base = d.service_time(&c.request);
            // The stall decomposes exactly into this write's relocation
            // reads, relocation programs and erases.
            let relocated = after.relocated - before.relocated;
            let gc_pages = after.gc_pages - before.gc_pages;
            let erases = after.erases - before.erases;
            assert_eq!(after.host_pages - before.host_pages, 1);
            assert_eq!(
                c.service_time() - base,
                relocated * 100 + gc_pages * 300 + erases * 5_000
            );
            saw_stall |= c.service_time() > base;
            now = c.finish;
        }
        assert!(saw_stall, "GC never stalled a write");
        let gc = d.gc_stats();
        assert!(gc.erases > 0 && gc.gc_pages > 0);
        assert!(gc.write_amplification() > 1.0);
    }

    #[test]
    fn reads_never_touch_the_ftl() {
        let mut d = gc_device();
        let c = d.submit(&IoRequest::read_block(1, 0, 0, 3), 0);
        assert_eq!(c.service_time(), 100);
        assert_eq!(d.gc_stats(), GcStats::default());
    }

    #[test]
    fn degradation_does_not_multiply_gc_stalls() {
        // Regression (de-risk): a live `slow:` schedule composed with a GC
        // storm must charge `degrade × program + gc`, not
        // `degrade × (program + gc)` — the GC stall is itself the slowness
        // and must not be double-counted.
        let mut healthy = gc_device();
        let mut degraded = gc_device();
        degraded.set_degradation(10);
        let mut now = 0;
        for i in 0..200u64 {
            let req = IoRequest::write_block(i, now, 0, i % 8);
            let ch = healthy.submit(&req, now);
            let cd = degraded.submit(&req, now);
            // Identical FTL state ⇒ identical GC work on both devices, write
            // by write.
            assert_eq!(healthy.gc_stats(), degraded.gc_stats());
            let base = 300 * req.num_blocks() as u64;
            let gc_ns = ch.service_time() - base;
            assert_eq!(
                cd.service_time(),
                10 * base + gc_ns,
                "GC stall must not be scaled by the degradation factor"
            );
            now = healthy.next_free(now);
        }
    }

    #[test]
    fn reset_clears_gc_state() {
        let mut d = gc_device();
        for i in 0..50u64 {
            d.submit(&IoRequest::write_block(i, 0, 0, i % 8), 0);
        }
        assert!(d.gc_stats().host_pages > 0);
        d.reset();
        assert_eq!(d.gc_stats(), GcStats::default());
        assert_eq!(d.next_free(0), 0);
    }
}
