//! The two QoS schedulers: online (§IV-B) and interval-aligned
//! design-theoretic (§III-C).
//!
//! Both walk the trace through `BlockMapping::drive`, whose helper thread
//! owns the block mapping and ships each interval's buckets, one per
//! record, while it mines the interval for the next one. The schedulers
//! read those buckets and never touch the mapping. §V-D makes that exact:
//! an interval's buckets come from the *trace* before it, never from what
//! the scheduler admitted, delayed or served.

pub mod interval;
pub mod online;

pub use interval::IntervalQos;
pub use online::OnlineQos;

use fqos_flashsim::SimTime;
use std::collections::VecDeque;

/// Per-window device start budgets: device `d` may *start* at most `M`
/// accesses within one QoS window `T`. Enforcing this is exactly what makes
/// the deterministic guarantee hold — a device that starts ≤ M reads of
/// `t_read ≤ T/M` each is always idle again by the next window.
///
/// The open windows are a dense ring: row `i` is window `base + i`, from
/// the oldest window not yet closed to the furthest one a delayed start
/// reached. A row nothing was admitted into reads like no row at all.
#[derive(Debug, Clone)]
pub(crate) struct WindowBudgets {
    devices: usize,
    accesses: usize,
    /// Window of row 0. Only `close_before` moves it, and only forward: a
    /// start recorded into a later window first does not hide this one.
    base: u64,
    /// Per-device starts, `devices` entries per row.
    starts: VecDeque<u8>,
    /// Requests admitted per row.
    admitted: VecDeque<usize>,
}

impl WindowBudgets {
    pub(crate) fn new(devices: usize, accesses: usize) -> Self {
        assert!((1..256).contains(&accesses));
        WindowBudgets {
            devices,
            accesses,
            base: 0,
            starts: VecDeque::new(),
            admitted: VecDeque::new(),
        }
    }

    /// How many rows `window` is past `base`; `None` for a closed window.
    fn offset(&self, window: u64) -> Option<usize> {
        usize::try_from(window.checked_sub(self.base)?).ok()
    }

    /// The row of `window`, if the ring reaches it.
    fn row(&self, window: u64) -> Option<usize> {
        self.offset(window).filter(|&row| row < self.admitted.len())
    }

    /// The row of `window`, the ring grown to reach it.
    fn row_mut(&mut self, window: u64) -> usize {
        let row = self
            .offset(window)
            .expect("a start is never recorded into a closed window");
        if row >= self.admitted.len() {
            self.admitted.resize(row + 1, 0);
            self.starts.resize((row + 1) * self.devices, 0);
        }
        row
    }

    /// Remaining start budget of `device` in `window`.
    pub(crate) fn remaining(&self, window: u64, device: usize) -> usize {
        match self.row(window) {
            Some(row) => self.accesses - self.starts[row * self.devices + device] as usize,
            None => self.accesses,
        }
    }

    /// Record a start of `device` in `window`.
    pub(crate) fn record_start(&mut self, window: u64, device: usize) {
        let row = self.row_mut(window);
        let starts = &mut self.starts[row * self.devices + device];
        debug_assert!((*starts as usize) < self.accesses);
        *starts += 1;
        self.admitted[row] += 1;
    }

    /// Record a statistical over-admission into `window`: counts toward the
    /// window's request size (and therefore the `N_k` history feedback)
    /// without consuming a device start budget.
    pub(crate) fn record_overload(&mut self, window: u64) {
        let row = self.row_mut(window);
        self.admitted[row] += 1;
    }

    /// Number of requests admitted into `window` so far.
    pub(crate) fn admitted(&self, window: u64) -> usize {
        self.row(window).map_or(0, |row| self.admitted[row])
    }

    /// Drop state for windows `< keep_from`, handing `closed` the request count
    /// of each closed non-empty window in order (for the statistical counters).
    pub(crate) fn close_before(&mut self, keep_from: u64, mut closed: impl FnMut(usize)) {
        while self.base < keep_from {
            let Some(n) = self.admitted.pop_front() else {
                // Nothing open: an idle gap of any length closes at once.
                self.base = keep_from;
                break;
            };
            self.starts.drain(..self.devices);
            self.base += 1;
            if n > 0 {
                closed(n);
            }
        }
    }
}

/// The QoS window of a point in time.
#[inline]
pub(crate) fn window_of(t: SimTime, interval_ns: u64) -> u64 {
    t / interval_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    impl WindowBudgets {
        fn closed_before(&mut self, keep_from: u64) -> Vec<usize> {
            let mut closed = Vec::new();
            self.close_before(keep_from, |n| closed.push(n));
            closed
        }
    }

    #[test]
    fn budget_tracking() {
        let mut b = WindowBudgets::new(3, 2);
        assert_eq!(b.remaining(5, 0), 2);
        b.record_start(5, 0);
        b.record_start(5, 0);
        assert_eq!(b.remaining(5, 0), 0);
        assert_eq!(b.remaining(5, 1), 2);
        assert_eq!(b.remaining(6, 0), 2);
        assert_eq!(b.admitted(5), 2);
    }

    #[test]
    fn closing_returns_sizes_in_order() {
        let mut b = WindowBudgets::new(2, 1);
        b.record_start(1, 0);
        b.record_start(3, 1);
        b.record_start(3, 0);
        assert_eq!(b.closed_before(3), vec![1]);
        assert_eq!(b.closed_before(10), vec![2]);
        assert!(b.closed_before(10).is_empty());
    }

    #[test]
    fn an_idle_gap_closes_at_once_and_reports_no_empty_window() {
        let mut b = WindowBudgets::new(2, 1);
        b.record_start(7, 1);
        // Windows 0..7 were never touched; a billion more follow.
        assert_eq!(b.closed_before(1_000_000_007), vec![1]);
        assert!(b.admitted.is_empty() && b.starts.is_empty());
        assert_eq!(b.base, 1_000_000_007);
        assert_eq!(b.remaining(1_000_000_007, 1), 1);
        assert!(b.closed_before(u64::MAX).is_empty());
    }

    #[test]
    fn a_delayed_start_in_the_next_window_does_not_hide_this_one() {
        let mut b = WindowBudgets::new(2, 1);
        assert!(b.closed_before(40).is_empty());
        // A delayed request lands in window 41 while the ring is empty;
        // window 40 itself is still open.
        b.record_start(41, 0);
        b.record_start(40, 0);
        assert_eq!((b.remaining(40, 0), b.remaining(41, 0)), (0, 0));
        assert_eq!((b.admitted(40), b.admitted(41)), (1, 1));
        assert_eq!(b.closed_before(42), vec![1, 1]);
    }
}
