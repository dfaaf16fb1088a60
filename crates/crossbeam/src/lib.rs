//! Offline stand-in for the `crossbeam` crate (0.8 API subset): what
//! `fqos-server` calls.
//!
//! Provides [`channel::bounded`] multi-producer channels with crossbeam's
//! disconnect semantics: cloning a `Sender` tracks the endpoint count,
//! dropping the last `Sender` wakes a blocked receiver with
//! [`channel::RecvError`], and dropping the `Receiver` fails sends. Built
//! on a `Mutex<VecDeque>` plus two condvars — correct and fair enough for
//! queue depths in the hundreds. The queue is not lock-free; the blocking
//! strategy is what real crossbeam's is, back off and only then park: a
//! receiver that finds the queue empty lingers for about one park/unpark
//! cycle, yielding and polling a lock-free length mirror, before it waits
//! on the condvar. Under steady load the receiver never parks, so no send
//! pays for waking it and the hand-off has one speed.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    /// How long an idle receiver polls before it parks: about what one
    /// park/unpark cycle costs on the hosts this runs on (≈ 10 µs of
    /// `futex_wake` on the waker plus the 20–50 µs a halted vCPU takes to
    /// run again). Lingering for as long as a park costs is at most twice
    /// the best offline choice (ski rental), and throughput measured flat
    /// from there up to 1 ms (DESIGN.md, "The hand-off has one speed"): a
    /// constant, not a knob.
    const LINGER: Duration = Duration::from_micros(50);

    /// The layout is budgeted — see `shared_block_keeps_its_malloc_size_class`
    /// before adding or widening a field.
    pub(super) struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        capacity: usize,
        not_empty: Condvar,
        not_full: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
        /// Mirror of `queue.len()` (saturating), written under the mutex,
        /// read without it by a lingering receiver. A hint only (hence
        /// `Relaxed`): the receiver re-checks the queue under the mutex.
        len: AtomicU32,
        /// Set by the receiver, under the mutex, as the last thing before
        /// it waits on `not_empty`, and cleared when it wakes. Nothing in
        /// the channel reads it: it is how a test reaches the parked state
        /// without a clock ([`Sender::receiver_is_parked`]). Fits the
        /// padding behind `len`.
        parked: AtomicBool,
    }

    /// Sending half; clonable for multi-producer use.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Send failed: all receivers dropped. Returns the unsent value.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Receive failed: channel empty and all senders dropped.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty, disconnected channel")
        }
    }

    /// Channel buffering at most `cap` messages; sends block when full.
    /// `cap = 0` is rounded up to 1 (true rendezvous is not needed here).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            capacity: cap.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
            len: AtomicU32::new(0),
            parked: AtomicBool::new(false),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Shared<T> {
        fn no_receivers(&self) -> bool {
            self.receivers.load(Ordering::Acquire) == 0
        }

        fn no_senders(&self) -> bool {
            self.senders.load(Ordering::Acquire) == 0
        }

        fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
            self.queue.lock().unwrap_or_else(PoisonError::into_inner)
        }

        fn mirror_len(&self, q: &VecDeque<T>) {
            let len = u32::try_from(q.len()).unwrap_or(u32::MAX);
            self.len.store(len, Ordering::Relaxed);
        }

        /// Poll, without the mutex and without allocating, until a message
        /// is queued, the last sender is gone or `LINGER` has passed.
        /// Yields rather than spins: with more runnable threads than cores
        /// a spinning receiver holds the core its sender needs.
        fn linger(&self) {
            let start = Instant::now();
            while self.len.load(Ordering::Relaxed) == 0
                && !self.no_senders()
                && start.elapsed() < LINGER
            {
                std::thread::yield_now();
            }
        }
    }

    impl<T> Sender<T> {
        /// Block until the value is enqueued, or fail if all receivers are
        /// gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let shared = &*self.shared;
            let mut q = shared.lock();
            loop {
                if shared.no_receivers() {
                    return Err(SendError(value));
                }
                if q.len() < shared.capacity {
                    break;
                }
                q = shared
                    .not_full
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            q.push_back(value);
            shared.mirror_len(&q);
            drop(q);
            shared.not_empty.notify_one();
            Ok(())
        }

        /// True from the moment the receiver, out of messages and done
        /// lingering, commits to waiting on its condvar until it wakes. It
        /// commits under the queue's mutex and lets go of that only by
        /// waiting, so a `send` that follows a `true` finds the receiver
        /// parked and has to wake it. For tests of the blocking strategy.
        pub fn receiver_is_parked(&self) -> bool {
            self.shared.parked.load(Ordering::Relaxed)
        }
    }

    impl<T> Receiver<T> {
        /// Block until a value arrives, or fail once the channel is empty
        /// with all senders gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let shared = &*self.shared;
            let mut q = shared.lock();
            loop {
                if let Some(v) = q.pop_front() {
                    shared.mirror_len(&q);
                    drop(q);
                    shared.not_full.notify_one();
                    return Ok(v);
                }
                if shared.no_senders() {
                    return Err(RecvError);
                }
                drop(q);
                shared.linger();
                q = shared.lock();
                if q.is_empty() && !shared.no_senders() {
                    shared.parked.store(true, Ordering::Relaxed);
                    q = shared
                        .not_empty
                        .wait(q)
                        .unwrap_or_else(PoisonError::into_inner);
                    shared.parked.store(false, Ordering::Relaxed);
                }
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender: wake receivers so they observe disconnect.
                let _unused = self.shared.queue.lock();
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if self.shared.receivers.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last receiver: wake senders blocked on a full queue.
                let _unused = self.shared.queue.lock();
                self.shared.not_full.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{self, RecvError, Shared};
    use std::sync::{mpsc, Arc, Barrier};
    use std::thread;
    use std::time::Duration;

    /// A lost wake-up must fail the test, not hang it.
    const PROMPT: Duration = Duration::from_secs(10);

    /// `recv` on its own thread, its result handed back over a std channel.
    /// Detached on purpose: joining a receiver whose wake-up was lost would
    /// hang the test that `PROMPT` is there to fail.
    fn recv_in_background<T: Send + 'static>(
        rx: channel::Receiver<T>,
    ) -> mpsc::Receiver<Result<T, RecvError>> {
        let (done_tx, done_rx) = mpsc::channel();
        thread::spawn(move || done_tx.send(rx.recv()));
        done_rx
    }

    #[test]
    fn fifo_within_capacity() {
        let (tx, rx) = channel::bounded(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        assert_eq!(
            (0..4).map(|_| rx.recv().unwrap()).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn blocking_send_resumes_after_recv() {
        let (tx, rx) = channel::bounded(1);
        tx.send(1).unwrap();
        let t = thread::spawn(move || tx.send(2).map(|_| true).unwrap_or(false));
        thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        assert!(t.join().unwrap());
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn a_parked_receiver_is_woken_by_the_next_send() {
        let (tx, rx) = channel::bounded(4);
        assert!(!tx.receiver_is_parked());
        let got = recv_in_background(rx);
        while !tx.receiver_is_parked() {
            thread::yield_now();
        }
        tx.send(7u32).unwrap();
        assert_eq!(got.recv_timeout(PROMPT), Ok(Ok(7)));
        assert!(!tx.receiver_is_parked(), "cleared on the way out");
    }

    #[test]
    fn drop_of_all_senders_disconnects() {
        let (tx, rx) = channel::bounded::<u32>(2);
        let tx2 = tx.clone();
        tx.send(7).unwrap();
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn drop_of_the_last_sender_ends_a_parked_recv() {
        let (tx, rx) = channel::bounded::<u32>(2);
        let got = recv_in_background(rx);
        while !tx.receiver_is_parked() {
            thread::yield_now();
        }
        drop(tx);
        assert_eq!(got.recv_timeout(PROMPT), Ok(Err(RecvError)));
    }

    #[test]
    fn drop_of_the_last_sender_ends_a_lingering_recv() {
        // The drop follows the barrier at once, so it lands while the
        // receiver is about to linger, lingering, or (rarely) just parked;
        // every one of those must see the disconnect.
        for _ in 0..200 {
            let (tx, rx) = channel::bounded::<u32>(2);
            let start = Arc::new(Barrier::new(2));
            let (done_tx, got) = mpsc::channel();
            let receiver = {
                let start = Arc::clone(&start);
                thread::spawn(move || {
                    start.wait();
                    done_tx.send(rx.recv())
                })
            };
            start.wait();
            drop(tx);
            assert_eq!(got.recv_timeout(PROMPT), Ok(Err(RecvError)));
            receiver.join().unwrap().unwrap();
        }
    }

    #[test]
    fn drop_of_all_receivers_fails_send() {
        let (tx, rx) = channel::bounded(2);
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn multiple_producers_deliver_every_message() {
        let (tx, rx) = channel::bounded(8);
        let n = 200;
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..n {
                        tx.send(p * n + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut all = Vec::new();
        while let Ok(v) = rx.recv() {
            all.push(v);
        }
        for p in producers {
            p.join().unwrap();
        }
        all.sort_unstable();
        assert_eq!(all, (0..2 * n).collect::<Vec<_>>());
    }

    /// Every path at once: senders parked on a full queue and woken by
    /// `recv`, a receiver that lingers, parks (it outlives the linger while
    /// the producers sleep off their own wake-ups) and is woken by `send`.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "2 × 10⁵ park/unpark cycles: run with --release"
    )]
    fn stress_two_producers_through_one_slot() {
        const N: u32 = 100_000;
        let (tx, rx) = channel::bounded(1);
        let producers: Vec<_> = (0..2usize)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..N {
                        tx.send((p, i)).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut next = [0u32; 2];
        let mut received = 0u32;
        while let Ok((p, i)) = rx.recv() {
            assert_eq!(i, next[p], "producer {p}: lost, repeated or reordered");
            next[p] += 1;
            received += 1;
            if received.is_multiple_of(997) {
                thread::sleep(Duration::from_micros(100));
            }
        }
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(next, [N, N]);
    }

    /// ROADMAP item 3a: the benchmark's `peak_rss_mb` follows the malloc
    /// size class of long-lived allocations, and `Arc<Shared<T>>` is one.
    /// 73..=88 bytes keep `ArcInner` (two more words) in the 112-byte chunk
    /// it has had since PR 14; 96 bytes took `hotspot_burst` from 19.3 to
    /// 25.4 MiB. Delete this test when item 3a lands (a memory metric that
    /// heap layout cannot move).
    #[test]
    fn shared_block_keeps_its_malloc_size_class() {
        let size = std::mem::size_of::<Shared<u64>>();
        assert!((73..=88).contains(&size), "Shared<u64> is {size} bytes");
    }
}
