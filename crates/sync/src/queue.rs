//! The bounded multi-producer channel behind [`crate::channel`] outside
//! `model-check`: cloning a `Sender` counts it in,
//! dropping the last `Sender` wakes a blocked receiver with [`RecvError`],
//! and dropping the `Receiver` fails sends. A `Mutex<VecDeque>` plus two
//! condvars, with the crate's blocking policy on both sides: a receiver
//! that finds the queue empty and a sender that finds it full linger,
//! polling a lock-free length mirror, before they wait on their condvar.
//! Whoever parks says so under the queue's mutex (`parked`,
//! `parked_senders`), and the other side issues a wake-up only when it
//! reads, under the same mutex, that somebody is parked. Under steady load
//! neither side parks, so no `send` or `recv` pays for a `futex_wake`. The
//! end of the linger is also the one moment a receiver knows that nothing
//! is on its way, so `recv_idle` hands it to the caller: the engine's
//! workers use it to log what they would otherwise leave for the next
//! window's seal.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::linger;

/// The layout is budgeted — see `shared_block_keeps_its_malloc_size_class`
/// before adding or widening a field.
struct Shared<T> {
    queue: Mutex<VecDeque<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
    senders: AtomicUsize,
    receivers: AtomicUsize,
    /// Mirror of `queue.len()` (saturating), written under the mutex,
    /// read without it by whoever lingers. A hint only (hence `Relaxed`):
    /// the lingerer re-checks the queue under the mutex.
    len: AtomicU32,
    /// Senders waiting on `not_full`: each counts itself in, under the
    /// mutex, as the last thing before it waits, and out when it wakes.
    /// `recv` reads it under the same mutex and skips the wake-up at zero.
    /// No wake-up can be lost: a sender that parks after that read took
    /// the mutex after the pop, found room and did not park. A count, not
    /// a flag — the first of two parked senders to wake must not clear
    /// what the second still needs. Fits the padding behind `len`.
    parked_senders: AtomicU16,
    /// The same for the one receiver and `not_empty`, read by `send` under
    /// the mutex (and by [`Sender::receiver_is_parked`] without).
    parked: AtomicBool,
}

type Guard<'a, T> = MutexGuard<'a, VecDeque<T>>;

#[cfg(test)]
thread_local! {
    /// Wake-ups `send` and `recv` issued from this thread.
    static WAKES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

fn wake_one(waiters: &Condvar) {
    #[cfg(test)]
    WAKES.with(|w| w.set(w.get() + 1));
    waiters.notify_one();
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

/// Channel buffering at most `cap` messages; sends block when full.
/// `cap = 0` is rounded up to 1; the ring is allocated here, not by `send`.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::with_capacity(cap.max(1))),
        capacity: cap.max(1),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
        len: AtomicU32::new(0),
        parked_senders: AtomicU16::new(0),
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

    fn lock(&self) -> Guard<'_, T> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn mirror_len(&self, q: &VecDeque<T>) {
        let len = u32::try_from(q.len()).unwrap_or(u32::MAX);
        self.len.store(len, Ordering::Relaxed);
    }

    /// The length mirror, read without the mutex.
    fn len_hint(&self) -> usize {
        self.len.load(Ordering::Relaxed) as usize
    }

    /// Pop the front and let go of the mutex, then wake a sender if one
    /// said, under it, that it parked. An empty queue hands `q` back.
    fn pop<'a>(&'a self, mut q: Guard<'a, T>) -> Result<T, Guard<'a, T>> {
        let Some(v) = q.pop_front() else {
            return Err(q);
        };
        self.mirror_len(&q);
        let sender_parked = self.parked_senders.load(Ordering::Relaxed) > 0;
        drop(q);
        if sender_parked {
            wake_one(&self.not_full);
        }
        Ok(v)
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
            drop(q);
            linger(|| shared.len_hint() < shared.capacity || shared.no_receivers());
            q = shared.lock();
            if q.len() >= shared.capacity && !shared.no_receivers() {
                shared.parked_senders.fetch_add(1, Ordering::Relaxed);
                q = shared
                    .not_full
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
                shared.parked_senders.fetch_sub(1, Ordering::Relaxed);
            }
        }
        q.push_back(value);
        shared.mirror_len(&q);
        let receiver_parked = shared.parked.load(Ordering::Relaxed);
        drop(q);
        if receiver_parked {
            wake_one(&shared.not_empty);
        }
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
    /// [`Sender::receiver_is_parked`] for the other half: true while some
    /// sender, the queue full and done lingering, waits on its condvar —
    /// the next `recv` has to wake it.
    #[cfg(test)]
    fn sender_is_parked(&self) -> bool {
        self.shared.parked_senders.load(Ordering::Relaxed) > 0
    }

    /// Block until a value arrives, or fail once the channel is empty
    /// with all senders gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.recv_idle(|| {})
    }

    /// [`Receiver::recv`], telling the caller when it is about to park:
    /// `idle` runs at most once, without the queue's mutex, after the
    /// linger ran out on a queue still empty with a sender still there,
    /// and before the wait on the condvar — the place to hand on what the
    /// receiver has been holding back while messages kept coming. Not
    /// called while they do, nor on a disconnect.
    pub fn recv_idle(&self, idle: impl FnOnce()) -> Result<T, RecvError> {
        let shared = &*self.shared;
        let mut idle = Some(idle);
        let mut q = shared.lock();
        loop {
            q = match shared.pop(q) {
                Ok(v) => return Ok(v),
                Err(q) => q,
            };
            if shared.no_senders() {
                return Err(RecvError);
            }
            drop(q);
            if !linger(|| shared.len_hint() != 0 || shared.no_senders()) {
                if let Some(idle) = idle.take() {
                    idle();
                }
            }
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

    /// The front message if there is one; never lingers or waits.
    pub fn try_recv(&self) -> Option<T> {
        self.shared.pop(self.shared.lock()).ok()
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

#[cfg(test)]
mod tests {
    use super::{Shared, WAKES};
    use crate::queue::{self as channel, RecvError, SendError};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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

    /// `send` on its own thread, detached for the same reason.
    fn send_in_background<T: Send + 'static>(
        tx: channel::Sender<T>,
        value: T,
    ) -> mpsc::Receiver<Result<(), SendError<T>>> {
        let (done_tx, done_rx) = mpsc::channel();
        thread::spawn(move || done_tx.send(tx.send(value)));
        done_rx
    }

    /// Wake-ups this thread's `send`s and `recv`s have issued so far.
    fn wakes() -> usize {
        WAKES.with(std::cell::Cell::get)
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
    fn the_idle_hook_runs_once_before_the_park_and_never_while_messages_come() {
        let (tx, rx) = channel::bounded(4);
        let idle = Arc::new(AtomicUsize::new(0));
        for i in 0..4u32 {
            tx.send(i).unwrap();
        }
        for i in 0..4 {
            let hook = || {
                idle.fetch_add(1, Ordering::Relaxed);
            };
            assert_eq!(rx.recv_idle(hook), Ok(i));
        }
        assert_eq!(idle.load(Ordering::Relaxed), 0, "never out of messages");
        // Out of messages: the hook has run by the time the receiver says
        // it is parked, and what it did is visible to the sender that reads
        // that (the flag is raised under the queue's mutex).
        let (done_tx, got) = mpsc::channel();
        let receiver = {
            let (idle, tx) = (Arc::clone(&idle), tx.clone());
            thread::spawn(move || {
                let hook = || {
                    assert!(!tx.receiver_is_parked(), "before the park, not after");
                    idle.fetch_add(1, Ordering::Relaxed);
                };
                done_tx.send(rx.recv_idle(hook))
            })
        };
        while !tx.receiver_is_parked() {
            thread::yield_now();
        }
        assert_eq!(idle.load(Ordering::Relaxed), 1);
        tx.send(7).unwrap();
        assert_eq!(got.recv_timeout(PROMPT), Ok(Ok(7)));
        receiver.join().unwrap().unwrap();
        assert_eq!(idle.load(Ordering::Relaxed), 1, "once per call");
    }

    #[test]
    fn the_idle_hook_never_runs_on_a_disconnect() {
        // The last sender goes while the receiver lingers: the linger ends
        // on it, and nobody is left to wait for. A hook that still finds a
        // sender is the linger running out first (the host preempted this
        // thread for longer than `LINGER`), not a miss; one that finds
        // none ran on the disconnect.
        let mut hooked = 0;
        for _ in 0..200 {
            let (tx, rx) = channel::bounded::<u32>(2);
            let receiving = Arc::new(AtomicBool::new(false));
            let (done_tx, got) = mpsc::channel();
            let receiver = {
                let receiving = Arc::clone(&receiving);
                thread::spawn(move || {
                    let mut disconnected = false;
                    receiving.store(true, Ordering::Release);
                    let result = rx.recv_idle(|| disconnected = rx.shared.no_senders());
                    done_tx.send((result, disconnected))
                })
            };
            while !receiving.load(Ordering::Acquire) {
                thread::yield_now();
            }
            drop(tx);
            let (result, disconnected) = got.recv_timeout(PROMPT).unwrap();
            assert_eq!(result, Err(RecvError));
            hooked += usize::from(disconnected);
            receiver.join().unwrap().unwrap();
        }
        assert_eq!(hooked, 0, "the hook ran on {hooked} of 200 disconnects");
    }

    #[test]
    fn a_parked_sender_is_woken_by_the_next_recv() {
        let (tx, rx) = channel::bounded(1);
        tx.send(1u32).unwrap();
        assert!(!rx.sender_is_parked());
        let sent = send_in_background(tx, 2);
        while !rx.sender_is_parked() {
            thread::yield_now();
        }
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(sent.recv_timeout(PROMPT), Ok(Ok(())));
        assert!(!rx.sender_is_parked(), "counted out on the way out");
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn try_recv_takes_in_fifo_order_with_recv_and_never_lingers() {
        let (tx, rx) = channel::bounded(4);
        for i in 0..4u32 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.try_recv(), Some(0));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Some(2));
        assert_eq!(rx.recv(), Ok(3));
        // A thousand misses in less time than 500 lingers: a miss that
        // lingered even once would take the whole budget on its own.
        let start = std::time::Instant::now();
        for _ in 0..1_000 {
            assert_eq!(rx.try_recv(), None);
        }
        assert!(
            start.elapsed() < crate::LINGER * 500,
            "{:?}",
            start.elapsed()
        );
    }

    #[test]
    fn a_parked_sender_is_woken_by_the_next_try_recv() {
        let (tx, rx) = channel::bounded(1);
        tx.send(1u32).unwrap();
        let sent = send_in_background(tx, 2);
        while !rx.sender_is_parked() {
            thread::yield_now();
        }
        let before = wakes();
        assert_eq!(rx.try_recv(), Some(1));
        assert_eq!(wakes(), before + 1, "one wake-up, for the parked sender");
        assert_eq!(sent.recv_timeout(PROMPT), Ok(Ok(())));
        assert_eq!(rx.try_recv(), Some(2));
        assert_eq!(wakes(), before + 1, "nobody parked the second time");
    }

    #[test]
    fn a_full_send_relieved_within_linger_never_parks() {
        // Every send but the first finds the one slot taken and is relieved
        // a yield later. A receiver the host preempts for longer than
        // `LINGER` lets the sender park honestly, so a round that saw a park
        // is run again; a sender that parks without lingering parks in
        // every round.
        const N: u32 = 2_000;
        let parked_in_round = || {
            let (tx, rx) = channel::bounded(1);
            let sender = thread::spawn(move || (0..N).for_each(|i| tx.send(i).unwrap()));
            let mut parked = false;
            for i in 0..N {
                assert_eq!(rx.recv(), Ok(i));
                parked |= rx.sender_is_parked();
                thread::yield_now();
            }
            sender.join().unwrap();
            parked
        };
        assert!((0..5).any(|_| !parked_in_round()), "parked in all 5 rounds");
    }

    #[test]
    fn no_wake_is_issued_when_nobody_is_parked() {
        let (tx, rx) = channel::bounded(4);
        let before = wakes();
        for round in 0..3u32 {
            for i in 0..4 {
                tx.send(round * 4 + i).unwrap();
            }
            for i in 0..4 {
                assert_eq!(rx.recv(), Ok(round * 4 + i));
            }
        }
        assert_eq!(wakes(), before, "24 operations, nobody to wake");
        // A parked receiver costs the next send one wake-up …
        let got = recv_in_background(rx);
        while !tx.receiver_is_parked() {
            thread::yield_now();
        }
        tx.send(99).unwrap();
        assert_eq!(wakes(), before + 1);
        assert_eq!(got.recv_timeout(PROMPT), Ok(Ok(99)));
        // … and a parked sender the next recv.
        let (tx, rx) = channel::bounded(1);
        tx.send(1u32).unwrap();
        let sent = send_in_background(tx, 2);
        while !rx.sender_is_parked() {
            thread::yield_now();
        }
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(wakes(), before + 2);
        assert_eq!(sent.recv_timeout(PROMPT), Ok(Ok(())));
    }

    #[test]
    fn drop_of_the_receiver_ends_a_parked_send() {
        let (tx, rx) = channel::bounded(1);
        tx.send(1u32).unwrap();
        let sent = send_in_background(tx, 2);
        while !rx.sender_is_parked() {
            thread::yield_now();
        }
        drop(rx);
        assert_eq!(sent.recv_timeout(PROMPT), Ok(Err(SendError(2))));
    }

    #[test]
    fn drop_of_the_receiver_ends_a_lingering_send() {
        // As for the receiver below: the drop lands while the sender is
        // about to linger, lingering or just parked.
        for _ in 0..200 {
            let (tx, rx) = channel::bounded(1);
            tx.send(1u32).unwrap();
            let start = Arc::new(Barrier::new(2));
            let (done_tx, sent) = mpsc::channel();
            let sender = {
                let start = Arc::clone(&start);
                thread::spawn(move || {
                    start.wait();
                    done_tx.send(tx.send(2))
                })
            };
            start.wait();
            drop(rx);
            assert_eq!(sent.recv_timeout(PROMPT), Ok(Err(SendError(2))));
            sender.join().unwrap().unwrap();
        }
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

    /// What the parked-sender *count* is for: with four senders on one slot
    /// several are parked at once, and the first to wake must leave the
    /// next `recv` a reason to wake the second. The receiver reports every
    /// 10 000 messages, so a sender left asleep fails the test after
    /// `PROMPT` instead of hanging it.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "10⁵ messages through one slot: run with --release"
    )]
    fn stress_four_producers_against_a_slow_receiver() {
        const SENDERS: usize = 4;
        const PER_SENDER: u32 = 25_000;
        let (tx, rx) = channel::bounded(1);
        let mut threads: Vec<_> = (0..SENDERS)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || (0..PER_SENDER).for_each(|i| tx.send((p, i)).unwrap()))
            })
            .collect();
        drop(tx);
        let (progress_tx, progress) = mpsc::channel();
        threads.push(thread::spawn(move || {
            let mut next = [0u32; SENDERS];
            let mut received = 0u32;
            while let Ok((p, i)) = rx.recv() {
                assert_eq!(i, next[p], "producer {p}: lost, repeated or reordered");
                next[p] += 1;
                received += 1;
                if received.is_multiple_of(64) {
                    thread::sleep(Duration::from_micros(200)); // outlast the linger
                }
                if received.is_multiple_of(10_000) {
                    progress_tx.send(received).unwrap();
                }
            }
            progress_tx.send(next.iter().sum()).unwrap();
        }));
        let total = SENDERS as u32 * PER_SENDER;
        for step in (1..=total / 10_000).map(|s| s * 10_000).chain([total]) {
            assert_eq!(progress.recv_timeout(PROMPT), Ok(step), "somebody hangs");
        }
        // Joined only now that nobody can be left asleep.
        threads.into_iter().for_each(|t| t.join().unwrap());
    }

    /// The same four senders on one slot, drained by a receiver that takes
    /// with `try_recv` and falls back to `recv` only on a miss: a sender
    /// parked behind the slot has to be woken by whichever of the two
    /// emptied it, or the progress reports stop.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "10⁵ messages through one slot: run with --release"
    )]
    fn stress_four_producers_against_a_try_recv_receiver() {
        const SENDERS: usize = 4;
        const PER_SENDER: u32 = 25_000;
        let (tx, rx) = channel::bounded(1);
        let mut threads: Vec<_> = (0..SENDERS)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || (0..PER_SENDER).for_each(|i| tx.send((p, i)).unwrap()))
            })
            .collect();
        drop(tx);
        let (progress_tx, progress) = mpsc::channel();
        threads.push(thread::spawn(move || {
            let mut next = [0u32; SENDERS];
            let mut received = 0u32;
            while let Some((p, i)) = rx.try_recv().or_else(|| rx.recv().ok()) {
                assert_eq!(i, next[p], "producer {p}: lost, repeated or reordered");
                next[p] += 1;
                received += 1;
                if received.is_multiple_of(64) {
                    thread::sleep(Duration::from_micros(200)); // outlast the linger
                }
                if received.is_multiple_of(10_000) {
                    progress_tx.send(received).unwrap();
                }
            }
            progress_tx.send(next.iter().sum()).unwrap();
        }));
        let total = SENDERS as u32 * PER_SENDER;
        for step in (1..=total / 10_000).map(|s| s * 10_000).chain([total]) {
            assert_eq!(progress.recv_timeout(PROMPT), Ok(step), "somebody hangs");
        }
        threads.into_iter().for_each(|t| t.join().unwrap());
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
