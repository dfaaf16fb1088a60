//! The primitives `fqos-server` and `fqos-cluster` run on: a [`Mutex`]
//! and an [`RwLock`] whose guards come back directly (poisoning is
//! recovered, not propagated), the bounded [`channel`], `std`'s `atomic`,
//! `Arc` and `thread`, and [`LineGap`]. A thread that finds a mutex held or
//! a queue full or empty polls for up to `LINGER`, yielding, before it
//! parks: under steady load nobody parks and nobody pays for a wake-up
//! (DESIGN.md, "The hand-off has one speed").
//!
//! Every lock has a [`Class`], and debug and `model-check` builds check
//! each acquisition and each wait ([`blocking`]) against the hierarchy
//! the classes are ranked in. Release builds compile the check out.
//!
//! Under `model-check` the locks and channels are the same wrappers over
//! the `interleave` model checker's instrumented twins, and `atomic`,
//! `Arc` and `thread` are the twins themselves, with its `model_with`,
//! `Config` and `Report`, so the engine is schedule-explored unmodified:
//! the checked code and the shipped code are the same code. The one deliberate
//! exception is `fqos-server`'s `metrics.rs`, which stays on `std` atomics:
//! its counters are write-only leaves that never feed back into control
//! flow, so instrumenting them would multiply the schedule space without
//! adding any observable interleaving (DESIGN.md, "Concurrency
//! invariants"). The conservation-law terms in `ledger.rs` *are*
//! instrumented.

use std::ops::{Deref, DerefMut};
use std::panic::Location;

use order::{tag, Held, Tag};

#[cfg(not(feature = "model-check"))]
mod lock;
mod order;
#[cfg(not(feature = "model-check"))]
mod queue;

pub use order::{blocking, seen, Class};

#[cfg(not(feature = "model-check"))]
pub use std::sync::{atomic, Arc};
#[cfg(not(feature = "model-check"))]
pub use std::thread;

#[cfg(feature = "model-check")]
pub use interleave::sync::{atomic, Arc};
#[cfg(feature = "model-check")]
pub use interleave::{model_with, thread, Config, Report};

#[cfg(not(feature = "model-check"))]
mod backend {
    pub use crate::lock::{Mutex, RwLock};
    pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};
}

#[cfg(feature = "model-check")]
use interleave::sync as backend;

/// Mutual exclusion lock of one [`Class`]; `lock` never returns an error.
#[derive(Debug)]
pub struct Mutex<T: ?Sized> {
    class: Tag,
    inner: backend::Mutex<T>,
}

/// Reader–writer lock of one [`Class`]; `read`/`write` never return errors.
#[derive(Debug)]
pub struct RwLock<T: ?Sized> {
    class: Tag,
    inner: backend::RwLock<T>,
}

/// A guard of a [`Mutex`] or [`RwLock`]: dropping it releases the lock and
/// takes it off its thread's held set.
pub struct Guard<G> {
    inner: G,
    _held: Held,
}

/// Guard for [`Mutex`].
pub type MutexGuard<'a, T> = Guard<backend::MutexGuard<'a, T>>;
/// Shared-read guard for [`RwLock`].
pub type RwLockReadGuard<'a, T> = Guard<backend::RwLockReadGuard<'a, T>>;
/// Exclusive-write guard for [`RwLock`].
pub type RwLockWriteGuard<'a, T> = Guard<backend::RwLockWriteGuard<'a, T>>;

impl<T> Mutex<T> {
    /// Create a new mutex of class `class`.
    pub const fn new(class: Class, value: T) -> Self {
        Mutex {
            class: tag(class),
            inner: backend::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking; recovers from poisoning. Panics — in
    /// debug and `model-check` builds, before it waits — when this thread
    /// holds a lock the hierarchy puts below this one.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        Guard::take(self.class, true, || self.inner.lock())
    }
}

impl<T> RwLock<T> {
    /// Create a new reader–writer lock of class `class`.
    pub const fn new(class: Class, value: T) -> Self {
        RwLock {
            class: tag(class),
            inner: backend::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared read access; checked as [`Mutex::lock`] is.
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        Guard::take(self.class, false, || self.inner.read())
    }

    /// Acquire exclusive write access; checked as [`Mutex::lock`] is.
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        Guard::take(self.class, true, || self.inner.write())
    }
}

impl<G> Guard<G> {
    /// Check the request, then `acquire` — the caller's call site is the
    /// one the check names.
    #[track_caller]
    fn take(class: Tag, exclusive: bool, acquire: impl FnOnce() -> G) -> Self {
        let _held = Held::new(class, exclusive, Location::caller());
        Guard {
            inner: acquire(),
            _held,
        }
    }
}

impl<G: Deref> Deref for Guard<G> {
    type Target = G::Target;

    fn deref(&self) -> &G::Target {
        &self.inner
    }
}

impl<G: DerefMut> DerefMut for Guard<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.inner
    }
}

pub mod channel {
    //! Bounded multi-producer channels over the shipped queue
    //! (`queue.rs`) or, under `model-check`, its `interleave` twin. Every
    //! `send` and `recv` is a [`crate::blocking`] operation, whether or
    //! not it ends up waiting: a guard that must not be held across a wait
    //! is caught on the run that would have waited, and on every other.

    #[cfg(feature = "model-check")]
    use interleave::channel as backend;

    #[cfg(not(feature = "model-check"))]
    use crate::queue as backend;

    pub use backend::{RecvError, SendError};

    /// Sending half; clonable for multi-producer use.
    pub struct Sender<T>(backend::Sender<T>);

    /// Receiving half.
    pub struct Receiver<T>(backend::Receiver<T>);

    /// Channel buffering at most `cap` messages; sends block when full.
    /// `cap = 0` is rounded up to 1.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = backend::bounded(cap);
        (Sender(tx), Receiver(rx))
    }

    impl<T> Sender<T> {
        /// Block until the value is enqueued, or fail if all receivers are
        /// gone.
        #[track_caller]
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            crate::blocking("send");
            self.0.send(value)
        }

        /// True while the receiver waits on its condvar: for tests of the
        /// blocking strategy (the shipped queue's `receiver_is_parked`).
        #[cfg(not(feature = "model-check"))]
        pub fn receiver_is_parked(&self) -> bool {
            self.0.receiver_is_parked()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Receiver<T> {
        /// Block until a value arrives, or fail once the channel is empty
        /// with all senders gone.
        #[track_caller]
        pub fn recv(&self) -> Result<T, RecvError> {
            crate::blocking("recv");
            self.0.recv()
        }

        /// [`Receiver::recv`], running `idle` at most once, without the queue's
        /// lock, when the receiver is about to park (the queue's `recv_idle`).
        #[track_caller]
        pub fn recv_idle(&self, idle: impl FnOnce()) -> Result<T, RecvError> {
            crate::blocking("recv_idle");
            self.0.recv_idle(idle)
        }

        /// The front message if there is one; never waits, so never [`crate::blocking`].
        pub fn try_recv(&self) -> Option<T> {
            self.0.try_recv()
        }
    }

    #[cfg(all(test, feature = "model-check"))]
    mod tests {
        use std::sync::atomic::{AtomicU64, Ordering};

        /// A send blocked on a full queue beside two `try_recv`s: the first
        /// always finds the message ahead of it, and the second finds the
        /// blocked one on the schedules where the pop let the sender run in
        /// between and misses it on the others, where `recv` then waits
        /// for it. Both kinds are explored.
        #[test]
        fn try_recv_beside_a_blocking_send_is_explored_both_ways() {
            static HITS: AtomicU64 = AtomicU64::new(0);
            let report = crate::model_with(crate::Config::default(), || {
                let (tx, rx) = super::bounded(1);
                tx.send(1u32).unwrap();
                let sender = crate::thread::spawn(move || tx.send(2).unwrap());
                assert_eq!(rx.try_recv(), Some(1));
                match rx.try_recv() {
                    Some(v) => {
                        assert_eq!(v, 2);
                        HITS.fetch_add(1, Ordering::Relaxed);
                    }
                    None => assert_eq!(rx.recv(), Ok(2)),
                }
                sender.join().unwrap();
            });
            assert!(report.exhausted);
            let hits = HITS.load(Ordering::Relaxed);
            assert!(
                0 < hits && hits < report.schedules,
                "the blocked send was found on {hits} of {} schedules",
                report.schedules
            );
        }
    }
}

/// Dead space between two groups of fields that different threads write.
/// Every field on the request path is made of 8-byte-aligned words, so
/// seven words between the last word of one group and the first of the
/// next put them 64 bytes apart: on different cache lines wherever the
/// allocator places the struct. By distance, not `repr(align)` — an
/// over-aligned type inside an `Arc` goes through `memalign` and moves the
/// heap (DESIGN.md, "One writer per line").
pub type LineGap = [u64; 7];

/// How long a blocked thread polls before it parks: about what one
/// park/unpark cycle costs on the hosts this runs on (≈ 10 µs of
/// `futex_wake` on the waker plus the 20–50 µs a halted vCPU takes to run
/// again). Lingering for as long as a park costs is at most twice the
/// best offline choice (ski rental), and throughput measured flat from
/// there up to 1 ms (DESIGN.md, "The hand-off has one speed"): a constant,
/// not a knob.
#[cfg(not(feature = "model-check"))]
const LINGER: std::time::Duration = std::time::Duration::from_micros(50);

/// Poll `ready` until it says yes (true) or `LINGER` has passed (false).
/// Yields rather than spins: with more runnable threads than cores a
/// spinning thread holds the core the one it waits for needs. The three
/// callers — a contended `Mutex::lock`, a `send` on a full queue, a `recv`
/// on an empty one — park when it gives up.
#[cfg(not(feature = "model-check"))]
fn linger(mut ready: impl FnMut() -> bool) -> bool {
    let start = std::time::Instant::now();
    loop {
        if ready() {
            return true;
        }
        if start.elapsed() >= LINGER {
            return false;
        }
        std::thread::yield_now();
    }
}
