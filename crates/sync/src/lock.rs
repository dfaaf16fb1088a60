//! `Mutex` and `RwLock` over `std::sync`. A contended `Mutex::lock`
//! lingers before it parks: a holder is expected to be gone within
//! microseconds, a parked waiter takes tens of them to run again — and the
//! holder pays the wake-up (DESIGN.md, "Group commit on both sides").

use std::sync::{self, PoisonError};

use crate::linger;

pub use std::sync::MutexGuard;

/// Mutual exclusion lock; `lock` never returns an error.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

#[cfg(test)]
thread_local! {
    /// Contended `lock`s on this thread that outlasted the linger and went
    /// on to the blocking `lock()`.
    static PARKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking; recovers from poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.try_lock().unwrap_or_else(|| self.lock_contended())
    }

    /// The guard if the lock is free, poisoned or not.
    fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(guard),
            Err(sync::TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    #[cold]
    fn lock_contended(&self) -> MutexGuard<'_, T> {
        let mut guard = None;
        linger(|| {
            guard = self.try_lock();
            guard.is_some()
        });
        guard.unwrap_or_else(|| {
            #[cfg(test)]
            PARKS.with(|p| p.set(p.get() + 1));
            self.inner.lock().unwrap_or_else(PoisonError::into_inner)
        })
    }
}

/// Reader–writer lock; `read`/`write` never return errors.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Create a new reader–writer lock.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared read access.
    pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire exclusive write access.
    pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LINGER;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc, Barrier};
    use std::thread;
    use std::time::Duration;

    /// A lost wake-up must fail the test, not hang it.
    const PROMPT: Duration = Duration::from_secs(10);

    /// Contended locks this thread has taken by parking so far.
    fn parks() -> usize {
        PARKS.with(std::cell::Cell::get)
    }

    #[test]
    fn mutex_basic_and_poison_recovery() {
        let m = Arc::new(Mutex::new(0u32));
        *m.lock() += 5;
        assert_eq!(*m.lock(), 5);

        // A panicking holder must not poison subsequent locks.
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn a_lock_released_within_linger_is_taken_without_parking() {
        // The holder lets go a yield after the waiter reached the lock. A
        // host that preempts the holder for longer than `LINGER` lets the
        // waiter park honestly, so a round that saw a park is run again; a
        // lock that does not linger parks in every round.
        let parked_in_round = || {
            let m = Arc::new(Mutex::new(0u32));
            let held = m.lock();
            let waiting = Arc::new(AtomicBool::new(false));
            let waiter = {
                let (m, waiting) = (Arc::clone(&m), Arc::clone(&waiting));
                thread::spawn(move || {
                    let before = parks();
                    waiting.store(true, Ordering::Release);
                    *m.lock() += 1;
                    parks() - before
                })
            };
            while !waiting.load(Ordering::Acquire) {
                thread::yield_now();
            }
            thread::yield_now();
            drop(held);
            waiter.join().unwrap() > 0
        };
        assert!((0..5).any(|_| !parked_in_round()), "parked in all 5 rounds");
    }

    #[test]
    fn a_lock_held_past_linger_parks_and_is_still_handed_over() {
        // The holder outlasts the linger and then panics out of the lock:
        // the waiter parks, and is woken with the guard the panic poisoned.
        let m = Arc::new(Mutex::new(0u32));
        let start = Arc::new(Barrier::new(2));
        let holder = {
            let (m, start) = (Arc::clone(&m), Arc::clone(&start));
            thread::spawn(move || {
                let mut g = m.lock();
                start.wait();
                thread::sleep(LINGER * 200);
                *g += 1;
                panic!("poisoned with a waiter parked");
            })
        };
        // Detached: joining a waiter whose wake-up was lost would hang.
        let (done_tx, got) = mpsc::channel();
        thread::spawn(move || {
            start.wait();
            let before = parks();
            let value = *m.lock();
            done_tx.send((value, parks() - before))
        });
        assert_eq!(got.recv_timeout(PROMPT), Ok((1, 1)), "(value, parks)");
        assert!(holder.join().is_err());
    }

    #[test]
    fn rwlock_many_readers_one_writer() {
        let l = RwLock::new(vec![1, 2, 3]);
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!(r1.len() + r2.len(), 6);
        }
        l.write().push(4);
        assert_eq!(*l.read(), vec![1, 2, 3, 4]);
    }
}
