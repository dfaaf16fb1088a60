//! Offline stand-in for the `parking_lot` crate (0.12 API subset): exactly
//! what `fqos-server` and `fqos-cluster` call.
//!
//! Wraps `std::sync` primitives behind parking_lot's panic-free signatures:
//! `lock()`/`read()`/`write()` return guards directly, and a lock poisoned
//! by a panicking holder is recovered rather than propagated (parking_lot
//! has no poisoning at all, so recovery matches its semantics). Fairness
//! is out of scope; of parking_lot's speed the one thing kept is that a
//! contended [`Mutex::lock`] backs off before it parks.

use std::ops::{Deref, DerefMut};
use std::sync;
use std::time::{Duration, Instant};

/// Mutual exclusion lock; `lock` never returns an error.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// Guard for [`Mutex`].
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    inner: sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }
}

/// How long a thread that finds a mutex held polls before it parks: about
/// what one park/unpark cycle costs on the hosts this runs on (the same
/// figure, for the same reason, as the `crossbeam` stand-in's `LINGER`).
const LINGER: Duration = Duration::from_micros(50);

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking; recovers from poisoning. Backs off
    /// before it parks, as parking_lot does: a holder is expected to be
    /// gone within microseconds, a parked waiter takes tens of them to run
    /// again — and the holder pays the wake-up. Yields rather than spins:
    /// with more runnable threads than cores a spinning waiter holds the
    /// core the holder needs.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let inner = self.try_lock().unwrap_or_else(|| self.lock_contended());
        MutexGuard { inner }
    }

    /// The guard if the lock is free, poisoned or not.
    fn try_lock(&self) -> Option<sync::MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(guard),
            Err(sync::TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    #[cold]
    fn lock_contended(&self) -> sync::MutexGuard<'_, T> {
        let start = Instant::now();
        while start.elapsed() < LINGER {
            std::thread::yield_now();
            if let Some(guard) = self.try_lock() {
                return guard;
            }
        }
        self.inner
            .lock()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Reader–writer lock; `read`/`write` never return errors.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

/// Shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
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
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self
                .inner
                .read()
                .unwrap_or_else(sync::PoisonError::into_inner),
        }
    }

    /// Acquire exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self
                .inner
                .write()
                .unwrap_or_else(sync::PoisonError::into_inner),
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

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
