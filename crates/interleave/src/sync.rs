//! Instrumented twins of the `std`-based locks `fqos-sync` puts its
//! classed `Mutex`/`RwLock` over (same signatures: panic-free guards,
//! poison recovery) plus model-aware `atomic` wrappers and a re-exported
//! `Arc`.
//!
//! Inside a [`crate::model`] execution every acquisition and every atomic
//! access is a scheduling point; blocking is expressed as a condition the
//! scheduler evaluates against a mirror of the lock state, so the explorer
//! can enumerate who wins each race. Outside a model (no thread-local
//! runtime), all types degrade to their plain blocking behavior, which is
//! what lets one feature-unified test binary run both model and ordinary
//! suites.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync;

use crate::rt::{ctx, Condition, Resource, ResourceId, Rt};

pub use std::sync::Arc;

/// Mutual exclusion lock; `lock` never returns an error. Scheduling point
/// under a model.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    id: ResourceId,
    cell: sync::Mutex<T>,
}

/// Guard for [`Mutex`]; releases the scheduler mirror on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    model: Option<(Arc<Rt>, usize)>,
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            id: ResourceId::new(),
            cell: sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    fn ensure(&self, rt: &Rt) -> usize {
        self.id.get(rt, || Resource::Mutex {
            held: self.cell.try_lock().is_err(),
        })
    }

    fn take_cell(&self) -> sync::MutexGuard<'_, T> {
        match self.cell.try_lock() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(sync::TryLockError::WouldBlock) => {
                unreachable!("scheduler granted a mutex that is still held")
            }
        }
    }

    /// Acquire the lock, blocking; recovers from poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match ctx() {
            Some((rt, me)) => {
                let id = self.ensure(&rt);
                rt.yield_point(me, Condition::MutexFree(id), "mutex.lock");
                rt.update_resource(id, |r| match r {
                    Resource::Mutex { held } => *held = true,
                    other => unreachable!("mutex slot holds {other:?}"),
                });
                MutexGuard {
                    model: Some((rt, id)),
                    inner: Some(self.take_cell()),
                }
            }
            None => MutexGuard {
                model: None,
                inner: Some(
                    self.cell
                        .lock()
                        .unwrap_or_else(sync::PoisonError::into_inner),
                ),
            },
        }
    }
}

impl<T: ?Sized> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the data before the mirror so no schedule can observe
        // the mirror free while the std lock is still held.
        self.inner = None;
        if let Some((rt, id)) = self.model.take() {
            rt.update_resource(id, |r| match r {
                Resource::Mutex { held } => *held = false,
                other => unreachable!("mutex slot holds {other:?}"),
            });
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard already released")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard already released")
    }
}

/// Reader–writer lock; `read`/`write` never return errors. Scheduling
/// points under a model.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    id: ResourceId,
    cell: sync::RwLock<T>,
}

/// Shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    model: Option<(Arc<Rt>, usize)>,
    inner: Option<sync::RwLockReadGuard<'a, T>>,
}

/// Exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    model: Option<(Arc<Rt>, usize)>,
    inner: Option<sync::RwLockWriteGuard<'a, T>>,
}

impl<T> RwLock<T> {
    /// Create a new reader–writer lock.
    pub const fn new(value: T) -> Self {
        RwLock {
            id: ResourceId::new(),
            cell: sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    fn ensure(&self, rt: &Rt) -> usize {
        self.id.get(rt, || Resource::RwLock {
            readers: 0,
            writer: false,
        })
    }

    /// Acquire shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        match ctx() {
            Some((rt, me)) => {
                let id = self.ensure(&rt);
                rt.yield_point(me, Condition::RwRead(id), "rwlock.read");
                rt.update_resource(id, |r| match r {
                    Resource::RwLock { readers, .. } => *readers += 1,
                    other => unreachable!("rwlock slot holds {other:?}"),
                });
                let g = match self.cell.try_read() {
                    Ok(g) => g,
                    Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
                    Err(sync::TryLockError::WouldBlock) => {
                        unreachable!("scheduler granted a read on a write-held rwlock")
                    }
                };
                RwLockReadGuard {
                    model: Some((rt, id)),
                    inner: Some(g),
                }
            }
            None => RwLockReadGuard {
                model: None,
                inner: Some(
                    self.cell
                        .read()
                        .unwrap_or_else(sync::PoisonError::into_inner),
                ),
            },
        }
    }

    /// Acquire exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        match ctx() {
            Some((rt, me)) => {
                let id = self.ensure(&rt);
                rt.yield_point(me, Condition::RwWrite(id), "rwlock.write");
                rt.update_resource(id, |r| match r {
                    Resource::RwLock { writer, .. } => *writer = true,
                    other => unreachable!("rwlock slot holds {other:?}"),
                });
                let g = match self.cell.try_write() {
                    Ok(g) => g,
                    Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
                    Err(sync::TryLockError::WouldBlock) => {
                        unreachable!("scheduler granted a write on a held rwlock")
                    }
                };
                RwLockWriteGuard {
                    model: Some((rt, id)),
                    inner: Some(g),
                }
            }
            None => RwLockWriteGuard {
                model: None,
                inner: Some(
                    self.cell
                        .write()
                        .unwrap_or_else(sync::PoisonError::into_inner),
                ),
            },
        }
    }
}

impl<T: ?Sized> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        if let Some((rt, id)) = self.model.take() {
            rt.update_resource(id, |r| match r {
                Resource::RwLock { readers, .. } => *readers -= 1,
                other => unreachable!("rwlock slot holds {other:?}"),
            });
        }
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        if let Some((rt, id)) = self.model.take() {
            rt.update_resource(id, |r| match r {
                Resource::RwLock { writer, .. } => *writer = false,
                other => unreachable!("rwlock slot holds {other:?}"),
            });
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard already released")
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard already released")
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard already released")
    }
}

/// Model-aware atomics. Each access is a scheduling point (atomics are
/// exactly where store/load interleavings matter); the values themselves
/// live in the matching `std` atomic, so `Ordering` is the std enum and
/// non-model code pays nothing but a thread-local check.
pub mod atomic {
    use crate::rt::{ctx, Condition};

    pub use std::sync::atomic::Ordering;

    fn interleave_here(op: &'static str) {
        if let Some((rt, me)) = ctx() {
            rt.yield_point(me, Condition::Always, op);
        }
    }

    macro_rules! model_atomic {
        ($name:ident, $std:ident, $prim:ty) => {
            /// Instrumented counterpart of the same-named `std` atomic.
            #[derive(Debug, Default)]
            pub struct $name {
                cell: std::sync::atomic::$std,
            }

            impl $name {
                /// Create a new atomic.
                pub const fn new(v: $prim) -> Self {
                    $name {
                        cell: std::sync::atomic::$std::new(v),
                    }
                }

                /// Atomic load; scheduling point under a model.
                pub fn load(&self, order: Ordering) -> $prim {
                    interleave_here(concat!(stringify!($name), ".load"));
                    self.cell.load(order)
                }

                /// Atomic store; scheduling point under a model.
                pub fn store(&self, v: $prim, order: Ordering) {
                    interleave_here(concat!(stringify!($name), ".store"));
                    self.cell.store(v, order);
                }

                /// Atomic swap; scheduling point under a model.
                pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                    interleave_here(concat!(stringify!($name), ".swap"));
                    self.cell.swap(v, order)
                }

                /// Mutable access without synchronization.
                pub fn get_mut(&mut self) -> &mut $prim {
                    self.cell.get_mut()
                }

                /// Consume the atomic, returning the value.
                pub fn into_inner(self) -> $prim {
                    self.cell.into_inner()
                }
            }
        };
    }

    macro_rules! model_atomic_int {
        ($name:ident, $std:ident, $prim:ty) => {
            model_atomic!($name, $std, $prim);

            impl $name {
                /// Atomic add returning the previous value; scheduling
                /// point under a model.
                pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                    interleave_here(concat!(stringify!($name), ".fetch_add"));
                    self.cell.fetch_add(v, order)
                }

                /// Atomic subtract returning the previous value;
                /// scheduling point under a model.
                pub fn fetch_sub(&self, v: $prim, order: Ordering) -> $prim {
                    interleave_here(concat!(stringify!($name), ".fetch_sub"));
                    self.cell.fetch_sub(v, order)
                }

                /// Atomic max returning the previous value; scheduling
                /// point under a model.
                pub fn fetch_max(&self, v: $prim, order: Ordering) -> $prim {
                    interleave_here(concat!(stringify!($name), ".fetch_max"));
                    self.cell.fetch_max(v, order)
                }

                /// Atomic min returning the previous value; scheduling
                /// point under a model.
                pub fn fetch_min(&self, v: $prim, order: Ordering) -> $prim {
                    interleave_here(concat!(stringify!($name), ".fetch_min"));
                    self.cell.fetch_min(v, order)
                }

                /// Atomic bitwise OR returning the previous value;
                /// scheduling point under a model.
                pub fn fetch_or(&self, v: $prim, order: Ordering) -> $prim {
                    interleave_here(concat!(stringify!($name), ".fetch_or"));
                    self.cell.fetch_or(v, order)
                }

                /// Atomic bitwise AND returning the previous value;
                /// scheduling point under a model.
                pub fn fetch_and(&self, v: $prim, order: Ordering) -> $prim {
                    interleave_here(concat!(stringify!($name), ".fetch_and"));
                    self.cell.fetch_and(v, order)
                }

                /// Atomic read-modify-write by `f`, as `std`'s; one
                /// scheduling point under a model (the model runs one
                /// thread at a time, so `f` is never retried there).
                pub fn fetch_update(
                    &self,
                    set_order: Ordering,
                    fetch_order: Ordering,
                    f: impl FnMut($prim) -> Option<$prim>,
                ) -> Result<$prim, $prim> {
                    interleave_here(concat!(stringify!($name), ".fetch_update"));
                    self.cell.fetch_update(set_order, fetch_order, f)
                }

                /// Atomic compare-exchange; scheduling point under a model.
                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    interleave_here(concat!(stringify!($name), ".compare_exchange"));
                    self.cell.compare_exchange(current, new, success, failure)
                }
            }
        };
    }

    model_atomic_int!(AtomicU64, AtomicU64, u64);
    model_atomic_int!(AtomicUsize, AtomicUsize, usize);
    model_atomic_int!(AtomicU32, AtomicU32, u32);
    model_atomic!(AtomicBool, AtomicBool, bool);

    impl AtomicBool {
        /// Atomic OR returning the previous value; scheduling point under
        /// a model.
        pub fn fetch_or(&self, v: bool, order: Ordering) -> bool {
            interleave_here("AtomicBool.fetch_or");
            self.cell.fetch_or(v, order)
        }
    }
}
