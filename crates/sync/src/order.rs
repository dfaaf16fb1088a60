//! The lock hierarchy, declared once, and the check that keeps to it.
//!
//! Every [`crate::Mutex`] and [`crate::RwLock`] is built with a [`Class`].
//! A thread may take a lock of class `B` while it holds one of class `A`
//! only if `A` ranks above `B` — declaration order below — or `A` is `B`
//! and the class [`nests`](Class::nests). In debug and `model-check`
//! builds each thread keeps the locks it holds, and every `lock` / `read`
//! / `write` is checked against them *before* it can block: an inversion
//! panics, naming both classes and both call sites, on the first run that
//! takes it rather than the rare one that deadlocks — and under the model
//! checker on every explored interleaving. [`blocking`] is the same check
//! for an operation that waits on another thread. Release builds compile
//! all of it out: a lock there is the size of the `std` one.

/// A lock class, outermost first (DESIGN.md, "Lock hierarchy"). A class
/// that [may block](Class::may_block) says why in its documentation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// `fqos-cluster`'s control-loop state, held across a whole control
    /// tick. May block: membership changes, WAL recovery and migration
    /// serialize under it on purpose, and the halt / recover / register
    /// calls under it are the operation; the data path never takes it.
    ClusterCtrl,
    /// Tenant placement. May block: `restore_slot` replays a dead slot's
    /// WAL under it, so no handle can route to, and no control tick
    /// observe, a half-recovered array; the slot was dead, so nothing
    /// waits to be served.
    ClusterRouter,
    /// The slot table. May block: `kill_slot` halts the dying engine under
    /// the write side — the fence that keeps new submits off it while its
    /// workers drain, so the residue it returns is exact.
    ClusterArrays,
    /// Array liveness, probed under the slot table.
    ClusterHealth,
    /// The submission gate: every submit holds the read side, `halt` passes
    /// through the write side once.
    EngineQuiesce,
    /// Seal and dispatch. May block: seals and settles are logged, fsync
    /// included, under it so that the log's order is the seal order; and
    /// the bounded send to a worker under it is the engine's backpressure.
    EngineDispatch,
    /// Aggregate `S(M)` admission. May block: registrations are logged
    /// under it, so replay rebuilds exactly the admitted tenant set; the
    /// submit path never takes it.
    RegistryAdmission,
    /// Statistical admission counters.
    EngineStatCounters,
    /// One window-ring slot.
    WindowSlot,
    /// One tenant lookup shard, taken by a submit only on a view miss.
    RegistryShard,
    /// The fault plane's event log.
    FaultInner,
    /// The device health scorer.
    FaultHealth,
    /// Hedge frontiers.
    EngineHedge,
    /// One thread's staged WAL records. May block: a stage is held until
    /// whoever drains it holds the log, so a cold path that drains every
    /// stage finds each record staged or logged; the owner keeps it across
    /// its append and flush. Nests: the sealing thread holds its handle's
    /// and every worker's, in index order, only under `EngineDispatch`.
    EngineStage,
    /// The write-ahead log. May block: the fsync under it is the
    /// durability contract, and its only contenders are appenders that
    /// have to wait behind the flush anyway.
    EngineWal,
    /// `fqos-cluster`'s exporter page: replaced by whoever renders, cloned
    /// by the exporter thread.
    ClusterPage,
    /// `fqos-server`'s count of who takes the WAL lock, in its unit tests.
    WalTally,
}

impl Class {
    /// The name DESIGN.md's table and the panic messages use.
    pub const fn name(self) -> &'static str {
        match self {
            Class::ClusterCtrl => "cluster.ctrl",
            Class::ClusterRouter => "cluster.router",
            Class::ClusterArrays => "cluster.arrays",
            Class::ClusterHealth => "cluster.health",
            Class::EngineQuiesce => "engine.quiesce",
            Class::EngineDispatch => "engine.dispatch",
            Class::RegistryAdmission => "registry.admission",
            Class::EngineStatCounters => "engine.stat_counters",
            Class::WindowSlot => "window.slot",
            Class::RegistryShard => "registry.shard",
            Class::FaultInner => "fault.inner",
            Class::FaultHealth => "fault.health",
            Class::EngineHedge => "engine.hedge",
            Class::EngineStage => "engine.stage",
            Class::EngineWal => "engine.wal",
            Class::ClusterPage => "cluster.page",
            Class::WalTally => "wal.tally",
        }
    }

    /// Whether a thread may wait on another — [`blocking`] — while it holds
    /// a lock of this class exclusively. Shared guards never stop a wait.
    pub const fn may_block(self) -> bool {
        matches!(
            self,
            Class::ClusterCtrl
                | Class::ClusterRouter
                | Class::ClusterArrays
                | Class::EngineDispatch
                | Class::RegistryAdmission
                | Class::EngineStage
                | Class::EngineWal
        )
    }

    /// Whether a thread may hold two locks of this class at once.
    pub const fn nests(self) -> bool {
        matches!(self, Class::EngineStage)
    }
}

pub use imp::{blocking, seen};
pub(crate) use imp::{tag, Held, Tag};

#[cfg(any(debug_assertions, feature = "model-check"))]
mod imp {
    use super::Class;
    use std::cell::RefCell;
    use std::panic::Location;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// What a lock keeps of its class.
    pub(crate) type Tag = Class;

    pub(crate) const fn tag(class: Class) -> Tag {
        class
    }

    #[derive(Clone, Copy, PartialEq)]
    struct Entry {
        class: Class,
        exclusive: bool,
        site: &'static Location<'static>,
    }

    /// Locks one thread may hold at once: the sealing thread's stages, one
    /// per worker, under three cluster and three engine classes.
    const DEPTH: usize = 64;

    thread_local! {
        /// What this thread holds, in free slots: a fixed array, not a
        /// `Vec`, because a worker must not allocate (`alloc_count`).
        static HELD: RefCell<[Option<Entry>; DEPTH]> = const { RefCell::new([None; DEPTH]) };
    }

    const CLASSES: usize = Class::WalTally as usize + 1;

    /// Bit `b` of `SEEN[a]`: some thread took class `b` holding class `a`.
    static SEEN: [AtomicU32; CLASSES] = [const { AtomicU32::new(0) }; CLASSES];

    /// A guard's entry in its thread's held set, left when the guard drops
    /// — in any order: the sealing thread lets go of the stages while it
    /// still holds the log.
    pub(crate) struct Held(Entry);

    impl Held {
        /// Check a request for `class` against what this thread holds, then
        /// hold it. Called before the lock is asked for, so an inversion
        /// panics instead of waiting.
        pub(crate) fn new(class: Class, exclusive: bool, site: &'static Location<'static>) -> Held {
            let entry = Entry {
                class,
                exclusive,
                site,
            };
            // `try_with`: a guard taken or dropped in thread teardown is
            // not checked, rather than a panic.
            let _ = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                for e in held.iter().flatten() {
                    SEEN[e.class as usize].fetch_or(1 << class as u32, Ordering::Relaxed);
                    if e.class > class || (e.class == class && !class.nests()) {
                        panic!(
                            "lock-order inversion: `{}` requested at {site} while `{}` is held, \
                             taken at {} (DESIGN.md, \"Lock hierarchy\")",
                            class.name(),
                            e.class.name(),
                            e.site,
                        );
                    }
                }
                let free = held.iter_mut().find(|e| e.is_none());
                *free.expect("more than DEPTH locks held by one thread") = Some(entry);
            });
            Held(entry)
        }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            let _ = HELD.try_with(|held| {
                if let Some(e) = held
                    .borrow_mut()
                    .iter_mut()
                    .rev()
                    .find(|e| **e == Some(self.0))
                {
                    *e = None;
                }
            });
        }
    }

    /// Panic if this thread holds, exclusively, a lock whose class may not
    /// block: `what` is about to wait on another thread. The channels call
    /// it on every `send` and `recv`; `fqos-server` before an fsync and a
    /// worker `join`.
    #[track_caller]
    pub fn blocking(what: &str) {
        let at = Location::caller();
        let _ = HELD.try_with(|held| {
            let held = held.borrow();
            let under = held
                .iter()
                .flatten()
                .find(|e| e.exclusive && !e.class.may_block());
            if let Some(e) = under {
                panic!(
                    "`{what}` at {at} would block under `{}`, held exclusively since {}: \
                     a class that may not block (DESIGN.md, \"Lock hierarchy\")",
                    e.class.name(),
                    e.site,
                );
            }
        });
    }

    /// Whether some thread of this process has taken a lock of class
    /// `taken` while it held one of class `held` (always false in release
    /// builds, where nothing is recorded).
    pub fn seen(held: Class, taken: Class) -> bool {
        SEEN[held as usize].load(Ordering::Relaxed) & (1 << taken as u32) != 0
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::{channel, Mutex, RwLock};
        use std::panic::{catch_unwind, AssertUnwindSafe};

        /// The classes this thread holds.
        fn held_here() -> Vec<Class> {
            HELD.with(|held| held.borrow().iter().flatten().map(|e| e.class).collect())
        }

        fn message(payload: &(dyn std::any::Any + Send)) -> String {
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default()
        }

        fn site(line: u32) -> String {
            format!("{}:{line}:", file!())
        }

        /// The AB-BA fixture: one thread takes the log under dispatch, as a
        /// seal does, and then dispatch under the log. The second order
        /// panics before it waits, whether or not anybody holds either lock.
        #[test]
        #[should_panic(expected = "lock-order inversion")]
        fn an_inverted_acquisition_panics_naming_both_sites() {
            let dispatch = Mutex::new(Class::EngineDispatch, ());
            let wal = Mutex::new(Class::EngineWal, ());
            drop((dispatch.lock(), wal.lock()));
            assert!(seen(Class::EngineDispatch, Class::EngineWal));
            let (wal_at, _wal) = (line!(), wal.lock());
            let (dispatch_at, inverted) = (line!(), AssertUnwindSafe(|| drop(dispatch.lock())));
            let msg = message(&*catch_unwind(inverted).expect_err("dispatch under the log"));
            for needle in [
                "engine.dispatch",
                "engine.wal",
                &site(dispatch_at),
                &site(wal_at),
            ] {
                assert!(msg.contains(needle), "`{needle}` missing from: {msg}");
            }
            std::panic::resume_unwind(Box::new(msg));
        }

        #[test]
        fn blocking_under_a_class_that_may_not_block_panics() {
            let hedge = Mutex::new(Class::EngineHedge, ());
            let (tx, _rx) = channel::bounded(1);
            let (hedge_at, _hedge) = (line!(), hedge.lock());
            let (send_at, sent) = (line!(), catch_unwind(AssertUnwindSafe(|| tx.send(()))));
            let (fsync_at, synced) = (line!(), catch_unwind(|| blocking("fsync")));
            for (op, at, caught) in [
                ("send", send_at, sent.map(drop)),
                ("fsync", fsync_at, synced),
            ] {
                let msg = message(&*caught.expect_err("blocked under engine.hedge"));
                for needle in [op, "engine.hedge", &site(at), &site(hedge_at)] {
                    assert!(msg.contains(needle), "`{needle}` missing from: {msg}");
                }
            }
        }

        #[test]
        fn blocking_under_a_may_block_class_is_allowed() {
            let wal = Mutex::new(Class::EngineWal, ());
            let quiesce = RwLock::new(Class::EngineQuiesce, ());
            let (tx, rx) = channel::bounded(1);
            // A shared guard never stops a wait, whatever its class.
            let _submitting = quiesce.read();
            let _wal = wal.lock();
            blocking("fsync");
            tx.send(7).unwrap();
            assert_eq!(rx.recv(), Ok(7));
        }

        /// `Wal::lock_behind_workers`: the stages in index order, then the
        /// log, then the stages go while the log is still held.
        #[test]
        fn out_of_order_release_keeps_the_held_set_exact() {
            let stages = [(); 3].map(|()| Mutex::new(Class::EngineStage, ()));
            let wal = Mutex::new(Class::EngineWal, ());
            let guards: Vec<_> = stages.iter().map(Mutex::lock).collect();
            let log = wal.lock();
            assert_eq!(held_here().len(), 4);
            drop(guards);
            assert_eq!(held_here(), [Class::EngineWal]);
            let stage_under_the_log = catch_unwind(AssertUnwindSafe(|| drop(stages[0].lock())));
            assert!(stage_under_the_log.is_err(), "the log is still held");
            drop(log);
            assert!(held_here().is_empty());
            drop(stages[1].lock());
        }

        #[test]
        #[cfg(feature = "model-check")]
        fn an_inversion_inside_a_model_fails_it() {
            let failed = catch_unwind(|| {
                crate::model_with(crate::Config::default(), || {
                    let stage = Mutex::new(Class::EngineStage, ());
                    let wal = Mutex::new(Class::EngineWal, ());
                    let _wal = wal.lock();
                    drop(stage.lock());
                })
            });
            let msg = message(&*failed.expect_err("the model accepted an inversion"));
            assert!(
                msg.contains("lock-order inversion: `engine.stage`"),
                "{msg}"
            );
        }
    }
}

#[cfg(not(any(debug_assertions, feature = "model-check")))]
mod imp {
    use super::Class;
    use std::panic::Location;

    /// What a lock keeps of its class: nothing.
    #[derive(Clone, Copy, Debug)]
    pub(crate) struct Tag;

    pub(crate) const fn tag(_: Class) -> Tag {
        Tag
    }

    pub(crate) struct Held;

    impl Held {
        #[inline(always)]
        pub(crate) fn new(_: Tag, _: bool, _: &'static Location<'static>) -> Held {
            Held
        }
    }

    /// Checked in debug and `model-check` builds only.
    #[inline(always)]
    pub fn blocking(_: &str) {}

    /// Nothing is recorded in release builds.
    pub fn seen(_: Class, _: Class) -> bool {
        false
    }

    #[cfg(test)]
    mod tests {
        use crate::{Mutex, MutexGuard, RwLock};
        use std::mem::size_of;

        #[test]
        fn the_class_costs_nothing_in_release() {
            assert_eq!(size_of::<Mutex<u8>>(), size_of::<std::sync::Mutex<u8>>());
            assert_eq!(
                size_of::<Mutex<[u64; 3]>>(),
                size_of::<std::sync::Mutex<[u64; 3]>>()
            );
            assert_eq!(size_of::<RwLock<u8>>(), size_of::<std::sync::RwLock<u8>>());
            assert_eq!(
                size_of::<MutexGuard<'_, u8>>(),
                size_of::<std::sync::MutexGuard<'_, u8>>()
            );
        }
    }
}
