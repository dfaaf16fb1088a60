//! Loom-style bounded-exhaustive interleaving model checker.
//!
//! Concurrency bugs live in thread interleavings that stress tests sample
//! with vanishing probability. This crate explores them systematically:
//! wrap a concurrent scenario in [`model`] and build it from the
//! instrumented primitives in [`sync`], [`channel`] and [`thread`] — the
//! same signatures as the shipped backends under `fqos-sync`'s primitives
//! and `std::thread`, so production code runs unmodified behind
//! `fqos-sync`'s `model-check` switch. The runner executes the closure
//! once per distinct thread schedule, enumerating schedules by DFS with a
//! preemption bound and replaying each deterministically; any panic,
//! failed assertion, or deadlock is reported with the schedule trace that
//! produced it.
//!
//! ```
//! use interleave::sync::Arc;
//! use interleave::sync::atomic::{AtomicU64, Ordering};
//!
//! let report = interleave::model(|| {
//!     let x = Arc::new(AtomicU64::new(0));
//!     let t = {
//!         let x = Arc::clone(&x);
//!         interleave::thread::spawn(move || x.fetch_add(1, Ordering::SeqCst))
//!     };
//!     x.fetch_add(1, Ordering::SeqCst);
//!     t.join().unwrap();
//!     assert_eq!(x.load(Ordering::SeqCst), 2);
//! });
//! assert!(report.exhausted);
//! ```
//!
//! Outside a [`model`] execution every primitive falls back to plain
//! blocking behavior, so binaries that link both model suites and
//! ordinary tests work unchanged.
//!
//! Model closures must be deterministic: no wall-clock reads, ambient
//! randomness, or control flow keyed on addresses/hash order that varies
//! between runs — the checker detects divergence during replay and
//! reports it as a nondeterministic model.

#![forbid(unsafe_code)]

mod rt;

pub mod channel;
pub mod sync;
pub mod thread;

pub use rt::{model, model_with, Config, Report};

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use crate::sync::atomic::{AtomicU64, Ordering};
    use crate::sync::{Arc, Mutex};
    use crate::{channel, model, model_with, thread, Config};

    fn failure_message(f: impl Fn() + Send + Sync + 'static) -> String {
        let err = catch_unwind(AssertUnwindSafe(|| model(f)))
            .expect_err("model accepted a buggy scenario");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("panic payload should be a string")
    }

    #[test]
    fn finds_lost_update() {
        // A read-modify-write race on a plain shared counter: some
        // schedule interleaves the two load/store pairs and loses one
        // increment. The checker must find it and name the schedule.
        let msg = failure_message(|| {
            let x = Arc::new(AtomicU64::new(0));
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let x = Arc::clone(&x);
                    thread::spawn(move || {
                        let v = x.load(Ordering::SeqCst);
                        x.store(v + 1, Ordering::SeqCst);
                    })
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
            assert_eq!(x.load(Ordering::SeqCst), 2, "lost update");
        });
        assert!(msg.contains("lost update"), "unexpected report: {msg}");
        assert!(msg.contains("schedule trace"), "missing trace: {msg}");
    }

    #[test]
    fn finds_ab_ba_deadlock() {
        let msg = failure_message(|| {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let t = {
                let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                thread::spawn(move || {
                    let _ga = a.lock();
                    let _gb = b.lock();
                })
            };
            {
                let _gb = b.lock();
                let _ga = a.lock();
            }
            t.join().unwrap();
        });
        assert!(msg.contains("deadlock"), "unexpected report: {msg}");
    }

    #[test]
    fn atomic_increments_are_exhaustively_verified() {
        let report = model(|| {
            let x = Arc::new(AtomicU64::new(0));
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let x = Arc::clone(&x);
                    thread::spawn(move || {
                        x.fetch_add(1, Ordering::SeqCst);
                    })
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
            assert_eq!(x.load(Ordering::SeqCst), 2);
        });
        assert!(report.exhausted, "tiny model should be fully explored");
        assert!(report.schedules > 1, "no interleaving was explored");
    }

    #[test]
    fn mutex_protects_read_modify_write() {
        // The locked version of the lost-update scenario must pass on
        // every schedule.
        let report = model(|| {
            let x = Arc::new(Mutex::new(0u64));
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let x = Arc::clone(&x);
                    thread::spawn(move || {
                        let mut g = x.lock();
                        *g += 1;
                    })
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
            assert_eq!(*x.lock(), 2);
        });
        assert!(report.exhausted);
        assert!(report.schedules > 1);
    }

    #[test]
    fn channel_backpressure_and_disconnect() {
        // A capacity-1 channel forces the producer to block mid-stream;
        // dropping the producer must surface as disconnect, in order, on
        // every schedule.
        let report = model(|| {
            let (tx, rx) = channel::bounded(2);
            let producer = thread::spawn(move || {
                tx.send(0u32).unwrap();
                tx.send(1u32).unwrap();
                tx.send(2u32).unwrap();
            });
            let got: Vec<u32> = std::iter::from_fn(|| rx.recv().ok()).collect();
            assert_eq!(got, vec![0, 1, 2]);
            producer.join().unwrap();
        });
        assert!(report.exhausted);
        assert!(report.schedules > 1);
    }

    #[test]
    fn recv_idle_runs_its_hook_exactly_when_it_would_block() {
        // One message, sent wherever the explorer likes: the receiver's
        // hook runs on the schedules where it arrives first and finds
        // nothing queued, and on no other; both kinds are explored.
        let idled = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let report = model({
            let idled = std::sync::Arc::clone(&idled);
            move || {
                let (tx, rx) = channel::bounded(1);
                let producer = thread::spawn(move || tx.send(7u32).unwrap());
                // The emptiness check is not a scheduling point of its own:
                // what is queued was decided at the receiver's last one.
                AtomicU64::new(0).load(Ordering::SeqCst);
                let mut ran = false;
                assert_eq!(rx.recv_idle(|| ran = true), Ok(7));
                producer.join().unwrap();
                let disconnected = rx.recv_idle(|| panic!("nobody is left to wait for"));
                assert_eq!(disconnected, Err(channel::RecvError));
                idled.fetch_add(u64::from(ran), std::sync::atomic::Ordering::SeqCst);
            }
        });
        assert!(report.exhausted);
        let idled = idled.load(std::sync::atomic::Ordering::SeqCst);
        assert!(
            0 < idled && idled < report.schedules,
            "the hook ran on {idled} of {} schedules",
            report.schedules
        );
    }

    #[test]
    fn send_to_dropped_receiver_errors() {
        let report = model(|| {
            let (tx, rx) = channel::bounded(1);
            drop(rx);
            assert!(tx.send(7u32).is_err());
        });
        assert!(report.exhausted);
    }

    #[test]
    fn schedule_cap_is_respected() {
        let report = model_with(
            Config {
                preemptions: 3,
                max_schedules: 10,
                max_ops: 100_000,
            },
            || {
                let x = Arc::new(AtomicU64::new(0));
                let workers: Vec<_> = (0..3)
                    .map(|_| {
                        let x = Arc::clone(&x);
                        thread::spawn(move || {
                            for _ in 0..4 {
                                x.fetch_add(1, Ordering::SeqCst);
                            }
                        })
                    })
                    .collect();
                for w in workers {
                    w.join().unwrap();
                }
            },
        );
        assert!(!report.exhausted, "3x4 ops cannot exhaust in 10 schedules");
        assert_eq!(report.schedules, 10);
    }

    #[test]
    fn fallback_primitives_work_outside_model() {
        // No model context here: everything must behave like plain
        // blocking primitives.
        let m = Arc::new(Mutex::new(0u64));
        let (tx, rx) = channel::bounded(2);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let m = Arc::clone(&m);
                let tx = tx.clone();
                thread::spawn(move || {
                    *m.lock() += 1;
                    tx.send(i).unwrap();
                    i
                })
            })
            .collect();
        drop(tx);
        let mut got: Vec<u64> = std::iter::from_fn(|| rx.recv().ok()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        let mut ids: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(*m.lock(), 4);
    }

    #[test]
    fn replays_are_deterministic() {
        // Two identical runs over a contended scenario must explore the
        // same number of schedules to the same depth.
        fn run() -> crate::Report {
            model(|| {
                let x = Arc::new(Mutex::new(Vec::new()));
                let workers: Vec<_> = (0..2)
                    .map(|i| {
                        let x = Arc::clone(&x);
                        thread::spawn(move || x.lock().push(i))
                    })
                    .collect();
                for w in workers {
                    w.join().unwrap();
                }
                assert_eq!(x.lock().len(), 2);
            })
        }
        let (a, b) = (run(), run());
        assert_eq!(a.schedules, b.schedules);
        assert_eq!(a.max_depth, b.max_depth);
    }
}
