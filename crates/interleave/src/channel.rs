//! Instrumented twin of `fqos-sync`'s channel (`bounded`, `send`/`recv`,
//! `try_recv`, disconnect-on-last-endpoint-drop semantics).
//!
//! Under a [`crate::model`] execution, send/recv park on scheduler
//! conditions evaluated against a mirror of the queue state — a blocked
//! send is runnable once there is room *or* every receiver is gone (so the
//! disconnect error is itself an explorable outcome). Outside a model the
//! channel degrades to a mutex plus two condvars, without the linger.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::rt::{ctx, Condition, Resource, ResourceId, Rt};

struct Shared<T> {
    id: ResourceId,
    queue: Mutex<VecDeque<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
    senders: AtomicUsize,
    receivers: AtomicUsize,
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
/// `cap = 0` is rounded up to 1 (true rendezvous is not needed here).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        id: ResourceId::new(),
        queue: Mutex::new(VecDeque::new()),
        capacity: cap.max(1),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
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

    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register with the scheduler, snapshotting live endpoint counts so an
    /// object first touched mid-execution mirrors its real state.
    fn ensure(&self, rt: &Rt) -> usize {
        self.id.get(rt, || Resource::Channel {
            len: self.lock_queue().len(),
            cap: self.capacity,
            senders: self.senders.load(Ordering::Acquire),
            receivers: self.receivers.load(Ordering::Acquire),
        })
    }

    fn mirror(&self, rt: &Rt, f: impl FnOnce(&mut usize, usize, &mut usize, &mut usize)) {
        if let Some(id) = self.id.peek(rt) {
            rt.update_resource(id, |r| match r {
                Resource::Channel {
                    len,
                    cap,
                    senders,
                    receivers,
                } => f(len, *cap, senders, receivers),
                other => unreachable!("channel slot holds {other:?}"),
            });
        }
    }
}

impl<T> Sender<T> {
    /// Block until the value is enqueued, or fail if all receivers are
    /// gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let shared = &*self.shared;
        if let Some((rt, me)) = ctx() {
            let id = shared.ensure(&rt);
            rt.yield_point(me, Condition::ChanSend(id), "chan.send");
            let receivers = rt.read_resource(id, |r| match r {
                Resource::Channel { receivers, .. } => *receivers,
                other => unreachable!("channel slot holds {other:?}"),
            });
            if receivers == 0 {
                return Err(SendError(value));
            }
            shared.lock_queue().push_back(value);
            rt.update_resource(id, |r| match r {
                Resource::Channel { len, .. } => *len += 1,
                other => unreachable!("channel slot holds {other:?}"),
            });
            return Ok(());
        }
        let mut q = shared.lock_queue();
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
        drop(q);
        shared.not_empty.notify_one();
        Ok(())
    }
}

impl<T> Receiver<T> {
    /// Block until a value arrives, or fail once the channel is empty with
    /// all senders gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.recv_idle(|| {})
    }

    /// `fqos-sync`'s `recv_idle`: `idle` runs, at most once, when
    /// the receiver is about to block. Under a model that is a receiver
    /// that finds nothing queued where the explorer let it arrive — there
    /// is no linger to outlast — and whatever `idle` does (its locks are
    /// scheduling points) comes before the blocking point.
    pub fn recv_idle(&self, idle: impl FnOnce()) -> Result<T, RecvError> {
        let shared = &*self.shared;
        if let Some((rt, me)) = ctx() {
            let id = shared.ensure(&rt);
            let about_to_block = rt.read_resource(id, |r| match r {
                Resource::Channel { len, senders, .. } => *len == 0 && *senders > 0,
                other => unreachable!("channel slot holds {other:?}"),
            });
            if about_to_block {
                idle();
            }
            rt.yield_point(me, Condition::ChanRecv(id), "chan.recv");
            match shared.lock_queue().pop_front() {
                Some(v) => {
                    rt.update_resource(id, |r| match r {
                        Resource::Channel { len, .. } => *len -= 1,
                        other => unreachable!("channel slot holds {other:?}"),
                    });
                    return Ok(v);
                }
                // Runnable with an empty queue implies every sender is
                // gone: disconnect.
                None => return Err(RecvError),
            }
        }
        let mut idle = Some(idle);
        let mut q = shared.lock_queue();
        loop {
            if let Some(v) = q.pop_front() {
                drop(q);
                shared.not_full.notify_one();
                return Ok(v);
            }
            if shared.no_senders() {
                return Err(RecvError);
            }
            if let Some(idle) = idle.take() {
                drop(q);
                idle();
                q = shared.lock_queue();
                continue;
            }
            q = shared
                .not_empty
                .wait(q)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// `fqos-sync`'s `try_recv`; under a model a scheduling point that never blocks.
    pub fn try_recv(&self) -> Option<T> {
        let model = ctx();
        if let Some((rt, me)) = &model {
            self.shared.ensure(rt);
            rt.yield_point(*me, Condition::Always, "chan.try_recv");
        }
        let v = self.shared.lock_queue().pop_front()?;
        match model {
            Some((rt, _)) => self.shared.mirror(&rt, |len, _, _, _| *len -= 1),
            None => self.shared.not_full.notify_one(),
        }
        Some(v)
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::AcqRel);
        if let Some((rt, _)) = ctx() {
            self.shared.mirror(&rt, |_, _, senders, _| *senders += 1);
        }
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if let Some((rt, _)) = ctx() {
            self.shared.senders.fetch_sub(1, Ordering::AcqRel);
            self.shared.mirror(&rt, |_, _, senders, _| *senders -= 1);
            // Blocked receivers become runnable at the next scheduling
            // point; no wakeup needed under the model.
            return;
        }
        if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last sender: wake receivers so they observe disconnect.
            let _unused = self.shared.queue.lock();
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        if let Some((rt, _)) = ctx() {
            self.shared.receivers.fetch_sub(1, Ordering::AcqRel);
            self.shared
                .mirror(&rt, |_, _, _, receivers| *receivers -= 1);
            return;
        }
        if self.shared.receivers.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last receiver: wake senders blocked on a full queue.
            let _unused = self.shared.queue.lock();
            self.shared.not_full.notify_all();
        }
    }
}
