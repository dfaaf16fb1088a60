//! Offline stand-in for the `crossbeam` crate (0.8 API subset): what
//! `fqos-server` calls.
//!
//! Provides [`channel::bounded`] (and [`channel::unbounded`]) multi-producer
//! channels with crossbeam's disconnect semantics: cloning a `Sender`
//! tracks the endpoint count, dropping the last `Sender` wakes a blocked
//! receiver with [`channel::RecvError`], and dropping the `Receiver` fails
//! sends. Built on a `Mutex<VecDeque>` plus two condvars — correct and fair
//! enough for queue depths in the hundreds; not a lock-free performance
//! shim.
//!
//! `unbounded` has no caller. It stays because the `Option` it puts in the
//! channel's shared block is 8 bytes of a long-lived allocation, and the
//! benchmark's `hotspot_burst` peak RSS moves 19.5 → 25.4 MiB when that
//! block changes malloc size class (measured, PR 14). Remove it together
//! with that sensitivity, not before.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, PoisonError};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        /// None = unbounded.
        capacity: Option<usize>,
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
        with_capacity(Some(cap.max(1)))
    }

    /// Channel with no capacity bound; sends never block.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            capacity,
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
    }

    impl<T> Sender<T> {
        /// Block until the value is enqueued, or fail if all receivers are
        /// gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let shared = &*self.shared;
            let mut q = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if shared.no_receivers() {
                    return Err(SendError(value));
                }
                match shared.capacity {
                    Some(cap) if q.len() >= cap => {
                        q = shared
                            .not_full
                            .wait(q)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    _ => break,
                }
            }
            q.push_back(value);
            drop(q);
            shared.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Block until a value arrives, or fail once the channel is empty
        /// with all senders gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let shared = &*self.shared;
            let mut q = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(v) = q.pop_front() {
                    drop(q);
                    shared.not_full.notify_one();
                    return Ok(v);
                }
                if shared.no_senders() {
                    return Err(RecvError);
                }
                q = shared
                    .not_empty
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
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
    use super::channel::{self, RecvError};
    use std::thread;
    use std::time::Duration;

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

    #[test]
    fn unbounded_never_blocks_the_sender() {
        let (tx, rx) = channel::unbounded();
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<i32> = std::iter::from_fn(|| rx.recv().ok()).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }
}
