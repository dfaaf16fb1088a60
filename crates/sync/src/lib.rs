//! The primitives `fqos-server` and `fqos-cluster` run on: a [`Mutex`]
//! and an [`RwLock`] whose guards come back directly (poisoning is
//! recovered, not propagated), the bounded [`channel`], `std`'s `atomic`,
//! `Arc` and `thread`, and [`LineGap`]. A thread that finds a mutex held or
//! a queue full or empty polls for up to `LINGER`, yielding, before it
//! parks: under steady load nobody parks and nobody pays for a wake-up
//! (DESIGN.md, "The hand-off has one speed").
//!
//! Under `model-check` every name but `LineGap` is the `interleave` model
//! checker's instrumented twin, with its `model_with`, `Config` and
//! `Report`, so the engine is schedule-explored unmodified: the checked
//! code and the shipped code are the same code. The one deliberate
//! exception is `fqos-server`'s `metrics.rs`, which stays on `std` atomics:
//! its counters are write-only leaves that never feed back into control
//! flow, so instrumenting them would multiply the schedule space without
//! adding any observable interleaving (DESIGN.md, "Concurrency
//! invariants"). The conservation-law terms in `ledger.rs` *are*
//! instrumented.

#[cfg(not(feature = "model-check"))]
pub mod channel;
#[cfg(not(feature = "model-check"))]
mod lock;

#[cfg(not(feature = "model-check"))]
pub use lock::{Mutex, MutexGuard, RwLock};
#[cfg(not(feature = "model-check"))]
pub use std::sync::{atomic, Arc};
#[cfg(not(feature = "model-check"))]
pub use std::thread;

#[cfg(feature = "model-check")]
pub use interleave::sync::{atomic, Arc, Mutex, MutexGuard, RwLock};
#[cfg(feature = "model-check")]
pub use interleave::{channel, model_with, thread, Config, Report};

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
