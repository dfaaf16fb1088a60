//! Synchronization facade: every concurrency primitive the engine uses,
//! behind one import point.
//!
//! By default this re-exports the production primitives (`parking_lot`
//! locks, `crossbeam` channels, `std` atomics and threads). Under the
//! `model-check` feature the same names resolve to the `interleave` model
//! checker's instrumented twins, so `engine.rs`, `window.rs`,
//! `registry.rs` and `fault.rs` can be schedule-explored unmodified — the
//! checked code and the shipped code are the same code.
//!
//! The one deliberate exception is `metrics.rs` (telemetry counters and
//! the latency histogram), which stays on `std` atomics directly: its
//! counters are write-only leaves that never feed back into control flow,
//! so instrumenting them would multiply the schedule space without adding
//! any observable interleaving (see DESIGN.md, "Concurrency invariants").
//! The conservation-law terms in `ledger.rs` *are* instrumented.

#[cfg(feature = "model-check")]
pub(crate) use interleave::channel;
#[cfg(feature = "model-check")]
pub(crate) use interleave::sync::{atomic, Arc, Mutex, MutexGuard, RwLock};
#[cfg(feature = "model-check")]
pub(crate) use interleave::thread;

#[cfg(not(feature = "model-check"))]
pub(crate) use crossbeam::channel;
#[cfg(not(feature = "model-check"))]
pub(crate) use parking_lot::{Mutex, MutexGuard, RwLock};
#[cfg(not(feature = "model-check"))]
pub(crate) use std::sync::{atomic, Arc};
#[cfg(not(feature = "model-check"))]
pub(crate) use std::thread;

/// Dead space between two groups of fields that different threads write.
/// Every field on the request path is made of 8-byte-aligned words, so
/// seven words between the last word of one group and the first of the
/// next put them 64 bytes apart: on different cache lines wherever the
/// allocator places the struct. By distance, not `repr(align)` — an
/// over-aligned type inside an `Arc` goes through `memalign` and moves the
/// heap (DESIGN.md, "One writer per line").
pub(crate) type LineGap = [u64; 7];
