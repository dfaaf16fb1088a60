//! # fqos-server — concurrent online QoS serving engine
//!
//! The rest of the workspace reproduces the paper's algorithms as
//! single-threaded library calls; this crate puts them behind a
//! thread-safe front door so many producer threads can serve a
//! multi-tenant workload online:
//!
//! ```text
//!  submitter threads        ┌──────────────────────────────┐
//!  (one handle each)   ───► │ TenantRegistry (sharded)     │  S(M) aggregate
//!                           │   └ AppAdmission (§III-A)    │  admission
//!                           ├──────────────────────────────┤
//!                           │ WindowRing (interval slots)  │  per-window
//!                           │   └ IncrementalRetrieval /   │  feasibility,
//!                           │     EFT replica selection    │  ≤ M per device
//!                           ├──────────────────────────────┤
//!                           │ dispatcher (watermark seal)  │  in-order,
//!                           │   └ bounded worker queues    │  backpressure
//!                           ├──────────────────────────────┤
//!                           │ worker pool (device % W)     │  FCFS device
//!                           │   └ CalibratedSsd models     │  service loops
//!                           └──────────────────────────────┘
//!                                        │
//!                                        ▼
//!                           MetricsSnapshot (latency histogram,
//!                           per-tenant counters, violation audit)
//! ```
//!
//! The engine's contract is the paper's per-interval guarantee, made
//! concurrent: a request admitted deterministically into window `t` is
//! serviced in `(t+1)·T .. (t+2)·T` — **never later**, under any thread
//! interleaving. See [`engine`](QosServer) for the proof sketch and the
//! watermark protocol that makes sealing race-free; with statistical
//! admission (`ε > 0`, §III-B2) overflow requests ride along without a
//! guarantee and their violations are accounted separately.

// The serving path degrades (rejects, counts, reroutes) instead of
// unwinding partway through a window; a documented invariant is an
// `assert!` or a site-level `#[expect]` with its reason. `clippy.toml`
// forbids std's locks and wall-clock reads here.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unimplemented
    )
)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod config;
mod engine;
pub mod fault;
#[cfg(test)]
mod layout;
pub mod ledger;
pub mod metrics;
pub mod registry;
pub mod wal;
mod window;

pub use config::{AssignmentMode, GcConfig, ServerConfig, WalConfig, WINDOW_RING};
pub use engine::{QosServer, RejectReason, SubmitOutcome, SubmitterHandle};
pub use fault::{
    fault_tokens, DeviceHealth, FaultEvent, FaultKind, FaultPlane, FaultSchedule, FaultSpecError,
    FaultToken, DEFAULT_SLOW_FACTOR,
};
pub use fqos_core::OverloadPolicy;
pub use fqos_flashsim::{FtlGeometry, IoOp};
pub use ledger::{AtomicLedger, Ledger, SettleKind};
pub use metrics::{LatencyHistogram, MetricsSnapshot, TenantCounters, TenantSnapshot};
pub use registry::{RegisterError, Tenant, TenantRegistry};
pub use wal::CRASH_POINTS;
