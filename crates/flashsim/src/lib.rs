//! Flash array simulator — the repo's substitute for
//! DiskSim 4.0 + the Microsoft Research SSD extension used by the paper.
//!
//! The paper's experiments depend on exactly one calibrated fact: *"a single
//! read request (one block = 8 KB) takes 0.132507 milliseconds"* on a flash
//! module, and requests queue FCFS per device. [`CalibratedSsd`] reproduces
//! that model bit-for-bit ([`time::BLOCK_READ_NS`]). For sensitivity studies
//! the crate also ships [`flash::FlashModule`], a page-level model with
//! dies, planes, a shared channel and a page-mapped FTL with greedy garbage
//! collection (latency defaults from Agrawal et al., USENIX ATC'08 — the
//! same parameter source the MSR extension uses).
//!
//! # Architecture
//!
//! * [`time`] — nanosecond-resolution simulated clock.
//! * [`request`] — I/O requests and completions (I/O *driver* response time,
//!   the metric of Table III).
//! * [`device`] — the [`device::Device`] trait + [`CalibratedSsd`].
//! * [`flash`] — the page-level flash module model.
//! * [`ftl`] — page-mapped flash translation layer with GC.
//! * [`hdd`] — a mechanical disk model (seek + rotation), demonstrating
//!   §II-A's point that HDD arrays cannot hold deterministic guarantees.
//! * [`array`](mod@array) — an array of `N` devices behind a controller.
//! * [`stats`] — streaming response-time statistics (avg/std/max, exactly
//!   the columns of Table III) and per-interval aggregation.
//!
//! # Example
//!
//! ```
//! use fqos_flashsim::{FlashArray, IoRequest, BLOCK_READ_NS};
//!
//! let mut array = FlashArray::calibrated(9);
//! // Two reads on different devices at t = 0: both finish in one read time.
//! let c0 = array.submit(&IoRequest::read_block(0, 0, 0, 42), 0);
//! let c1 = array.submit(&IoRequest::read_block(1, 0, 3, 43), 0);
//! assert_eq!(c0.response_time(), BLOCK_READ_NS);
//! assert_eq!(c1.response_time(), BLOCK_READ_NS);
//! // A second read on the same device queues behind the first.
//! let c2 = array.submit(&IoRequest::read_block(2, 0, 0, 44), 0);
//! assert_eq!(c2.response_time(), 2 * BLOCK_READ_NS);
//! ```

pub mod array;
pub mod device;
pub mod flash;
pub mod ftl;
pub mod hdd;
pub mod request;
pub mod stats;
pub mod time;

pub use array::{FlashArray, SimulationResult};
pub use device::{CalibratedSsd, Device, GcStats};
pub use flash::{FlashConfig, FlashModule};
pub use ftl::{FtlGeometry, GeometryError, PageMappedFtl, WriteOutcome};
pub use hdd::{HardDisk, HddConfig};
pub use request::{Completion, IoOp, IoRequest, RequestId};
pub use stats::{IntervalStats, ResponseStats, ResponseSummary};
pub use time::{Duration, SimTime, BLOCK_READ_NS, BLOCK_SIZE_BYTES};
