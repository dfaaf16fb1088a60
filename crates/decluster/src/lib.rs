//! Replicated declustering: allocation schemes and retrieval algorithms.
//!
//! An *allocation scheme* decides which `c` devices store each bucket's
//! replicas; a *retrieval algorithm* decides, for a set of requested
//! buckets, which replica each request is served from and therefore how many
//! parallel accesses the set costs.
//!
//! # Allocation schemes
//!
//! [`AllocationScheme`] is one shared table from bucket to replica tuple,
//! with one constructor per layout:
//!
//! * [`AllocationScheme::design`] — the paper's scheme, backed by an
//!   `(N, c, 1)` design ([`fqos_designs`]);
//!   [`paper_9_3_1`](AllocationScheme::paper_9_3_1) and
//!   [`paper_13_3_1`](AllocationScheme::paper_13_3_1) are built once per
//!   process.
//! * [`mirrored`](AllocationScheme::mirrored) /
//!   [`chained`](AllocationScheme::chained) — the two high-performance RAID
//!   baselines of Table III (Fig. 7 layouts).
//! * [`random_duplicate`](AllocationScheme::random_duplicate) — RDA
//!   (Sanders et al.), near-optimal with high probability but no
//!   deterministic guarantee.
//! * [`partitioned`](AllocationScheme::partitioned),
//!   [`periodic`](AllocationScheme::periodic),
//!   [`orthogonal`](AllocationScheme::orthogonal) — the remaining
//!   background schemes of §II-B2.
//!
//! # Retrieval algorithms
//!
//! * [`retrieval::design_theoretic_retrieval`] — the paper's `O(b)` initial
//!   mapping + remapping heuristic.
//! * [`retrieval::max_flow_retrieval`] — exact optimum via max-flow.
//! * [`retrieval::hybrid_retrieval`] — the paper's production policy: run
//!   the heuristic, fall back to max-flow only when it is non-optimal.
//! * [`retrieval::pick_online_device`] — the §IV-B online rule (idle replica
//!   first, else earliest-finish-time).
//!
//! # Sampling
//!
//! [`sampling::optimal_retrieval_probabilities`] reproduces Fig. 4: the
//! Monte-Carlo estimate of `P_k`, the probability that `k` random buckets
//! are retrievable in the optimal `⌈k/N⌉` accesses.
//!
//! # Example
//!
//! ```
//! use fqos_decluster::AllocationScheme;
//! use fqos_decluster::retrieval::hybrid_retrieval;
//!
//! let scheme = AllocationScheme::paper_9_3_1();
//! // Any 5 distinct buckets retrieve in a single parallel access.
//! let requests: Vec<&[usize]> = (0..5).map(|b| scheme.replicas(b)).collect();
//! let (schedule, used_max_flow) = hybrid_retrieval(&requests, scheme.devices());
//! assert_eq!(schedule.accesses, 1);
//! assert!(!used_max_flow); // the O(b) heuristic sufficed
//! ```

pub mod analysis;
pub mod retrieval;
pub mod sampling;
pub mod scheme;

pub use scheme::{AllocationScheme, BucketId, DeviceId};
