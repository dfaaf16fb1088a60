//! Max-flow algorithms and the optimal-retrieval network of the QoS
//! framework.
//!
//! When the design-theoretic retrieval heuristic is non-optimal, the paper
//! (§III-C, and its refs [14,15]) finds the optimal retrieval schedule by
//! solving a maximum-flow problem over the bipartite graph
//! `source → blocks → devices → sink`, where each device edge has capacity
//! `M` (the number of accesses). A request set of `b` blocks is retrievable
//! in `M` accesses iff the max flow equals `b`.
//!
//! # Contents
//!
//! * [`graph::FlowNetwork`] — residual-graph representation.
//! * [`dinic`] — Dinic's algorithm, `O(E·√V)` on unit-capacity bipartite
//!   networks (the batch production path).
//! * [`edmonds_karp`] — Edmonds–Karp BFS augmentation (cross-check baseline).
//! * [`push_relabel`] — Goldberg–Tarjan push–relabel with the gap
//!   heuristic (third independent implementation, dense-network option).
//! * [`retrieval`] — the block→device retrieval network, feasibility test,
//!   minimal-`M` search and schedule extraction.
//! * [`incremental`] — one-request-at-a-time augmentation for online use: a
//!   flat-array matching kernel that takes the path Dinic would, without a
//!   residual graph or heap allocation.
//!
//! # Example
//!
//! ```
//! use fqos_maxflow::RetrievalNetwork;
//!
//! // Three blocks, each replicated on 2 of 3 devices.
//! let requests: Vec<&[usize]> = vec![&[0, 1], &[1, 2], &[2, 0]];
//! let schedule = RetrievalNetwork::new(3).optimal_schedule(&requests);
//! assert_eq!(schedule.accesses, 1); // one access: a perfect matching exists
//! ```

pub mod dinic;
pub mod edmonds_karp;
pub mod graph;
pub mod incremental;
pub mod push_relabel;
pub mod retrieval;

pub use graph::FlowNetwork;
pub use incremental::IncrementalRetrieval;
pub use retrieval::{RetrievalNetwork, RetrievalSchedule};
