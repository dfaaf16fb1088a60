//! The optimal-retrieval matcher of the QoS framework, and a reference
//! max-flow to check it against.
//!
//! When the design-theoretic retrieval heuristic is non-optimal, the paper
//! (§III-C, and its refs [14,15]) finds the optimal retrieval schedule by
//! solving a maximum-flow problem over the bipartite graph
//! `source → blocks → devices → sink`, where each device edge has capacity
//! `M` (the number of accesses). A request set of `b` blocks is retrievable
//! in `M` accesses iff the max flow equals `b`. On that network max flow is
//! a bipartite b-matching, and one matcher answers it everywhere.
//!
//! # Contents
//!
//! * [`incremental`] — the matcher: a flat-array kernel that admits one
//!   request at a time along a shortest augmenting path, without a residual
//!   graph or heap allocation per call.
//! * [`retrieval`] — the batch question (the minimal `M` and a schedule
//!   reaching it) as a loop over the kernel.
//! * [`graph::FlowNetwork`] + [`edmonds_karp`] — a textbook residual graph
//!   and BFS augmentation that share no code with the kernel. Nothing
//!   outside tests calls them: they are the oracle the kernel is compared
//!   against.
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

pub mod edmonds_karp;
pub mod graph;
pub mod incremental;
pub mod retrieval;

pub use graph::FlowNetwork;
pub use incremental::IncrementalRetrieval;
pub use retrieval::{RetrievalNetwork, RetrievalSchedule};
