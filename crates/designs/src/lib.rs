//! Combinatorial block designs for replicated declustering.
//!
//! This crate implements the design-theory substrate of the replication-based
//! QoS framework of Altiparmak & Tosun (CLUSTER 2012). Data buckets are
//! replicated over the devices named by the blocks of an `(v, k, 1)` design
//! (a *Steiner system* when `λ = 1`), which yields query-shape-independent
//! worst-case retrieval guarantees: any `S(M) = (k-1)·M² + k·M` buckets can
//! be retrieved in at most `M` parallel accesses.
//!
//! # Contents
//!
//! * [`Design`] — a verified `(v, k, λ)` block design.
//! * [`steiner`] — Bose (`v ≡ 3 mod 6`) and Netto (`v ≡ 1 mod 6`, prime)
//!   constructions of Steiner triple systems.
//! * [`difference`] — development of difference families into designs.
//! * [`known`] — the paper's `(9,3,1)` design (Fig. 2) and a `(13,3,1)`
//!   design used for the TPC-E experiments.
//! * [`guarantee`] — the `S(M)` algebra and its inverse.
//! * [`catalog`] — pick a constructible design from `(N, c)` or from a QoS
//!   requirement.
//!
//! # Example
//!
//! ```
//! use fqos_designs::{known, guarantee::RetrievalGuarantee};
//!
//! let design = known::design_9_3_1();
//! design.verify().unwrap();
//! let g = RetrievalGuarantee::of(&design);
//! assert_eq!(g.buckets_in(1), 5);   // 5 buckets in 1 access
//! assert_eq!(g.buckets_in(2), 14);  // 14 buckets in 2 accesses
//! assert_eq!(g.buckets_in(3), 27);  // 27 buckets in 3 accesses
//! ```

pub mod catalog;
pub mod design;
pub mod difference;
pub mod error;
pub mod guarantee;
pub mod known;
pub mod steiner;

pub use catalog::DesignCatalog;
pub use design::{Block, BucketId, Design, DeviceId};
pub use error::DesignError;
pub use guarantee::RetrievalGuarantee;
