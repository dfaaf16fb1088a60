//! Frequent Itemset Mining and design-block matching (§IV-A).
//!
//! The storage system has far more data blocks than the design has blocks,
//! so data blocks must be matched onto design blocks. The paper's insight:
//! blocks *frequently requested together* should land on **different**
//! design blocks so they can be fetched in parallel. It mines the previous
//! interval's trace for frequent block pairs (set size 2) and assigns
//! matched blocks accordingly; everything else falls back to
//! `lbn % numDesignBlocks`.
//!
//! # Contents
//!
//! * [`transaction`] — time-window transaction extraction from traces.
//! * [`apriori`] — Apriori with low-memory pair counting (the paper uses
//!   the `fim apriori-lowmem` implementation of Rácz et al.).
//! * [`matcher`] — frequent pairs → design-block assignment.
//!
//! Every structure here is a flat array: transactions are one `Vec<u32>`
//! of item ids numbered in ascending block order by one radix-sorted
//! dictionary, co-occurrences are radix-sorted keys `a·n + b`, the pair
//! graph is compressed adjacency rows ([`mine_and_match`] builds it from
//! the miner's item ids directly) and the finished matcher is two sorted
//! arrays, which one merge turns into an interval's buckets
//! ([`BlockMatcher::buckets_into`]). The buffers are the caller's, and a
//! warm interval allocates nothing. Apriori is the one miner, as in the
//! paper; `tests/oracle` keeps a brute-force pair count and the hashed
//! matcher to check both against.
//!
//! # Example
//!
//! ```
//! use fqos_fim::{match_design_blocks, Apriori, PairMiner, TransactionDb};
//!
//! // Blocks 100 and 200 are requested together in every window.
//! let events = vec![(0u64, 100u64), (5, 200), (1000, 100), (1005, 200)];
//! let db = TransactionDb::from_timed_events(events, 133);
//! let pairs = Apriori.mine_pairs(&db, 2);
//! assert_eq!(pairs.len(), 1);
//!
//! // The matcher places them on different design blocks.
//! let matcher = match_design_blocks(&pairs, 36);
//! assert_ne!(matcher.bucket_for(100), matcher.bucket_for(200));
//! ```

pub mod apriori;
pub mod matcher;
mod radix;
pub mod transaction;

pub use apriori::Apriori;
pub use matcher::{match_design_blocks, mine_and_match, BlockMatcher};
pub use transaction::{FrequentPair, MiningReport, PairMiner, TransactionDb};
