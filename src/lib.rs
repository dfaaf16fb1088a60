//! # flash-qos
//!
//! A from-scratch reproduction of **"Replication Based QoS Framework for
//! Flash Arrays"** (Altiparmak & Tosun, IEEE CLUSTER 2012): deterministic
//! and statistical response-time guarantees for flash storage arrays via
//! design-theoretic replicated declustering, max-flow optimal retrieval,
//! frequent-itemset block matching and online scheduling — plus every
//! substrate the paper depends on (an event-driven flash array simulator
//! standing in for DiskSim, the combinatorial design library, the RAID
//! baselines, and statistical workload models standing in for the SNIA
//! Exchange/TPC-E traces).
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`designs`] | `fqos-designs` | `(N, c, 1)` block designs, Steiner constructions, rotations, the `S(M)` guarantee algebra |
//! | [`maxflow`] | `fqos-maxflow` | the incremental matching kernel, the batch optimal-retrieval solver built on it, an Edmonds–Karp reference for tests |
//! | [`flashsim`] | `fqos-flashsim` | flash array simulator, FCFS per device (calibrated + page-level models, FTL, GC) |
//! | [`traces`] | `fqos-traces` | DiskSim ASCII traces, the synthetic generator, Exchange/TPC-E workload models |
//! | [`decluster`] | `fqos-decluster` | allocation schemes (design-theoretic, RAID-1 × 2, RDA, partitioned, periodic, orthogonal) and retrieval algorithms |
//! | [`fim`] | `fqos-fim` | Apriori pair miner and the design-block matcher |
//! | [`qos`] | `fqos-core` | admission control, online + interval schedulers, the end-to-end pipeline |
//! | [`server`] | `fqos-server` | concurrent multi-tenant serving engine: thread-safe admission, interval-aligned dispatch, worker pool, metrics |
//! | [`cluster`] | `fqos-cluster` | multi-array fleet tier: consistent-hash tenant routing, ε-budget rebalancing, cluster conservation audit, Prometheus export |
//!
//! ## Quickstart
//!
//! ```
//! use flash_qos::prelude::*;
//!
//! // A (9,3,1) flash array guaranteeing 5 block reads per 0.133 ms.
//! let config = QosConfig::paper_9_3_1();
//! assert_eq!(config.request_limit(), 5);
//!
//! // Drive it with the paper's synthetic workload (identity block
//! // mapping: the synthetic blocks are already design buckets).
//! let trace = SyntheticConfig::table3(5, config.interval_ns).generate();
//! let report = QosPipeline::new(config)
//!     .with_mapping(MappingStrategy::Modulo)
//!     .run_online(&trace);
//! assert_eq!(report.delayed_pct(), 0.0); // within S(M): nothing delayed
//! ```

pub use fqos_decluster as decluster;
pub use fqos_designs as designs;
pub use fqos_fim as fim;
pub use fqos_flashsim as flashsim;
pub use fqos_maxflow as maxflow;
pub use fqos_traces as traces;

/// The QoS framework itself (re-export of `fqos-core`).
pub use fqos_core as qos;

/// The concurrent online serving engine (re-export of `fqos-server`).
pub use fqos_server as server;

/// The multi-array fleet tier (re-export of `fqos-cluster`).
pub use fqos_cluster as cluster;

/// The most common imports in one place.
pub mod prelude {
    pub use fqos_cluster::{
        ArrayHealth, ClusterConfig, ClusterError, ClusterFaultSchedule, ClusterHandle,
        ClusterMetrics, EvacuationEvent, MetricsExporter, QosCluster, RebalanceEvent,
    };
    pub use fqos_core::{
        AppAdmission, BlockMapping, MappingStrategy, OverloadPolicy, QosConfig, QosPipeline,
        QosReport, StatisticalCounters,
    };
    pub use fqos_decluster::{
        AllocationScheme, DesignTheoretic, Raid1Chained, Raid1Mirrored, RandomDuplicate,
    };
    pub use fqos_designs::{Design, DesignCatalog, RetrievalGuarantee, RotatedDesign};
    pub use fqos_flashsim::{CalibratedSsd, FlashArray, IoRequest, BLOCK_READ_NS};
    pub use fqos_server::{
        DeviceHealth, FaultKind, FaultSchedule, FaultSpecError, FtlGeometry, GcConfig, IoOp,
        MetricsSnapshot, QosServer, RejectReason, ServerConfig, SubmitOutcome, SubmitterHandle,
    };
    pub use fqos_traces::{models, rw, BurstConfig, SyntheticConfig, Trace, TraceRecord};
}
