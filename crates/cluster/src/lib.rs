//! # fqos-cluster
//!
//! The multi-array tier above [`fqos_server`]: N independent
//! [`fqos_server::QosServer`] arrays — each running the paper's §III-A
//! per-interval admission controller unchanged — composed into one fleet
//! by three pieces:
//!
//! - **Routing** ([`Router`]): consistent hashing with bounded loads maps
//!   tenant ids to arrays; placement is sticky, so topology changes and
//!   migrations move the minimum set of tenants. Handles cache routes and
//!   validate them against a cluster-wide epoch.
//! - **Control** ([`QosCluster::control_tick`]): a global loop
//!   differentiates each array's rejection/delay/overflow counters
//!   against its ε-budget and migrates the hottest tenant off a saturated
//!   array when the fleet has headroom — cooperative drain on the source,
//!   re-register on the target, router epoch bump.
//! - **Audit** ([`ClusterMetrics::conserved`]): the per-array conservation
//!   law extends across rebalances and failures — the arrays' ledgers
//!   merged, plus the admissions in transit or stranded.
//!
//! A [`MetricsExporter`] serves the fleet's metrics in Prometheus text
//! format from a background thread.
//!
//! ```
//! use fqos_cluster::{ClusterConfig, QosCluster};
//! use fqos_server::{OverloadPolicy, ServerConfig};
//! use fqos_core::QosConfig;
//!
//! let array = ServerConfig::new(QosConfig::paper_9_3_1());
//! let cluster = QosCluster::new(ClusterConfig::uniform(2, &array)).unwrap();
//! cluster.register_tenant(1, 2, OverloadPolicy::Delay).unwrap();
//! let mut h = cluster.handle();
//! assert!(h.submit(1, 42, 0).is_admitted());
//! drop(h);
//! let m = cluster.finish();
//! assert!(m.conserved());
//! assert_eq!(m.completed(), 1);
//! ```

// As in `fqos-server`: no panic path outside tests, a reason on every
// exception, and (`clippy.toml`) no std lock or wall-clock read.
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

mod cluster;
mod config;
mod ctrl;
mod error;
mod health;
mod metrics;
mod prom;
mod router;

pub use cluster::{ClusterHandle, QosCluster};
pub use config::ClusterConfig;
pub use ctrl::{EvacuationEvent, RebalanceEvent};
pub use error::ClusterError;
pub use health::{
    ArrayHealth, ClusterFaultEvent, ClusterFaultKind, ClusterFaultSchedule, ClusterFaultSpecError,
    DEFAULT_ARRAY_SLOW_FACTOR,
};
pub use metrics::ClusterMetrics;
pub use prom::{new_page, render, MetricsExporter, MetricsPage};
pub use router::{Assignment, Router};
