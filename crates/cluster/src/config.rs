//! Cluster construction parameters.

use crate::error::ClusterError;
use crate::health::ClusterFaultSchedule;
use fqos_server::ServerConfig;

/// Configuration for a [`crate::QosCluster`]: one [`ServerConfig`] per
/// array, the rebalancing switch and the chaos script.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// One entry per array; each array runs the paper's §III-A controller
    /// unchanged over its own geometry.
    pub arrays: Vec<ServerConfig>,
    /// Whether the global control loop may migrate tenants.
    pub rebalance: bool,
    /// Scripted whole-array faults, applied by the control loop at the
    /// start of their tick.
    pub chaos: ClusterFaultSchedule,
}

impl ClusterConfig {
    /// Cluster over the given arrays, rebalancing on, no chaos.
    pub fn new(arrays: Vec<ServerConfig>) -> Self {
        ClusterConfig {
            arrays,
            rebalance: true,
            chaos: ClusterFaultSchedule::new(),
        }
    }

    /// `n` identical arrays.
    pub fn uniform(n: usize, array: &ServerConfig) -> Self {
        ClusterConfig::new(vec![array.clone(); n])
    }

    /// Builder: enable/disable the rebalancing control loop.
    pub fn with_rebalance(mut self, rebalance: bool) -> Self {
        self.rebalance = rebalance;
        self
    }

    /// Builder: scripted whole-array fault schedule.
    pub fn with_chaos(mut self, chaos: ClusterFaultSchedule) -> Self {
        self.chaos = chaos;
        self
    }

    /// Structural validation (per-array configs validate themselves in
    /// [`fqos_server::QosServer::new`]).
    pub fn validate(&self) -> Result<(), ClusterError> {
        if self.arrays.is_empty() {
            return Err(ClusterError::Config(
                "cluster needs at least one array".into(),
            ));
        }
        self.chaos.validate(self.arrays.len())?;
        Ok(())
    }
}
