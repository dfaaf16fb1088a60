//! Cluster construction parameters.

use crate::error::ClusterError;
use crate::health::{ClusterFaultSchedule, ClusterHealthParams};
use fqos_server::ServerConfig;

/// Configuration for a [`crate::QosCluster`]: one [`ServerConfig`] per
/// array plus routing and control-loop knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// One entry per array; each array runs the paper's §III-A controller
    /// unchanged over its own geometry.
    pub arrays: Vec<ServerConfig>,
    /// Whether the global control loop may migrate tenants.
    pub rebalance: bool,
    /// Minimum control ticks between two rebalances (hysteresis: a
    /// migration must see its effect before the next one is considered).
    pub cooldown_ticks: u64,
    /// Array-level liveness scoring thresholds.
    pub health: ClusterHealthParams,
    /// Scripted whole-array faults, applied by the control loop at the
    /// start of their tick.
    pub chaos: ClusterFaultSchedule,
}

impl ClusterConfig {
    /// Cluster over the given arrays with default routing/control knobs.
    pub fn new(arrays: Vec<ServerConfig>) -> Self {
        ClusterConfig {
            arrays,
            rebalance: true,
            cooldown_ticks: 2,
            health: ClusterHealthParams::default(),
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

    /// Builder: rebalance hysteresis in control ticks.
    pub fn with_cooldown(mut self, cooldown_ticks: u64) -> Self {
        self.cooldown_ticks = cooldown_ticks;
        self
    }

    /// Builder: liveness scoring thresholds.
    pub fn with_health(mut self, health: ClusterHealthParams) -> Self {
        self.health = health;
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
        if self.health.dead_after == 0 || self.health.slow_after == 0 {
            return Err(ClusterError::Config(
                "health verdicts need at least one bad tick".into(),
            ));
        }
        self.chaos.validate(self.arrays.len())?;
        Ok(())
    }
}
