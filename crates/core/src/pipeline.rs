//! The end-to-end QoS pipeline: trace → block mapping → allocation →
//! admission → retrieval → flash array simulation → report.

use crate::baseline::run_original;
use crate::config::QosConfig;
use crate::mapping::{BlockMapping, MappingStrategy};
use crate::report::QosReport;
use crate::scheduler::{IntervalQos, OnlineQos};
use fqos_decluster::AllocationScheme;
use fqos_traces::Trace;

/// Default minimum support for the FIM miner (the paper's Table IV uses
/// support 1 and notes that raising it trades recall for speed/memory).
pub const DEFAULT_MIN_SUPPORT: u32 = 1;

/// Ties every piece of the framework together. One pipeline = one
/// [`QosConfig`]; each `run_*` call processes a whole trace and returns the
/// per-interval report.
#[derive(Debug, Clone)]
pub struct QosPipeline {
    config: QosConfig,
    strategy: MappingStrategy,
}

impl QosPipeline {
    /// Pipeline with the paper's defaults: FIM block mapping mined per
    /// reporting interval with support 1.
    pub fn new(config: QosConfig) -> Self {
        config.validate().expect("invalid QoS configuration");
        QosPipeline {
            config,
            strategy: MappingStrategy::Fim,
        }
    }

    /// Override the block-mapping strategy (ablations: Modulo, RoundRobin).
    pub fn with_mapping(mut self, strategy: MappingStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &QosConfig {
        &self.config
    }

    fn mapping(&self) -> BlockMapping {
        BlockMapping::new(
            self.strategy,
            self.config.scheme.num_buckets(),
            self.config.interval_ns,
            DEFAULT_MIN_SUPPORT,
        )
    }

    /// Run with the online scheduler (§IV-B) — the configuration used for
    /// Figs. 8, 9 and 10.
    pub fn run_online(&self, trace: &Trace) -> QosReport {
        let mut mapping = self.mapping();
        OnlineQos::new(self.config.clone()).run(trace, &mut mapping)
    }

    /// Run with the interval-aligned design-theoretic scheduler (§III-C) —
    /// the configuration used for Table III and the top lines of Fig. 12.
    pub fn run_interval(&self) -> IntervalRunner<'_> {
        IntervalRunner { pipeline: self }
    }

    /// Run the "original stand" baseline (top lines of Figs. 8/9).
    pub fn run_original(&self, trace: &Trace) -> QosReport {
        run_original(trace, self.config.service_ns)
    }
}

/// Builder-style access to the interval scheduler so baselines can swap the
/// allocation scheme.
#[derive(Debug, Clone, Copy)]
pub struct IntervalRunner<'a> {
    pipeline: &'a QosPipeline,
}

impl IntervalRunner<'_> {
    /// The paper's QoS configuration: design-theoretic scheme + admission.
    pub fn run(&self, trace: &Trace) -> QosReport {
        let mut mapping = self.pipeline.mapping();
        IntervalQos::new(self.pipeline.config.clone()).run(trace, &mut mapping)
    }

    /// A Table III baseline: arbitrary scheme, greedy per-request replica
    /// choice (the RAID-controller policy), no admission control.
    pub fn run_baseline<S: AllocationScheme>(&self, trace: &Trace, scheme: &S) -> QosReport {
        let mut mapping = BlockMapping::new(
            MappingStrategy::Modulo,
            scheme.num_buckets(),
            self.pipeline.config.interval_ns,
            DEFAULT_MIN_SUPPORT,
        );
        crate::baseline::run_scheme_greedy(
            trace,
            scheme,
            &mut mapping,
            self.pipeline.config.service_ns,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fqos_flashsim::time::BASE_INTERVAL_NS;
    use fqos_flashsim::BLOCK_READ_NS;
    use fqos_traces::SyntheticConfig;

    #[test]
    fn table3_shape_design_vs_mirrored() {
        // The headline Table III result in miniature: the design-theoretic
        // QoS system keeps every response within the interval, the mirrored
        // baseline does not.
        let trace = SyntheticConfig {
            blocks_per_interval: 27,
            interval_ns: 3 * BASE_INTERVAL_NS,
            total_requests: 2_000,
            block_pool: 36,
            seed: 1,
        }
        .generate();
        let pipeline = QosPipeline::new(QosConfig::paper_9_3_1().with_accesses(3))
            .with_mapping(MappingStrategy::Modulo);

        let qos = pipeline.run_interval().run(&trace);
        assert!(qos.total_response.max_ns() <= 3 * BASE_INTERVAL_NS);

        let mirrored = fqos_decluster::Raid1Mirrored::paper();
        let base = pipeline.run_interval().run_baseline(&trace, &mirrored);
        assert!(
            base.total_response.max_ns() > qos.total_response.max_ns(),
            "mirrored {} vs design {}",
            base.total_response.max_ns(),
            qos.total_response.max_ns()
        );
    }

    #[test]
    fn online_pipeline_with_fim_runs_end_to_end() {
        let trace = SyntheticConfig {
            blocks_per_interval: 5,
            interval_ns: BASE_INTERVAL_NS,
            total_requests: 500,
            block_pool: 36,
            seed: 2,
        }
        .generate();
        let report = QosPipeline::new(QosConfig::paper_9_3_1()).run_online(&trace);
        assert_eq!(report.completed(), 500);
        assert_eq!(report.total_response.max_ns(), BLOCK_READ_NS);
        assert!(!report.matched_fraction.is_empty());
    }

    #[test]
    fn original_baseline_reflects_trace_devices() {
        let trace = SyntheticConfig::table3(5, BASE_INTERVAL_NS).generate();
        // All synthetic records target device 0 → massive queueing.
        let report = QosPipeline::new(QosConfig::paper_9_3_1()).run_original(&trace);
        assert_eq!(report.completed(), 10_000);
        assert!(report.total_response.max_ns() > BASE_INTERVAL_NS);
    }
}
