//! The metric catalog: every number the benchmark reports, by name, with
//! its unit, which way is better, and — for end-to-end metrics — the share
//! of the parent's median by which it may get worse before a change counts
//! as a regression. `BENCHMARK.json` is generated from this table
//! (`manifest` subcommand) and a test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound as a share of the parent's median; `0.0` for
    /// per-layer metrics, which have none.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Higher, 0.0)
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Lower, 0.0)
}

/// What a user of the system sees. Host clock unless the name starts with
/// `sim_` or ends in `_pct` (simulated clock). See the README for each
/// definition.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("throughput_rps", "req/s", Better::Higher, 0.25),
    e2e("sim_resp_mean_us", "us", Better::Lower, 0.08),
    e2e("deadline_met_pct", "%", Better::Higher, 0.05),
    e2e("undelayed_pct", "%", Better::Higher, 0.02),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
];

/// One layer each, reported by the `--trace 1` run only. Zero where the
/// workload does not exercise the layer — the smoke test checks that
/// separation.
pub const PER_LAYER: &[MetricDef] = &[
    // Simulated-clock figures that can be 0 or read the same on every run,
    // which the end-to-end contract does not allow.
    lo("sim.resp_p99_us", "us"),
    lo("sim.resp_max_us", "us"),
    lo("sim.delayed_pct", "%"),
    lo("sim.failed_pct", "%"),
    hi("sim.latency_samples", "count"),
    lo("decluster.replicas_ns", "ns"),
    lo("decluster.pk_table_ms", "ms"),
    lo("maxflow.try_add_ok_ns", "ns"),
    lo("maxflow.try_add_full_ns", "ns"),
    lo("maxflow.try_add_full_pct", "%"),
    lo("core.would_admit_ns", "ns"),
    lo("core.mapping_advance_ms", "ms"),
    lo("core.mapping_bucket_for_ns", "ns"),
    lo("core.online_run_ns_per_req", "ns"),
    lo("fim.mine_ms_per_interval", "ms"),
    hi("fim.pairs_per_interval", "count"),
    hi("fim.matched_pct", "%"),
    lo("flashsim.ssd_submit_ns", "ns"),
    lo("flashsim.ftl_write_ns", "ns"),
    lo("flashsim.ftl.write_amp", "ratio"),
    lo("flashsim.ftl.erases", "count"),
    lo("flashsim.ftl.relocated_pages", "count"),
    lo("flashsim.array_ns_per_req", "ns"),
    lo("traces.generate_ms", "ms"),
    lo("server.registry.get_ns", "ns"),
    lo("server.registry.register_us", "us"),
    lo("server.fault.observe_ns", "ns"),
    lo("server.fault.mask_ns", "ns"),
    lo("server.fault.hedges_issued", "count"),
    hi("server.fault.hedges_won", "count"),
    hi("server.fault.hedge_win_pct", "%"),
    lo("server.fault.retries", "count"),
    lo("server.fault.slow_detected", "count"),
    lo("server.metrics.hist_record_ns", "ns"),
    lo("server.metrics.snapshot_us", "us"),
    lo("server.engine.new_ms", "ms"),
    lo("server.engine.submit_mean_ns", "ns"),
    lo("server.engine.submit_p50_ns", "ns"),
    lo("server.engine.submit_p99_ns", "ns"),
    lo("server.engine.submit_p999_ns", "ns"),
    lo("server.engine.submit_max_us", "us"),
    lo("server.engine.submit_slow_pct", "%"),
    lo("server.engine.finish_ms", "ms"),
    hi("server.engine.windows_sealed", "count"),
    hi("server.engine.max_window_total", "count"),
    lo("server.engine.layer_sum_ns", "ns"),
    lo("server.engine.sync_gap_ns", "ns"),
    lo("server.engine.flow_minus_eft_ns", "ns"),
    lo("server.window.delayed", "count"),
    lo("server.window.delay_windows_mean", "count"),
    lo("server.window.overflow", "count"),
    lo("server.window.rejected_horizon", "count"),
    lo("server.window.rejected_unavailable", "count"),
    lo("server.wal.records_per_admit", "ratio"),
    lo("server.wal.fsyncs_per_window", "ratio"),
    lo("server.wal.bytes_per_admit", "B"),
    lo("server.wal.compactions", "count"),
    lo("server.wal.io_errors", "count"),
    lo("server.wal.submit_overhead_ns", "ns"),
    lo("server.wal.disk_submit_ns", "ns"),
    lo("server.wal.recover_ms", "ms"),
    lo("server.wal.replay_records", "count"),
    lo("server.wal.replay_ns_per_record", "ns"),
    lo("cluster.router.route_ns", "ns"),
    lo("cluster.router.assign_us", "us"),
    lo("cluster.submit_overhead_ns", "ns"),
    lo("cluster.control_tick_us", "us"),
    lo("cluster.rebalances", "count"),
    lo("cluster.util_spread", "ratio"),
    lo("cluster.prom.render_us", "us"),
    lo("bench.trace_overhead_pct", "%"),
    lo("bench.gen_ns_per_req", "ns"),
    hi("bench.segments", "count"),
    lo("bench.segment_iqr_pct", "%"),
];

/// Ordered `name → value` set checked against one catalog table.
#[derive(Debug, Clone)]
pub struct Metrics {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Metrics {
            defs,
            values: vec![None; defs.len()],
        }
    }

    /// Panics on a name outside the catalog: a metric nobody declared is a
    /// bug in the benchmark, not a result.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        self.values[i] = Some(value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        let i = self.defs.iter().position(|d| d.name == name)?;
        self.values[i]
    }

    /// Every metric of the table in catalog order; unset ones read 0 (the
    /// workload does not exercise that layer).
    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs
            .iter()
            .zip(&self.values)
            .map(|(d, v)| (d, v.unwrap_or(0.0)))
    }

    pub fn unset(&self) -> Vec<&'static str> {
        self.defs
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| v.is_none())
            .map(|(d, _)| d.name)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_meet_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(d.name), "{}", d.name);
            assert!(ok_unit(d.unit), "{} unit {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} listed twice", d.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for d in END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{}", d.name);
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    #[test]
    #[should_panic(expected = "not in the catalog")]
    fn unknown_metric_is_refused() {
        Metrics::new(END_TO_END).set("made_up", 1.0);
    }
}
