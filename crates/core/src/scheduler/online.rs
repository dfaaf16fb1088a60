//! The online QoS scheduler (§IV-B).
//!
//! Requests are served on arrival, FCFS. A request is served *immediately*
//! iff one of its replicas is idle and still has start budget in the
//! current window — then its response time is exactly the device service
//! time, which is what lets the deterministic mode report a flat
//! 0.132507 ms line in Fig. 8/9. Otherwise:
//!
//! * **statistical mode** (`ε > 0`): if admitting this request keeps the
//!   estimated violation probability `Q < ε`, it is served right away on
//!   the earliest-finishing replica (queueing — its response exceeds the
//!   guarantee, which is exactly the Fig. 10 trade-off);
//! * **delay policy**: the request starts at the earliest time some replica
//!   is both free and budgeted; the shift is reported as its delay;
//! * **reject policy**: the request is dropped and counted.

use crate::admission::StatisticalCounters;
use crate::config::{OverloadPolicy, QosConfig};
use crate::mapping::BlockMapping;
use crate::report::QosReport;
use crate::scheduler::{window_of, WindowBudgets};
use fqos_decluster::sampling::OptimalRetrievalProbabilities;
use fqos_decluster::AllocationScheme;
use fqos_flashsim::{CalibratedSsd, FlashArray, IoRequest, SimTime};
use fqos_traces::Trace;
use std::sync::Arc;

/// Number of Monte-Carlo trials used to build the `P_k` table when the
/// statistical mode is enabled.
const P_K_TRIALS: usize = 20_000;

/// The online scheduler.
#[derive(Debug, Clone)]
pub struct OnlineQos {
    config: QosConfig,
    p_k: Option<Arc<OptimalRetrievalProbabilities>>,
}

impl OnlineQos {
    /// Build a scheduler; in statistical mode (`ε > 0`) it reads the
    /// scheme's `P_k` table, sampled once up front (§III-B1) and shared by
    /// every scheduler on the same layout, so an ε sweep samples it once.
    pub fn new(config: QosConfig) -> Self {
        config.validate().expect("invalid QoS configuration");
        let p_k = (config.epsilon > 0.0).then(|| {
            let k_max = config.scheme.num_buckets().min(4 * config.request_limit());
            config
                .scheme
                .retrieval_probabilities(k_max, P_K_TRIALS, 0xF19u64)
        });
        OnlineQos { config, p_k }
    }

    /// The configuration.
    pub fn config(&self) -> &QosConfig {
        &self.config
    }

    /// The `P_k` table statistical admission reads (`ε > 0` only).
    pub fn probabilities(&self) -> Option<&OptimalRetrievalProbabilities> {
        self.p_k.as_deref()
    }

    /// Run a trace through the scheduler with the given block mapping.
    pub fn run(&self, trace: &Trace, mapping: &mut BlockMapping) -> QosReport {
        let cfg = &self.config;
        let t_ival = cfg.interval_ns;
        let devices = cfg.devices();
        let mut array = FlashArray::new(
            (0..devices)
                .map(|_| CalibratedSsd::with_latencies(cfg.service_ns, cfg.service_ns))
                .collect::<Vec<_>>(),
        );
        let mut budgets = WindowBudgets::new(devices, cfg.accesses);
        let mut counters = StatisticalCounters::new();
        let mut report = QosReport::new(
            format!("online {} (ε = {})", cfg.scheme.name(), cfg.epsilon),
            trace.num_intervals(),
        );
        // Per arrival group, reused: each request's bucket, and for a group
        // of several their replica tuples.
        let mut buckets: Vec<usize> = Vec::new();
        let mut replica_refs: Vec<&[usize]> = Vec::new();

        for (interval_idx, records) in trace.intervals().enumerate() {
            // §IV-B: "the requests that come exactly at the same time are
            // retrieved together as previously" — process same-timestamp
            // groups as one batch with design-theoretic remapping; all
            // other requests are strictly FCFS.
            let mut i = 0;
            while i < records.len() {
                let t = records[i].arrival_ns;
                let mut j = i + 1;
                while j < records.len() && records[j].arrival_ns == t {
                    j += 1;
                }
                let group = &records[i..j];
                i = j;

                let w = window_of(t, t_ival);
                // Close finished windows into the statistical history.
                budgets.close_before(w, |closed| counters.record_interval(closed));

                buckets.clear();
                buckets.extend(group.iter().map(|r| mapping.bucket_for(r.lbn)));

                // Joint assignment for simultaneous arrivals (remapping).
                let joint: Option<Vec<usize>> = if group.len() > 1 {
                    replica_refs.clear();
                    replica_refs.extend(buckets.iter().map(|&b| cfg.scheme.replicas(b)));
                    let (schedule, _) =
                        fqos_decluster::retrieval::hybrid_retrieval(&replica_refs, devices);
                    Some(schedule.assignment)
                } else {
                    None
                };

                for (g_idx, r) in group.iter().enumerate() {
                    let replicas = cfg.scheme.replicas(buckets[g_idx]);

                    // Writes must update every replica: they start when all
                    // `c` devices are simultaneously free and budgeted, and
                    // complete after one service time on each.
                    if r.op == fqos_flashsim::IoOp::Write {
                        let start = self.earliest_joint_start(&array, &budgets, replicas, t);
                        if start > t && cfg.policy == OverloadPolicy::Reject {
                            report.rejected += 1;
                            continue;
                        }
                        for &d in replicas {
                            let mut req = IoRequest::read_block(r.lbn, t, d, r.lbn);
                            req.op = fqos_flashsim::IoOp::Write;
                            req.arrival = start;
                            array.submit(&req, start);
                            budgets.record_start(window_of(start, t_ival), d);
                        }
                        report.record(interval_idx, cfg.service_ns, start - t);
                        continue;
                    }

                    // Prefer the batch's remapped device when it can start
                    // immediately; otherwise fall back per-request.
                    if let Some(assign) = &joint {
                        let d = assign[g_idx];
                        if budgets.remaining(w, d) > 0 && array.next_free(d, t) == t {
                            let c = array.submit(&IoRequest::read_block(r.lbn, t, d, r.lbn), t);
                            budgets.record_start(w, d);
                            report.record(interval_idx, c.response_time(), 0);
                            continue;
                        }
                    }

                    // Earliest feasible start per replica (budget + queue).
                    let (device, start) = replicas
                        .iter()
                        .map(|&d| (d, self.earliest_start(&array, &budgets, d, t)))
                        .min_by_key(|&(_, s)| s)
                        .expect("non-empty replica tuple");

                    if start == t {
                        let c = array.submit(&IoRequest::read_block(r.lbn, t, device, r.lbn), t);
                        budgets.record_start(w, device);
                        report.record(interval_idx, c.response_time(), 0);
                        continue;
                    }

                    // Statistical over-admission: a request that cannot be
                    // served optimally is a potential guarantee violation;
                    // admit it anyway (queued on the earliest-finishing
                    // replica) while the estimated violation probability Q
                    // stays below ε. The over-admission is recorded into
                    // the window's size so the N_k history drives Q toward
                    // ε — the control loop of §III-B2.
                    if cfg.epsilon > 0.0 {
                        let k = budgets.admitted(w) + 1;
                        let p = self.p_k.as_ref().expect("P_k table exists when ε > 0");
                        if counters.would_admit(k, p, cfg.epsilon) {
                            let d = *replicas
                                .iter()
                                .min_by_key(|&&d| array.next_free(d, t))
                                .unwrap();
                            let c = array.submit(&IoRequest::read_block(r.lbn, t, d, r.lbn), t);
                            budgets.record_overload(w);
                            report.record(interval_idx, c.response_time(), 0);
                            continue;
                        }
                    }

                    match cfg.policy {
                        OverloadPolicy::Delay => {
                            // Serve at the earliest feasible start; the
                            // shift is the delay, the response restarts
                            // from there.
                            let mut req = IoRequest::read_block(r.lbn, t, device, r.lbn);
                            req.arrival = start;
                            let c = array.submit(&req, start);
                            budgets.record_start(window_of(start, t_ival), device);
                            report.record(interval_idx, c.finish - start, start - t);
                        }
                        OverloadPolicy::Reject => {
                            report.rejected += 1;
                        }
                    }
                }
            }

            let (matched, mining) = mapping.advance_interval(records);
            report.matched_fraction.push(matched);
            if let Some(m) = mining {
                report.mining.push(m);
            }
        }
        report
    }

    /// Earliest time ≥ `t` at which **all** `replicas` are simultaneously
    /// free with start budget — the write path, which must touch every
    /// copy.
    fn earliest_joint_start(
        &self,
        array: &FlashArray<CalibratedSsd>,
        budgets: &WindowBudgets,
        replicas: &[usize],
        t: SimTime,
    ) -> SimTime {
        let t_ival = self.config.interval_ns;
        let mut s = replicas
            .iter()
            .map(|&d| array.next_free(d, t))
            .max()
            .expect("non-empty replica tuple");
        loop {
            let busy = replicas
                .iter()
                .map(|&d| array.next_free(d, s))
                .max()
                .unwrap();
            if busy > s {
                s = busy;
                continue;
            }
            let w = window_of(s, t_ival);
            if replicas.iter().all(|&d| budgets.remaining(w, d) > 0) {
                return s;
            }
            s = (w + 1) * t_ival;
        }
    }

    /// Earliest time ≥ `t` at which `device` is both free and has start
    /// budget remaining in the window containing that time.
    fn earliest_start(
        &self,
        array: &FlashArray<CalibratedSsd>,
        budgets: &WindowBudgets,
        device: usize,
        t: SimTime,
    ) -> SimTime {
        let t_ival = self.config.interval_ns;
        let mut s = array.next_free(device, t);
        loop {
            let w = window_of(s, t_ival);
            if budgets.remaining(w, device) > 0 {
                return s;
            }
            s = (w + 1) * t_ival;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MappingStrategy;
    use fqos_flashsim::time::BASE_INTERVAL_NS;
    use fqos_flashsim::{IoOp, BLOCK_READ_NS, BLOCK_SIZE_BYTES};
    use fqos_traces::TraceRecord;

    fn rec(t: u64, lbn: u64) -> TraceRecord {
        TraceRecord {
            arrival_ns: t,
            device: 0,
            lbn,
            size_bytes: BLOCK_SIZE_BYTES,
            op: IoOp::Read,
        }
    }

    fn modulo_mapping() -> BlockMapping {
        BlockMapping::new(MappingStrategy::Modulo, 36, BASE_INTERVAL_NS, 1)
    }

    #[test]
    fn within_limit_requests_meet_guarantee_exactly() {
        // 5 distinct buckets at one window start: all served immediately.
        let trace = Trace::new(
            "t",
            (0..5).map(|i| rec(0, i)).collect(),
            9,
            BASE_INTERVAL_NS,
        );
        let q = OnlineQos::new(QosConfig::paper_9_3_1());
        let report = q.run(&trace, &mut modulo_mapping());
        assert_eq!(report.completed(), 5);
        assert_eq!(report.delayed_pct(), 0.0);
        assert_eq!(report.total_response.max_ns(), BLOCK_READ_NS);
    }

    #[test]
    fn over_limit_requests_are_delayed_to_next_window() {
        // Buckets 0..9 at once: S(1) = 5 immediate at best; the (9,3,1)
        // design may fit up to 9 non-conflicting, but repeats must wait.
        let trace = Trace::new(
            "t",
            (0..12).map(|i| rec(0, i % 6)).collect(),
            9,
            BASE_INTERVAL_NS,
        );
        let q = OnlineQos::new(QosConfig::paper_9_3_1());
        let report = q.run(&trace, &mut modulo_mapping());
        assert_eq!(report.completed(), 12);
        assert!(report.delayed_pct() > 0.0);
        // Served requests still meet the per-request guarantee.
        assert_eq!(report.total_response.max_ns(), BLOCK_READ_NS);
        // Delays are multiples of-ish window shifts, bounded by a few T.
        assert!(report.avg_delay_ms() > 0.0);
    }

    #[test]
    fn reject_policy_drops_overload() {
        let mut cfg = QosConfig::paper_9_3_1();
        cfg.policy = OverloadPolicy::Reject;
        let trace = Trace::new(
            "t",
            (0..12).map(|i| rec(0, i % 3)).collect(),
            9,
            BASE_INTERVAL_NS,
        );
        let report = OnlineQos::new(cfg).run(&trace, &mut modulo_mapping());
        assert!(report.rejected > 0);
        assert_eq!(report.completed() + report.rejected, 12);
        assert_eq!(report.delayed_pct(), 0.0);
    }

    #[test]
    fn statistical_mode_trades_delay_for_response() {
        // A bursty window: 9 requests at once, repeatedly.
        let mut records = Vec::new();
        for w in 0..40u64 {
            for i in 0..9 {
                records.push(rec(w * BASE_INTERVAL_NS, i));
            }
        }
        let trace = Trace::new("t", records, 9, 10 * BASE_INTERVAL_NS);

        let det = OnlineQos::new(QosConfig::paper_9_3_1()).run(&trace, &mut modulo_mapping());
        let stat = OnlineQos::new(QosConfig::paper_9_3_1().with_epsilon(0.9))
            .run(&trace, &mut modulo_mapping());

        assert!(
            stat.delayed_pct() < det.delayed_pct(),
            "stat {} vs det {}",
            stat.delayed_pct(),
            det.delayed_pct()
        );
        assert!(
            stat.total_response.mean_ns() >= det.total_response.mean_ns(),
            "stat {} vs det {}",
            stat.total_response.mean_ns(),
            det.total_response.mean_ns()
        );
    }

    fn write_rec(t: u64, lbn: u64) -> TraceRecord {
        TraceRecord {
            arrival_ns: t,
            device: 0,
            lbn,
            size_bytes: BLOCK_SIZE_BYTES,
            op: IoOp::Write,
        }
    }

    #[test]
    fn writes_touch_all_replicas_and_meet_the_guarantee() {
        // A lone write at a window start: all three replicas idle, so it
        // starts immediately and costs one service time.
        let trace = Trace::new("t", vec![write_rec(0, 7)], 9, BASE_INTERVAL_NS);
        let q = OnlineQos::new(QosConfig::paper_9_3_1());
        let report = q.run(&trace, &mut modulo_mapping());
        assert_eq!(report.completed(), 1);
        assert_eq!(report.total_response.max_ns(), BLOCK_READ_NS);
        assert_eq!(report.delayed_pct(), 0.0);
    }

    #[test]
    fn write_blocks_subsequent_reads_of_its_replicas_in_the_window() {
        // The write consumes the start budget of all three replica devices;
        // a same-window read of the same bucket must be delayed (M = 1).
        let trace = Trace::new(
            "t",
            vec![write_rec(0, 7), rec(1_000, 7)],
            9,
            BASE_INTERVAL_NS,
        );
        let q = OnlineQos::new(QosConfig::paper_9_3_1());
        let report = q.run(&trace, &mut modulo_mapping());
        assert_eq!(report.completed(), 2);
        let delayed: u64 = report.intervals.delayed.iter().sum();
        assert_eq!(delayed, 1);
    }

    #[test]
    fn mixed_workload_conserves_requests() {
        let mut records = Vec::new();
        for w in 0..30u64 {
            for i in 0..4 {
                let r = if i % 2 == 0 {
                    rec(w * BASE_INTERVAL_NS, (w + i) % 36)
                } else {
                    write_rec(w * BASE_INTERVAL_NS, (w + i) % 36)
                };
                records.push(r);
            }
        }
        let trace = Trace::new("t", records, 9, 10 * BASE_INTERVAL_NS);
        let q = OnlineQos::new(QosConfig::paper_9_3_1());
        let report = q.run(&trace, &mut modulo_mapping());
        assert_eq!(report.completed(), 120);
        // Served responses still never exceed one service time.
        assert_eq!(report.total_response.max_ns(), BLOCK_READ_NS);
    }

    #[test]
    fn budget_spreads_same_bucket_across_replicas() {
        // Three simultaneous requests for one bucket: replicas allow all
        // three to start at once (3 copies), a fourth must wait.
        let trace = Trace::new(
            "t",
            (0..4).map(|_| rec(0, 7)).collect(),
            9,
            BASE_INTERVAL_NS,
        );
        let q = OnlineQos::new(QosConfig::paper_9_3_1());
        let report = q.run(&trace, &mut modulo_mapping());
        assert_eq!(report.completed(), 4);
        let delayed: u64 = report.intervals.delayed.iter().sum();
        assert_eq!(delayed, 1);
    }
}
