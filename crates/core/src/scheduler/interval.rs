//! The interval-aligned design-theoretic scheduler (§III-C).
//!
//! Requests arriving *within* a window are aligned to the next window
//! boundary; requests arriving exactly at a boundary are scheduled there
//! (the paper's synthetic workloads place all requests at interval starts,
//! so Table III sees no alignment delay — Fig. 12 measures it on the real
//! workloads). At each boundary the batch is scheduled with the hybrid
//! retrieval (design-theoretic heuristic, max-flow fallback) and submitted
//! to the array; per-device FCFS executes the `M` access rounds.
//!
//! Admission caps each batch at the config's
//! [`request_limit`](QosConfig::request_limit), so a baseline layout in the
//! config is served within its own exact limit. The Table III baselines
//! *without* QoS machinery run through
//! [`run_scheme_greedy`](crate::baseline::run_scheme_greedy).

use crate::admission::StatisticalCounters;
use crate::config::QosConfig;
use crate::mapping::BlockMapping;
use crate::report::QosReport;
use fqos_decluster::retrieval::hybrid_retrieval;
use fqos_decluster::sampling::OptimalRetrievalProbabilities;
use fqos_flashsim::{CalibratedSsd, FlashArray, IoRequest, SimTime};
use fqos_traces::Trace;
use std::collections::VecDeque;
use std::sync::Arc;

/// The interval-aligned scheduler.
#[derive(Debug, Clone)]
pub struct IntervalQos {
    config: QosConfig,
    /// `P_k` table for statistical admission (ε > 0): the scheme's shared
    /// one, sampled once per process.
    p_k: Option<Arc<OptimalRetrievalProbabilities>>,
}

#[derive(Debug, Clone)]
struct Pending {
    arrival: SimTime,
    interval_idx: usize,
    bucket: usize,
}

impl IntervalQos {
    /// Scheduler with admission control (the paper's QoS configuration).
    /// With `ε > 0` this is the original §III-B statistical QoS: a batch
    /// larger than `S(M)` is admitted whole while `Q < ε`.
    pub fn new(config: QosConfig) -> Self {
        config.validate().expect("invalid QoS configuration");
        let p_k = (config.epsilon > 0.0).then(|| {
            let k_max = config.scheme.num_buckets().min(4 * config.request_limit());
            config
                .scheme
                .retrieval_probabilities(k_max, 20_000, 0xF19u64)
        });
        IntervalQos { config, p_k }
    }

    /// Run a trace through the scheduler with the given block mapping.
    pub fn run(&self, trace: &Trace, mapping: &mut BlockMapping) -> QosReport {
        let cfg = &self.config;
        let scheme = &cfg.scheme;
        let t_win = cfg.interval_ns;
        let devices = scheme.devices();
        let limit = cfg.request_limit();
        let mut array = FlashArray::new(
            (0..devices)
                .map(|_| CalibratedSsd::with_latencies(cfg.service_ns, cfg.service_ns))
                .collect::<Vec<_>>(),
        );
        let mut report = QosReport::new(
            format!("interval {} (admission)", scheme.name()),
            trace.num_intervals(),
        );

        // Note: Reject is only meaningful online; the interval scheduler
        // always drains by delaying to later boundaries.
        let mut pending: VecDeque<Pending> = VecDeque::new();
        let mut boundary: SimTime = 0;
        let mut counters = StatisticalCounters::new();

        // Schedule one batch at `boundary`: the FCFS prefix of pending
        // requests that have already arrived. Simultaneous requests for the
        // same bucket coalesce into one read (the `S(M)` guarantee is about
        // distinct buckets), and admission caps the number of *distinct*
        // buckets per batch — or, with ε > 0, admits a larger batch while
        // the estimated violation probability `Q` stays below ε (§III-B2).
        let flush = |boundary: SimTime,
                     pending: &mut VecDeque<Pending>,
                     array: &mut FlashArray<CalibratedSsd>,
                     report: &mut QosReport,
                     counters: &mut StatisticalCounters| {
            let arrived = pending.iter().take_while(|p| p.arrival <= boundary).count();
            if arrived == 0 {
                return;
            }
            // Statistical admission: may the whole arrived batch in?
            let arrived_distinct = {
                let mut seen: Vec<usize> = Vec::new();
                for p in pending.iter().take(arrived) {
                    if !seen.contains(&p.bucket) {
                        seen.push(p.bucket);
                    }
                }
                seen.len()
            };
            let stat_admit = match &self.p_k {
                Some(p) if arrived_distinct > limit => {
                    counters.would_admit(arrived_distinct, p, cfg.epsilon)
                }
                _ => false,
            };
            // FCFS prefix covering at most `limit` distinct buckets (or all
            // of them under statistical admission).
            let cap = if stat_admit { arrived_distinct } else { limit };
            let mut distinct: Vec<usize> = Vec::new(); // buckets, first-seen order
            let mut take = 0;
            for p in pending.iter().take(arrived) {
                if !distinct.contains(&p.bucket) {
                    if distinct.len() == cap {
                        break;
                    }
                    distinct.push(p.bucket);
                }
                take += 1;
            }
            if self.p_k.is_some() && !distinct.is_empty() {
                counters.record_interval(distinct.len());
            }
            let batch: Vec<Pending> = pending.drain(..take).collect();
            let replica_refs: Vec<&[usize]> =
                distinct.iter().map(|&b| scheme.replicas(b)).collect();
            let (schedule, _) = hybrid_retrieval(&replica_refs, devices);
            // One read per distinct bucket; every coalesced request of that
            // bucket completes with it.
            let finish_of: Vec<SimTime> = distinct
                .iter()
                .zip(&schedule.assignment)
                .map(|(&bucket, &device)| {
                    let req = IoRequest::read_block(bucket as u64, boundary, device, bucket as u64);
                    array.submit(&req, boundary).finish
                })
                .collect();
            for p in &batch {
                let read = distinct.iter().position(|&b| b == p.bucket);
                let finish = finish_of[read.expect("a batched request's bucket is read")];
                report.record(p.interval_idx, finish - boundary, boundary - p.arrival);
            }
        };

        mapping.drive(trace, &mut report, |interval, records, column, report| {
            for (r, &bucket) in records.iter().zip(column) {
                // Flush every boundary strictly before this arrival; an
                // arrival exactly at a boundary joins that boundary's batch.
                while boundary < r.arrival_ns {
                    flush(boundary, &mut pending, &mut array, report, &mut counters);
                    boundary += t_win;
                }
                pending.push_back(Pending {
                    arrival: r.arrival_ns,
                    interval_idx: interval,
                    bucket,
                });
            }
        });
        // Drain the tail.
        while !pending.is_empty() {
            flush(
                boundary,
                &mut pending,
                &mut array,
                &mut report,
                &mut counters,
            );
            boundary += t_win;
        }
        report
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
    fn boundary_arrivals_have_no_alignment_delay() {
        // The Table III pattern: requests at window starts.
        let trace = Trace::new(
            "t",
            (0..5).map(|i| rec(0, i)).collect(),
            9,
            BASE_INTERVAL_NS,
        );
        let q = IntervalQos::new(QosConfig::paper_9_3_1());
        let report = q.run(&trace, &mut modulo_mapping());
        assert_eq!(report.completed(), 5);
        assert_eq!(report.delayed_pct(), 0.0);
        assert_eq!(report.total_response.max_ns(), BLOCK_READ_NS);
    }

    #[test]
    fn mid_window_arrivals_align_to_next_boundary() {
        let trace = Trace::new("t", vec![rec(BASE_INTERVAL_NS / 2, 0)], 9, BASE_INTERVAL_NS);
        let q = IntervalQos::new(QosConfig::paper_9_3_1());
        let report = q.run(&trace, &mut modulo_mapping());
        assert_eq!(report.completed(), 1);
        // Aligned to the next boundary: delayed by T/2.
        let delayed: u64 = report.intervals.delayed.iter().sum();
        assert_eq!(delayed, 1);
        let delay_ms = report.avg_delay_ms();
        assert!((delay_ms - 0.0665).abs() < 1e-6, "{delay_ms}");
    }

    #[test]
    fn admission_splits_oversized_batches() {
        // 8 distinct buckets at one boundary with S(1) = 5: 5 now, 3 next.
        let trace = Trace::new(
            "t",
            (0..8).map(|i| rec(0, i)).collect(),
            9,
            BASE_INTERVAL_NS,
        );
        let q = IntervalQos::new(QosConfig::paper_9_3_1());
        let report = q.run(&trace, &mut modulo_mapping());
        assert_eq!(report.completed(), 8);
        let delayed: u64 = report.intervals.delayed.iter().sum();
        assert_eq!(delayed, 3);
        assert_eq!(report.total_response.max_ns(), BLOCK_READ_NS);
    }

    #[test]
    fn two_access_configuration_fits_interval() {
        // M = 2: 14 requests in 0.266 ms; max response ≤ 2 reads.
        let trace = Trace::new(
            "t",
            (0..14).map(|i| rec(0, i)).collect(),
            9,
            2 * BASE_INTERVAL_NS,
        );
        let q = IntervalQos::new(QosConfig::paper_9_3_1().with_accesses(2));
        let report = q.run(&trace, &mut modulo_mapping());
        assert_eq!(report.completed(), 14);
        assert_eq!(report.delayed_pct(), 0.0);
        assert!(report.total_response.max_ns() <= 2 * BLOCK_READ_NS);
        assert!(report.total_response.max_ns() <= 2 * BASE_INTERVAL_NS);
    }

    #[test]
    fn statistical_interval_admission_admits_oversized_batches() {
        // 8 distinct buckets per boundary: deterministic splits 5 + 3;
        // ε = 0.9 admits all 8 at once (P_8 ≈ 0.94 keeps Q < ε), so no
        // request is delayed, at the cost of occasionally needing a second
        // access within the interval.
        let mut records = Vec::new();
        for w in 0..20u64 {
            for i in 0..8u64 {
                records.push(rec(w * BASE_INTERVAL_NS, (w * 5 + i * 3) % 36));
            }
        }
        let trace = Trace::new("t", records, 9, 10 * BASE_INTERVAL_NS);

        let det = IntervalQos::new(QosConfig::paper_9_3_1());
        let det_report = det.run(&trace, &mut modulo_mapping());
        assert!(det_report.delayed_pct() > 0.0);

        let stat = IntervalQos::new(QosConfig::paper_9_3_1().with_epsilon(0.9));
        let stat_report = stat.run(&trace, &mut modulo_mapping());
        assert_eq!(
            stat_report.delayed_pct(),
            0.0,
            "ε = 0.9 should admit whole batches"
        );
        assert_eq!(stat_report.completed(), det_report.completed());
        // The accepted risk: responses may exceed one access, but stay
        // within two (8 buckets never need more).
        assert!(stat_report.total_response.max_ns() <= 2 * BLOCK_READ_NS);
    }

    #[test]
    fn mirrored_layout_keeps_its_deadline_within_its_own_limit() {
        use fqos_decluster::AllocationScheme;
        // 27 random distinct buckets per window: unchecked, some windows
        // overload one mirror group (> 3·M buckets on 3 devices), blowing
        // the deadline. Admission at the layout's exact limit, b*(3) = 9,
        // keeps every read within the window and delays the rest.
        let mut records = Vec::new();
        let mut state = 0x5EEDu64;
        for w in 0..50u64 {
            let mut pool: Vec<u64> = (0..36).collect();
            for i in 0..27usize {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let j = i + (state >> 33) as usize % (pool.len() - i);
                pool.swap(i, j);
                records.push(rec(w * 3 * BASE_INTERVAL_NS, pool[i]));
            }
        }
        let trace = Trace::new("t", records, 9, 3 * BASE_INTERVAL_NS);
        let cfg = QosConfig {
            scheme: AllocationScheme::mirrored(9, 3, 36),
            ..QosConfig::paper_9_3_1().with_accesses(3)
        };
        let report = IntervalQos::new(cfg).run(&trace, &mut modulo_mapping());
        assert_eq!(report.completed(), 27 * 50);
        assert!(report.delayed_pct() > 0.0);
        assert!(
            report.total_response.max_ns() <= 3 * BLOCK_READ_NS,
            "max = {} ns",
            report.total_response.max_ns()
        );
    }
}
