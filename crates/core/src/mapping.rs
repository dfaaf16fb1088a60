//! Data-block → bucket mapping strategies (§IV-A).

use crate::report::QosReport;
use fqos_fim::{BlockMatcher, MiningReport, TransactionDb};
use fqos_traces::{Trace, TraceRecord};
use std::sync::mpsc::sync_channel;

/// How data blocks are mapped to design-block buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MappingStrategy {
    /// FIM matching of the previous interval's trace, modulo fallback —
    /// the paper's method.
    #[default]
    Fim,
    /// Pure modulo (`lbn % numBuckets`) — the fallback used alone.
    Modulo,
    /// Round-robin over buckets in order of first appearance — the other
    /// naive alternative the paper mentions.
    RoundRobin,
}

/// Per-interval block mapping state. Call [`BlockMapping::advance_interval`]
/// at every reporting-interval boundary with the just-finished interval's
/// records; the mapping used *within* interval `i` is mined from interval
/// `i − 1` ("we use the trace one previous than the current interval for
/// mining", §V-D). The schedulers hand the whole mapping to a helper thread
/// instead, which that rule makes exact: interval `i`'s buckets depend on
/// the trace alone, never on how it was scheduled.
#[derive(Debug, Clone)]
pub struct BlockMapping {
    strategy: MappingStrategy,
    num_buckets: usize,
    /// FIM window (the paper uses `T` = 0.133 ms).
    window_ns: u64,
    /// Minimum support for mining.
    min_support: u32,
    matcher: BlockMatcher,
    /// The interval being mined, refilled in place.
    db: TransactionDb,
    /// Round-robin state.
    rr_assign: std::collections::HashMap<u64, usize>,
    rr_next: usize,
}

impl BlockMapping {
    /// Create a mapping over `num_buckets` buckets with the given FIM
    /// window and support.
    pub fn new(
        strategy: MappingStrategy,
        num_buckets: usize,
        window_ns: u64,
        min_support: u32,
    ) -> Self {
        BlockMapping {
            strategy,
            num_buckets,
            window_ns,
            min_support,
            matcher: BlockMatcher::empty(num_buckets),
            db: TransactionDb::default(),
            rr_assign: Default::default(),
            rr_next: 0,
        }
    }

    /// Bucket for a data block under the current interval's mapping.
    pub fn bucket_for(&mut self, lbn: u64) -> usize {
        match self.strategy {
            MappingStrategy::Fim => self.matcher.bucket_for(lbn),
            MappingStrategy::Modulo => (lbn % self.num_buckets as u64) as usize,
            MappingStrategy::RoundRobin => {
                let next = &mut self.rr_next;
                let n = self.num_buckets;
                *self.rr_assign.entry(lbn).or_insert_with(|| {
                    let b = *next % n;
                    *next += 1;
                    b
                })
            }
        }
    }

    /// Finish an interval: mine its records and install the result as the
    /// next interval's matcher. Returns the fraction of the interval's
    /// requests that the *outgoing* matcher had matched (the Fig. 11
    /// metric), paired with the mining report.
    pub fn advance_interval(
        &mut self,
        finished_interval: &[TraceRecord],
    ) -> (f64, Option<MiningReport>) {
        if self.strategy != MappingStrategy::Fim {
            return (0.0, None);
        }
        let (matched, report) = self.mine_interval(finished_interval, &mut Vec::new());
        (matched, Some(report))
    }

    /// FIM: `records`' buckets under the outgoing matcher into `column`,
    /// then mine them into the next one; the matched fraction and report.
    fn mine_interval(
        &mut self,
        records: &[TraceRecord],
        column: &mut Vec<usize>,
    ) -> (f64, MiningReport) {
        let events = records.iter().map(|r| (r.arrival_ns, r.lbn));
        self.db.refill(events, self.window_ns);
        let matched = self.matcher.buckets_into(&self.db, column);
        let report = self.matcher.mine(&self.db, self.min_support);
        (matched as f64 / records.len().max(1) as f64, report)
    }

    /// Serve `trace` one reporting interval at a time: `serve(i, records,
    /// buckets, report)`, `buckets[k]` being `records[k]`'s bucket, then
    /// record what [`BlockMapping::advance_interval`] returns under FIM. A
    /// helper thread owns the mapping: it ships each interval's buckets,
    /// and mines it, while the scheduler serves an earlier one and sends
    /// served columns home. A panic on either side hangs up its channels
    /// and surfaces.
    pub(crate) fn drive<F>(&mut self, trace: &Trace, report: &mut QosReport, mut serve: F)
    where
        F: FnMut(usize, &[TraceRecord], &[usize], &mut QosReport),
    {
        std::thread::scope(|s| {
            let (next_tx, next_rx) = sync_channel(1);
            let (home_tx, home_rx) = sync_channel::<Vec<usize>>(1);
            let helper = s.spawn(move || {
                for (i, records) in trace.intervals().enumerate() {
                    // Three columns start empty (one served, one queued, one
                    // in the making), later ones are served ones; none comes
                    // once the scheduler is gone.
                    let home = (i > 2).then(|| home_rx.recv());
                    let Ok(mut column) = home.unwrap_or(Ok(Vec::new())) else {
                        return;
                    };
                    let mined = if self.strategy == MappingStrategy::Fim {
                        let (matched, mining) = self.mine_interval(records, &mut column);
                        let pairs = u32::try_from(mining.pairs_found);
                        Some((matched, pairs.expect("pair counts fit 32 bits")))
                    } else {
                        column.clear();
                        column.extend(records.iter().map(|r| self.bucket_for(r.lbn)));
                        None
                    };
                    if next_tx.send((column, mined)).is_err() {
                        return;
                    }
                }
            });
            for (i, records) in trace.intervals().enumerate() {
                let (column, mined) = next_rx.recv().expect("the mining helper panicked");
                serve(i, records, &column, report);
                if let Some((matched, pairs)) = mined {
                    report.matched_fraction.push(matched);
                    report.mining.push(pairs);
                }
                // Fails once the helper returned: done, or panicked, which
                // the next `recv` reports.
                let _ = home_tx.send(column);
            }
            // Joined here, not by the scope: only a thread that has exited
            // hands its malloc arena to the next run's helper.
            helper.join().expect("the mining helper panicked");
        });
    }

    /// The active matcher (inspection).
    pub fn matcher(&self) -> &BlockMatcher {
        &self.matcher
    }

    /// Strategy in use.
    pub fn strategy(&self) -> MappingStrategy {
        self.strategy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fqos_flashsim::IoOp;

    fn rec(t: u64, lbn: u64) -> TraceRecord {
        TraceRecord {
            arrival_ns: t,
            device: 0,
            lbn,
            size_bytes: 8192,
            op: IoOp::Read,
        }
    }

    #[test]
    fn modulo_and_round_robin() {
        let mut m = BlockMapping::new(MappingStrategy::Modulo, 36, 133_000, 1);
        assert_eq!(m.bucket_for(40), 4);

        let mut rr = BlockMapping::new(MappingStrategy::RoundRobin, 36, 133_000, 1);
        assert_eq!(rr.bucket_for(500), 0);
        assert_eq!(rr.bucket_for(700), 1);
        assert_eq!(rr.bucket_for(500), 0); // stable per block
    }

    #[test]
    fn fim_mapping_separates_co_requested_blocks() {
        let mut m = BlockMapping::new(MappingStrategy::Fim, 36, 100, 2);
        // Interval 0: blocks 100 and 200 always together. Under modulo both
        // map to bucket 100%36 = 28 and 200%36 = 20 (different here), so use
        // colliding blocks: 36 and 72 both → bucket 0 under modulo.
        let interval: Vec<TraceRecord> = (0..10)
            .flat_map(|i| [rec(i * 1000, 36), rec(i * 1000 + 1, 72)])
            .collect();
        assert_eq!(m.bucket_for(36), 0);
        assert_eq!(m.bucket_for(72), 0); // pre-mining collision
        let (matched0, report) = m.advance_interval(&interval);
        assert_eq!(matched0, 0.0); // first interval: empty matcher
        assert!(report.is_some());
        // After mining, the pair is separated.
        assert_ne!(m.bucket_for(36), m.bucket_for(72));
        // Fig. 11 metric on a repeat of the same interval: all matched.
        let (matched1, _) = m.advance_interval(&interval);
        assert_eq!(matched1, 1.0);
    }

    #[test]
    fn fim_unmatched_blocks_fall_back_to_modulo() {
        let mut m = BlockMapping::new(MappingStrategy::Fim, 36, 100, 1);
        let interval = vec![rec(0, 10), rec(1, 20)];
        m.advance_interval(&interval);
        // Block 999 never seen → modulo.
        assert_eq!(m.bucket_for(999), (999 % 36) as usize);
    }
}

/// `BlockMapping::drive` against the loop it replaced: every record looked up,
/// then `advance_interval` at the boundary, all on one thread.
#[cfg(test)]
mod drive {
    use super::*;
    use crate::baseline::run_scheme_greedy;
    use crate::config::QosConfig;
    use crate::scheduler::{IntervalQos, OnlineQos};
    use fqos_traces::models::exchange::ExchangeConfig;
    use fqos_traces::models::tpce::TpceConfig;
    use fqos_traces::models::{exchange, tpce};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// What the sequential loop leaves: per-interval matched fractions and
    /// pair counts, every record's bucket in trace order, and the mapping.
    struct Sequential {
        matched: Vec<f64>,
        pairs: Vec<u32>,
        buckets: Vec<usize>,
        mapping: BlockMapping,
    }

    fn sequential(trace: &Trace, mut mapping: BlockMapping) -> Sequential {
        let (mut matched, mut pairs, mut buckets) = (Vec::new(), Vec::new(), Vec::new());
        for records in trace.intervals() {
            buckets.extend(records.iter().map(|r| mapping.bucket_for(r.lbn)));
            if let (fraction, Some(report)) = mapping.advance_interval(records) {
                matched.push(fraction);
                pairs.push(u32::try_from(report.pairs_found).unwrap());
            }
        }
        Sequential {
            matched,
            pairs,
            buckets,
            mapping,
        }
    }

    /// The Exchange model on `(9,3,1)` and the TPC-E model on `(13,3,1)`.
    fn cases() -> [(Trace, QosConfig); 2] {
        let exchange = exchange(ExchangeConfig {
            intervals: 16,
            seed: 1,
            ..ExchangeConfig::default()
        });
        let tpce = tpce(TpceConfig {
            part_ns: 50_000_000,
            ..TpceConfig::default()
        });
        [
            (exchange.generate(), QosConfig::paper_9_3_1()),
            (tpce.generate(), QosConfig::paper_13_3_1()),
        ]
    }

    fn mapping(strategy: MappingStrategy, config: &QosConfig) -> BlockMapping {
        let buckets = config.scheme.num_buckets();
        BlockMapping::new(strategy, buckets, config.interval_ns, 1)
    }

    #[test]
    fn drive_equals_the_sequential_loop() {
        for (trace, config) in cases() {
            for strategy in [
                MappingStrategy::Fim,
                MappingStrategy::Modulo,
                MappingStrategy::RoundRobin,
            ] {
                let want = sequential(&trace, mapping(strategy, &config));
                let mut driven = mapping(strategy, &config);
                let mut report = QosReport::new("driven", trace.num_intervals());
                let mut buckets = Vec::new();
                driven.drive(&trace, &mut report, |_, records, column, _| {
                    assert_eq!(column.len(), records.len());
                    buckets.extend_from_slice(column);
                });
                assert_eq!(report.matched_fraction, want.matched, "{strategy:?}");
                assert_eq!(report.mining, want.pairs, "{strategy:?}");
                assert_eq!(buckets, want.buckets, "{strategy:?}");
                assert_eq!(driven.matcher(), want.mapping.matcher(), "{strategy:?}");
                if strategy == MappingStrategy::Fim {
                    assert!(want.pairs.iter().any(|&p| p > 0));
                    assert!(want.matched[1..].iter().any(|&f| f > 0.0));
                } else {
                    assert!(want.matched.is_empty() && want.pairs.is_empty());
                }
            }
        }
    }

    #[test]
    fn every_scheduler_mines_as_the_sequential_loop_does() {
        for (trace, config) in cases() {
            let want = sequential(&trace, mapping(MappingStrategy::Fim, &config));
            let schedulers: [&dyn Fn(&mut BlockMapping) -> QosReport; 3] = [
                &|m| OnlineQos::new(config.clone()).run(&trace, m),
                &|m| IntervalQos::new(config.clone()).run(&trace, m),
                &|m| run_scheme_greedy(&trace, &config.scheme, m, config.service_ns),
            ];
            for run in schedulers {
                let mut driven = mapping(MappingStrategy::Fim, &config);
                let report = run(&mut driven);
                assert_eq!(report.completed(), trace.len() as u64, "{}", report.name);
                assert_eq!(report.matched_fraction, want.matched, "{}", report.name);
                assert_eq!(report.mining, want.pairs, "{}", report.name);
                assert_eq!(driven.matcher(), want.mapping.matcher(), "{}", report.name);
            }
        }
    }

    #[test]
    fn a_panic_in_serve_surfaces_and_does_not_hang() {
        let [(trace, config), _] = cases();
        let mut mapping = mapping(MappingStrategy::Fim, &config);
        let mut report = QosReport::new("panics", trace.num_intervals());
        let run = catch_unwind(AssertUnwindSafe(|| {
            mapping.drive(&trace, &mut report, |i, _, _, _| {
                assert!(i < 5, "serve fails mid-trace");
            });
        }));
        assert!(run.is_err());
        assert_eq!(report.matched_fraction.len(), 5);
    }
}
