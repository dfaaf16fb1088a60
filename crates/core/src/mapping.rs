//! Data-block → bucket mapping strategies (§IV-A).

use fqos_fim::{mine_and_match, BlockMatcher, TransactionDb};
use fqos_traces::TraceRecord;

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
/// mining", §V-D).
#[derive(Debug, Clone)]
pub struct BlockMapping {
    strategy: MappingStrategy,
    num_buckets: usize,
    /// FIM window (the paper uses `T` = 0.133 ms).
    window_ns: u64,
    /// Minimum support for mining.
    min_support: u32,
    matcher: BlockMatcher,
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
    ) -> (f64, Option<fqos_fim::MiningReport>) {
        let matched = match self.strategy {
            MappingStrategy::Fim => self
                .matcher
                .matched_fraction(finished_interval.iter().map(|r| r.lbn)),
            _ => 0.0,
        };
        let report = if self.strategy == MappingStrategy::Fim {
            let db = TransactionDb::from_timed_events(
                finished_interval.iter().map(|r| (r.arrival_ns, r.lbn)),
                self.window_ns,
            );
            let (matcher, report) = mine_and_match(&db, self.min_support, self.num_buckets);
            self.matcher = matcher;
            Some(report)
        } else {
            None
        };
        (matched, report)
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
