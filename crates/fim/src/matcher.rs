//! Matching data blocks to design blocks from mined frequent pairs (§IV-A).
//!
//! "Matching of the design blocks to the data blocks is done by using the
//! information returned by the FIM such that the data blocks requested
//! together are mapped to the different design blocks. The data blocks that
//! are not returned by FIM … are matched to the design block number returned
//! by `dataBlockNumber % numberOfDesignBlocks`."
//!
//! Internally this is weighted graph coloring with `D` colors: blocks are
//! vertices, frequent pairs are edges weighted by support, and we greedily
//! color in descending order of incident support, picking the color that
//! minimizes conflict weight (breaking ties toward the globally least-used
//! color so buckets stay balanced). The colors are kept in sets by use
//! count, so a vertex with a conflict-free color costs its degree, not `D`.

use crate::apriori::{mine_items, Buffers};
use crate::radix::radix_sort;
use crate::transaction::{FrequentPair, MiningReport, TransactionDb};

/// A data-block → design-block assignment with modulo fallback. Two
/// matchers are equal when their assignments are; the working buffers
/// [`BlockMatcher::mine`] keeps are not compared.
#[derive(Debug, Clone)]
pub struct BlockMatcher {
    /// The matched blocks, ascending.
    blocks: Vec<u64>,
    /// `color[i]` is the design block of `blocks[i]`.
    color: Vec<u32>,
    num_design_blocks: usize,
    buffers: Buffers,
}

impl PartialEq for BlockMatcher {
    fn eq(&self, other: &Self) -> bool {
        (&self.blocks, &self.color, self.num_design_blocks)
            == (&other.blocks, &other.color, other.num_design_blocks)
    }
}

impl Eq for BlockMatcher {}

impl BlockMatcher {
    /// An empty matcher: every block falls back to modulo (the paper's
    /// behaviour for the first interval, before any history exists).
    pub fn empty(num_design_blocks: usize) -> Self {
        assert!(num_design_blocks > 0);
        BlockMatcher {
            blocks: Vec::new(),
            color: Vec::new(),
            num_design_blocks,
            buffers: Buffers::default(),
        }
    }

    /// Number of design blocks `D`.
    pub fn num_design_blocks(&self) -> usize {
        self.num_design_blocks
    }

    /// The design block (bucket) for a data block: the mined assignment if
    /// present, else `lbn % D`.
    pub fn bucket_for(&self, lbn: u64) -> usize {
        match self.blocks.binary_search(&lbn) {
            Ok(i) => self.color[i] as usize,
            Err(_) => (lbn % self.num_design_blocks as u64) as usize,
        }
    }

    /// Whether this block was matched by mining (vs. modulo fallback).
    pub fn is_matched(&self, lbn: u64) -> bool {
        self.blocks.binary_search(&lbn).is_ok()
    }

    /// Number of explicitly matched blocks.
    pub fn matched_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Fraction of the given requests whose block was matched by mining —
    /// the Fig. 11 metric when fed the *next* interval's requests.
    pub fn matched_fraction(&self, lbns: impl IntoIterator<Item = u64>) -> f64 {
        let (mut matched, mut total) = (0usize, 0usize);
        for lbn in lbns {
            (matched, total) = (matched + usize::from(self.is_matched(lbn)), total + 1);
        }
        matched as f64 / total.max(1) as f64
    }

    /// The bucket of each of `db`'s events, in the order they were given,
    /// into `column`: what [`BlockMatcher::bucket_for`] returns for its
    /// block, found by one merge of `db`'s ascending blocks with this
    /// matcher's. Returns how many of the events were matched.
    pub fn buckets_into(&self, db: &TransactionDb, column: &mut Vec<usize>) -> usize {
        const MATCHED: usize = 1 << (usize::BITS - 1);
        let events = &db.event_items;
        // Each block's bucket, flagged if matched, behind the events' slots.
        column.resize(events.len(), 0);
        let d = self.num_design_blocks as u64;
        let mut j = 0;
        for &lbn in &db.item_to_lbn {
            while self.blocks.get(j).is_some_and(|&b| b < lbn) {
                j += 1;
            }
            column.push(match self.blocks.get(j) {
                Some(&b) if b == lbn => self.color[j] as usize | MATCHED,
                _ => (lbn % d) as usize,
            });
        }
        let (buckets, of_block) = column.split_at_mut(events.len());
        let mut matched = 0;
        for (bucket, &item) in buckets.iter_mut().zip(events) {
            let b = of_block[item as usize];
            matched += b >> (usize::BITS - 1);
            *bucket = b & !MATCHED;
        }
        column.truncate(events.len());
        matched
    }

    /// Fraction of the supplied pairs whose two blocks map to *different*
    /// design blocks under this matcher — a quality diagnostic of the
    /// coloring (1.0 = every mined pair parallelizable).
    pub fn separation_quality(&self, pairs: &[FrequentPair]) -> f64 {
        if pairs.is_empty() {
            return 1.0;
        }
        let separated = pairs
            .iter()
            .filter(|p| self.bucket_for(p.a) != self.bucket_for(p.b))
            .count();
        separated as f64 / pairs.len() as f64
    }
}

/// Build a matcher from mined pairs by weighted greedy coloring.
pub fn match_design_blocks(pairs: &[FrequentPair], num_design_blocks: usize) -> BlockMatcher {
    // Vertices: the endpoints as one window's events, whose dictionary
    // numbers the distinct blocks in ascending order, so a vertex orders
    // like its LBN.
    let endpoints = pairs.iter().flat_map(|p| [(0, p.a), (0, p.b)]);
    let db = TransactionDb::from_timed_events(endpoints, 1);
    let mut matcher = BlockMatcher::empty(num_design_blocks);
    let edges = pairs.iter().zip(db.event_items.chunks_exact(2));
    let edges = edges.map(|(p, ends)| (ends[0], ends[1], p.support));
    matcher.buffers.edges.extend(edges);
    let (n, d) = (db.num_items(), num_design_blocks);
    color_into(n, d, &mut matcher.color, &mut matcher.buffers);
    matcher.blocks = db.item_to_lbn;
    matcher
}

/// [`match_design_blocks`] of [`Apriori`](crate::Apriori)'s pairs without
/// leaving the miner's item space: the graph's vertices are item ids, which
/// ascend with the blocks, so every vertex, edge, weight and tie-break is
/// the same and so is the matcher. The report covers the miner alone.
pub fn mine_and_match(
    db: &TransactionDb,
    min_support: u32,
    num_design_blocks: usize,
) -> (BlockMatcher, MiningReport) {
    let mut matcher = BlockMatcher::empty(num_design_blocks);
    let report = matcher.mine(db, min_support);
    (matcher, report)
}

impl BlockMatcher {
    /// Become [`mine_and_match`]'s matcher for `db`, keeping this one's
    /// buffers: a matcher mined into again allocates nothing once they are
    /// as large as an interval needs.
    pub fn mine(&mut self, db: &TransactionDb, min_support: u32) -> MiningReport {
        let report = mine_items(db, min_support, &mut self.buffers);
        let d = self.num_design_blocks;
        // An item in no pair is left uncolored, and is no matched block.
        color_into(db.num_items(), d, &mut self.color, &mut self.buffers);
        let colored = |&c: &u32| (c as usize) < d;
        self.blocks.clear();
        for (item, _) in (0..).zip(&self.color).filter(|(_, c)| colored(c)) {
            self.blocks.push(db.lbn_of(item));
        }
        self.color.retain(colored);
        report
    }
}

/// Greedy weighted coloring with `d` colors of the graph on `0..n` with
/// edges `buffers.edges`: vertices with an edge by descending incident
/// support, ties toward the smaller; each takes the color minimizing
/// `(conflict, use, color)`, conflict being the support to neighbours of
/// that color, written to `color`. A vertex without an edge is left `d`.
fn color_into(n: usize, d: usize, color: &mut Vec<u32>, buffers: &mut Buffers) {
    assert!(d > 0);
    let uncolored = u32::try_from(d).expect("design blocks fit 32 bits");
    let Buffers {
        edges,
        row,
        adj,
        weight,
        order,
        sorted,
        levels,
        color_use,
        held,
        conflict,
        ..
    } = buffers;

    // Adjacency in compressed rows: the neighbours of `v`, with the pair's
    // support, are `adj[row[v]..row[v + 1]]`; `weight[v]` sums the supports.
    // `row[v + 1]` starts as `v`'s first slot and is its cursor while the
    // rows are filled, which leaves it at `v`'s end.
    row.clear();
    row.resize(n + 2, 0);
    for &(a, b, _) in edges.iter() {
        row[a as usize + 2] += 1;
        row[b as usize + 2] += 1;
    }
    for v in 2..row.len() {
        row[v] += row[v - 1];
    }
    adj.resize(2 * edges.len(), (0, 0));
    weight.clear();
    weight.resize(n, 0);
    for &(a, b, support) in edges.iter() {
        for (v, nbr) in [(a as usize, b), (b as usize, a)] {
            adj[row[v + 1]] = (nbr, support);
            row[v + 1] += 1;
            weight[v] += u64::from(support);
        }
    }

    // Heaviest vertex first, ties toward the smaller one: a stable sort of
    // the ascending vertices on the complemented weight.
    order.clear();
    order.extend((0..n).filter(|&v| row[v] < row[v + 1]));
    radix_sort(order, sorted, |&v| !weight[v]);

    // `levels[u * words..][..words]` is the set of colors used `u` times;
    // the levels below `low` are empty.
    let words = d.div_ceil(64);
    levels.clear();
    levels.resize(words, u64::MAX);
    levels[words - 1] >>= words * 64 - d;
    let mut low = 0;
    color_use.clear();
    color_use.resize(d, 0);
    // The colors some neighbour of the vertex holds by a pair of support > 0,
    // and for the fallback their weights (slot `d` takes uncolored ones).
    held.clear();
    held.resize(words, 0);
    conflict.resize(d + 1, 0);
    color.clear();
    color.resize(n, uncolored);
    for &v in order.iter() {
        let neighbours = &adj[row[v]..row[v + 1]];
        for &(nbr, support) in neighbours {
            let c = color[nbr as usize] as usize;
            if c < d && support > 0 {
                held[c / 64] |= 1 << (c % 64);
            }
        }
        let best = if held.iter().map(|h| h.count_ones() as usize).sum::<usize>() < d {
            // A color without conflict exists: the least used one, lowest
            // first, is the argmin.
            levels[low * words..]
                .chunks_exact(words)
                .find_map(|level| {
                    let free = level.iter().zip(&*held).map(|(&l, &h)| l & !h);
                    let (w, bits) = free.enumerate().find(|&(_, bits)| bits != 0)?;
                    Some(w * 64 + bits.trailing_zeros() as usize)
                })
                .expect("a color no neighbour holds is in some level")
        } else {
            // Every color conflicts: weigh them all.
            conflict.fill(0);
            for &(nbr, support) in neighbours {
                conflict[color[nbr as usize] as usize] += u64::from(support);
            }
            (0..d)
                .min_by_key(|&c| (conflict[c], color_use[c], c))
                .expect("at least one design block")
        };
        held.fill(0);

        // `best` moves up one level.
        let (u, bit) = (color_use[best], 1u64 << (best % 64));
        color_use[best] += 1;
        if levels.len() < (u + 2) * words {
            levels.resize((u + 2) * words, 0);
        }
        levels[u * words + best / 64] &= !bit;
        levels[(u + 1) * words + best / 64] |= bit;
        if u == low && levels[u * words..][..words].iter().all(|&l| l == 0) {
            low += 1;
        }
        color[v] = best as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(a: u64, b: u64, support: u32) -> FrequentPair {
        FrequentPair {
            a: a.min(b),
            b: a.max(b),
            support,
        }
    }

    #[test]
    fn empty_matcher_is_modulo() {
        let m = BlockMatcher::empty(36);
        assert_eq!(m.bucket_for(0), 0);
        assert_eq!(m.bucket_for(37), 1);
        assert!(!m.is_matched(0));
        assert_eq!(m.matched_fraction(vec![1, 2, 3]), 0.0);
    }

    #[test]
    fn paired_blocks_get_different_design_blocks() {
        let pairs = vec![pair(10, 20, 5), pair(10, 30, 3), pair(20, 30, 2)];
        let m = match_design_blocks(&pairs, 36);
        assert_eq!(m.matched_blocks(), 3);
        assert_ne!(m.bucket_for(10), m.bucket_for(20));
        assert_ne!(m.bucket_for(10), m.bucket_for(30));
        assert_ne!(m.bucket_for(20), m.bucket_for(30));
        assert_eq!(m.separation_quality(&pairs), 1.0);
    }

    #[test]
    fn over_constrained_graph_minimizes_heavy_conflicts() {
        // 4 mutually-paired blocks but only 2 design blocks: some conflict
        // is unavoidable; the heaviest pairs must be separated.
        let pairs = vec![
            pair(1, 2, 100),
            pair(3, 4, 90),
            pair(1, 3, 1),
            pair(2, 4, 1),
            pair(1, 4, 1),
            pair(2, 3, 1),
        ];
        let m = match_design_blocks(&pairs, 2);
        assert_ne!(
            m.bucket_for(1),
            m.bucket_for(2),
            "heaviest pair must separate"
        );
        assert_ne!(
            m.bucket_for(3),
            m.bucket_for(4),
            "second-heaviest pair must separate"
        );
    }

    #[test]
    fn a_matcher_mined_again_equals_a_fresh_one() {
        let wide =
            TransactionDb::from_timed_events((0..400u64).map(|i| (i * 7 % 90, (i * 31) % 97)), 10);
        let narrow = TransactionDb::from_timed_events([(0, 5), (1, 9), (20, 5), (21, 9)], 10);
        let (mut reused, _) = mine_and_match(&wide, 1, 36);
        assert!(reused.matched_blocks() > 2);
        for db in [&narrow, &wide, &TransactionDb::default()] {
            let report = reused.mine(db, 1);
            let (fresh, fresh_report) = mine_and_match(db, 1, 36);
            assert_eq!(reused, fresh);
            assert_eq!(report.pairs_found, fresh_report.pairs_found);
        }
    }

    #[test]
    fn matched_fraction_counts_requests_not_blocks() {
        let pairs = vec![pair(10, 20, 5)];
        let m = match_design_blocks(&pairs, 36);
        // 3 requests, 2 of them matched blocks.
        let f = m.matched_fraction(vec![10, 20, 999]);
        assert!((f - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn coloring_balances_design_block_usage() {
        // 100 isolated pairs → 200 blocks; usage per design block should be
        // near 200/36 ≈ 5.6, never wildly skewed.
        let pairs: Vec<FrequentPair> = (0..100)
            .map(|i| pair(1000 + 2 * i, 1001 + 2 * i, 1))
            .collect();
        let m = match_design_blocks(&pairs, 36);
        let mut use_count = vec![0usize; 36];
        for i in 0..100u64 {
            use_count[m.bucket_for(1000 + 2 * i)] += 1;
            use_count[m.bucket_for(1001 + 2 * i)] += 1;
        }
        assert!(use_count.iter().all(|&u| u <= 8), "{use_count:?}");
    }
}
