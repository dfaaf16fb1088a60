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

use crate::apriori::mine_items;
use crate::transaction::{FrequentPair, MiningReport, TransactionDb};

/// A data-block → design-block assignment with modulo fallback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMatcher {
    /// The matched blocks, ascending.
    blocks: Vec<u64>,
    /// `color[i]` is the design block of `blocks[i]`.
    color: Vec<u32>,
    num_design_blocks: usize,
}

impl BlockMatcher {
    /// An empty matcher: every block falls back to modulo (the paper's
    /// behaviour for the first interval, before any history exists).
    pub fn empty(num_design_blocks: usize) -> Self {
        assert!(num_design_blocks > 0);
        BlockMatcher {
            blocks: Vec::new(),
            color: Vec::new(),
            num_design_blocks,
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
            total += 1;
            if self.is_matched(lbn) {
                matched += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            matched as f64 / total as f64
        }
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
    // Vertices: the distinct blocks, ascending, so a vertex index orders
    // like its LBN.
    let mut blocks: Vec<u64> = pairs.iter().flat_map(|p| [p.a, p.b]).collect();
    blocks.sort_unstable();
    blocks.dedup();
    let vertex = |lbn: u64| {
        let v = blocks.binary_search(&lbn).expect("an endpoint is a vertex");
        u32::try_from(v).expect("vertices fit 32 bits")
    };
    let edges: Vec<(u32, u32, u32)> = pairs
        .iter()
        .map(|p| (vertex(p.a), vertex(p.b), p.support))
        .collect();
    BlockMatcher {
        color: color(blocks.len(), &edges, num_design_blocks),
        blocks,
        num_design_blocks,
    }
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
    let (edges, report) = mine_items(db, min_support);
    // An item in no pair is left uncolored, and is no matched block.
    let mut color = color(db.num_items(), &edges, num_design_blocks);
    let colored = |&c: &u32| (c as usize) < num_design_blocks;
    let mut blocks = Vec::with_capacity(color.len());
    for (item, _) in (0..).zip(&color).filter(|(_, c)| colored(c)) {
        blocks.push(db.lbn_of(item));
    }
    color.retain(colored);
    let matcher = BlockMatcher {
        blocks,
        color,
        num_design_blocks,
    };
    (matcher, report)
}

/// Greedy weighted coloring with `d` colors of the graph on `0..n` with
/// `edges` `(u, v, support)`: vertices with an edge by descending incident
/// support, ties toward the smaller; each takes the color minimizing
/// `(conflict, use, color)`, conflict being the support to neighbours of
/// that color. A vertex without an edge is left `d`.
fn color(n: usize, edges: &[(u32, u32, u32)], d: usize) -> Vec<u32> {
    assert!(d > 0);
    let uncolored = u32::try_from(d).expect("design blocks fit 32 bits");

    // Adjacency in compressed rows: the neighbours of `v`, with the pair's
    // support, are `adj[row[v]..row[v + 1]]`; `weight[v]` sums the supports.
    let mut row = vec![0usize; n + 1];
    for &(a, b, _) in edges {
        row[a as usize + 1] += 1;
        row[b as usize + 1] += 1;
    }
    for v in 0..n {
        row[v + 1] += row[v];
    }
    let mut fill = row.clone();
    let mut adj = vec![(0u32, 0u32); 2 * edges.len()];
    let mut weight = vec![0u64; n];
    for &(a, b, support) in edges {
        for (v, nbr) in [(a as usize, b), (b as usize, a)] {
            adj[fill[v]] = (nbr, support);
            fill[v] += 1;
            weight[v] += u64::from(support);
        }
    }

    // Heaviest vertex first, ties toward the smaller one.
    let mut order = Vec::with_capacity(n);
    order.extend((0..n).filter(|&v| row[v] < row[v + 1]));
    order.sort_unstable_by_key(|&v| (std::cmp::Reverse(weight[v]), v));

    // `levels[u * words..][..words]` is the set of colors used `u` times;
    // the levels below `low` are empty.
    let words = d.div_ceil(64);
    let mut levels = vec![u64::MAX; words];
    levels[words - 1] >>= words * 64 - d;
    let mut low = 0;
    let mut color_use = vec![0usize; d];
    // The colors some neighbour of the vertex holds by a pair of support > 0,
    // and for the fallback their weights (slot `d` takes uncolored ones).
    let mut held = vec![0u64; words];
    let mut conflict = vec![0u64; d + 1];
    let mut color = vec![uncolored; n];
    for v in order {
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
                    let free = level.iter().zip(&held).map(|(&l, &h)| l & !h);
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
    color
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
