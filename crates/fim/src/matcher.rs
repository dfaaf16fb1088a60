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
//! color so buckets stay balanced).

use crate::transaction::FrequentPair;

/// A data-block → design-block assignment with modulo fallback.
#[derive(Debug, Clone)]
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
    assert!(num_design_blocks > 0);
    let uncolored = u32::try_from(num_design_blocks).expect("design blocks fit 32 bits");

    // Vertices: the distinct blocks, ascending, so a vertex index orders
    // like its LBN.
    let mut blocks: Vec<u64> = pairs.iter().flat_map(|p| [p.a, p.b]).collect();
    blocks.sort_unstable();
    blocks.dedup();
    let vertex = |lbn: u64| blocks.binary_search(&lbn).expect("an endpoint is a vertex");

    // Adjacency in compressed rows: the neighbours of `v`, with the pair's
    // support, are `adj[row[v]..row[v + 1]]`; `weight[v]` sums the supports.
    let edges: Vec<(usize, usize, u32)> = pairs
        .iter()
        .map(|p| (vertex(p.a), vertex(p.b), p.support))
        .collect();
    let mut row = vec![0usize; blocks.len() + 1];
    for &(a, b, _) in &edges {
        row[a + 1] += 1;
        row[b + 1] += 1;
    }
    for v in 0..blocks.len() {
        row[v + 1] += row[v];
    }
    let mut fill = row.clone();
    let mut adj = vec![(0usize, 0u32); 2 * edges.len()];
    let mut weight = vec![0u64; blocks.len()];
    for &(a, b, support) in &edges {
        for (v, nbr) in [(a, b), (b, a)] {
            adj[fill[v]] = (nbr, support);
            fill[v] += 1;
            weight[v] += u64::from(support);
        }
    }

    // Heaviest vertex first, ties toward the smaller block.
    let mut order: Vec<usize> = (0..blocks.len()).collect();
    order.sort_unstable_by_key(|&v| (std::cmp::Reverse(weight[v]), v));

    let mut color = vec![uncolored; blocks.len()];
    let mut color_use = vec![0usize; num_design_blocks];
    let mut conflict = vec![0u64; num_design_blocks];
    for v in order {
        // Conflict weight per color from already-colored neighbours.
        conflict.fill(0);
        for &(nbr, support) in &adj[row[v]..row[v + 1]] {
            if color[nbr] != uncolored {
                conflict[color[nbr] as usize] += u64::from(support);
            }
        }
        let best = (0..num_design_blocks)
            .min_by_key(|&c| (conflict[c], color_use[c], c))
            .expect("at least one design block");
        color_use[best] += 1;
        color[v] = best as u32;
    }
    BlockMatcher {
        blocks,
        color,
        num_design_blocks,
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
