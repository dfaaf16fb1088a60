//! The verified `(v, k, λ)` block design type.

use crate::error::DesignError;

/// Identifier of a storage device (a *point* of the design).
pub type DeviceId = usize;

/// Identifier of a bucket: a slot that data blocks are matched to, stored on
/// one rotation of one design block (*not* a raw LBN — that mapping is done
/// by the FIM matcher).
pub type BucketId = usize;

/// A design block: an ordered list of `k` distinct points. The order matters
/// for declustering — position `i` of a (possibly rotated) block names the
/// device that stores the `i`-th copy of a bucket.
pub type Block = Vec<DeviceId>;

/// A `(v, k, λ)` block design.
///
/// * `v` points (devices), numbered `0..v`.
/// * Every block contains exactly `k` distinct points.
/// * Every unordered pair of points appears together in exactly `λ` blocks.
///
/// With `λ = 1` this is a Steiner system `S(2, k, v)`; the QoS framework
/// relies on `λ = 1` because it guarantees that two different blocks share at
/// most one device, which is what bounds worst-case retrieval cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Design {
    v: usize,
    k: usize,
    lambda: usize,
    blocks: Vec<Block>,
}

impl Design {
    /// Build a design from raw blocks without verifying the axioms.
    ///
    /// Use [`Design::verify`] before trusting the retrieval guarantees.
    pub fn new_unchecked(v: usize, k: usize, lambda: usize, blocks: Vec<Block>) -> Self {
        Design {
            v,
            k,
            lambda,
            blocks,
        }
    }

    /// Number of points (devices).
    pub fn v(&self) -> usize {
        self.v
    }

    /// Block size — equals the replication factor `c` in the QoS framework.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Pair-coverage index `λ`.
    pub fn lambda(&self) -> usize {
        self.lambda
    }

    /// The blocks of the design.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of blocks, `b = λ·v(v−1) / (k(k−1))`.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Replication number `r = λ(v−1)/(k−1)`: how many blocks each point
    /// appears in.
    pub fn replication_number(&self) -> usize {
        self.lambda * (self.v - 1) / (self.k - 1)
    }

    /// The expected number of blocks from the design-theoretic identity.
    pub fn expected_num_blocks(&self) -> usize {
        self.lambda * self.v * (self.v - 1) / (self.k * (self.k - 1))
    }

    /// Verify all design axioms:
    ///
    /// 1. every block has exactly `k` distinct in-range points,
    /// 2. every pair of points is covered exactly `λ` times,
    /// 3. the block count matches `λ·v(v−1)/(k(k−1))`.
    pub fn verify(&self) -> Result<(), DesignError> {
        // Axiom 1: block well-formedness.
        for (bi, block) in self.blocks.iter().enumerate() {
            if block.len() != self.k {
                return Err(DesignError::WrongBlockSize {
                    block: bi,
                    len: block.len(),
                    k: self.k,
                });
            }
            let mut seen = vec![false; self.v];
            for &p in block {
                if p >= self.v {
                    return Err(DesignError::PointOutOfRange {
                        block: bi,
                        point: p,
                        v: self.v,
                    });
                }
                if seen[p] {
                    return Err(DesignError::RepeatedPoint {
                        block: bi,
                        point: p,
                    });
                }
                seen[p] = true;
            }
        }

        // Axiom 2: pair coverage. Triangular counter indexed by (a < b).
        let mut pair_count = vec![0usize; self.v * self.v];
        for block in &self.blocks {
            for i in 0..block.len() {
                for j in (i + 1)..block.len() {
                    let (a, b) = ordered(block[i], block[j]);
                    pair_count[a * self.v + b] += 1;
                }
            }
        }
        for a in 0..self.v {
            for b in (a + 1)..self.v {
                let observed = pair_count[a * self.v + b];
                if observed != self.lambda {
                    return Err(DesignError::PairCoverage {
                        a,
                        b,
                        observed,
                        lambda: self.lambda,
                    });
                }
            }
        }

        // Axiom 3: block count identity (implied by 1+2, but cheap to state).
        let expected = self.expected_num_blocks();
        if self.blocks.len() != expected {
            return Err(DesignError::BlockCount {
                observed: self.blocks.len(),
                expected,
            });
        }
        Ok(())
    }

    /// True if the two given blocks share at most `λ` points — the property
    /// that bounds retrieval conflicts.
    pub fn blocks_share_at_most_lambda(&self, i: usize, j: usize) -> bool {
        let shared = self.blocks[i]
            .iter()
            .filter(|p| self.blocks[j].contains(p))
            .count();
        shared <= self.lambda
    }
}

#[inline]
fn ordered(a: usize, b: usize) -> (usize, usize) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fano() -> Design {
        // The Fano plane: the unique (7,3,1) design.
        Design::new_unchecked(
            7,
            3,
            1,
            vec![
                vec![0, 1, 3],
                vec![1, 2, 4],
                vec![2, 3, 5],
                vec![3, 4, 6],
                vec![4, 5, 0],
                vec![5, 6, 1],
                vec![6, 0, 2],
            ],
        )
    }

    #[test]
    fn fano_verifies() {
        fano().verify().unwrap();
    }

    #[test]
    fn fano_counts() {
        let d = fano();
        assert_eq!(d.num_blocks(), 7);
        assert_eq!(d.expected_num_blocks(), 7);
        assert_eq!(d.replication_number(), 3);
    }

    #[test]
    fn detects_wrong_block_size() {
        let d = Design::new_unchecked(7, 3, 1, vec![vec![0, 1]]);
        assert!(matches!(
            d.verify(),
            Err(DesignError::WrongBlockSize { .. })
        ));
    }

    #[test]
    fn detects_out_of_range() {
        let d = Design::new_unchecked(3, 3, 1, vec![vec![0, 1, 7]]);
        assert!(matches!(
            d.verify(),
            Err(DesignError::PointOutOfRange { .. })
        ));
    }

    #[test]
    fn detects_repeated_point() {
        let d = Design::new_unchecked(7, 3, 1, vec![vec![0, 1, 1]]);
        assert!(matches!(d.verify(), Err(DesignError::RepeatedPoint { .. })));
    }

    #[test]
    fn detects_bad_pair_coverage() {
        // Duplicate one Fano block: pairs inside it are covered twice.
        let mut blocks = fano().blocks().to_vec();
        blocks[1] = blocks[0].clone();
        let d = Design::new_unchecked(7, 3, 1, blocks);
        assert!(matches!(d.verify(), Err(DesignError::PairCoverage { .. })));
    }

    #[test]
    fn blocks_share_at_most_one_point_in_steiner_system() {
        let d = fano();
        for i in 0..d.num_blocks() {
            for j in (i + 1)..d.num_blocks() {
                assert!(d.blocks_share_at_most_lambda(i, j), "blocks {i} and {j}");
            }
        }
    }
}
