//! Rotated designs: mapping buckets to ordered replica tuples.
//!
//! A design block names the *set* of devices a bucket is replicated on; its
//! **rotations** reuse the same device set with a different primary copy
//! (§II-B4: rotating `(0,1,2)` gives `(1,2,0)` and `(2,0,1)`). Using every
//! block in all `k` rotations lets an `(N, c, 1)` design support
//! `N(N−1)/(c−1)` buckets — 36 for the `(9,3,1)` design.

use crate::design::{Design, DeviceId};

/// Identifier of a bucket (a design-block slot that data blocks are matched
/// to; *not* a raw LBN — that mapping is done by the FIM matcher).
pub type BucketId = usize;

/// A design together with its rotation-expanded bucket table.
///
/// Bucket `i` corresponds to design block `i / k` rotated by `i % k`
/// positions; the tuple's first entry is the device storing the primary
/// copy, the second the secondary, and so on. The tuples sit back to back
/// in one allocation of stride `k`.
#[derive(Debug, Clone)]
pub struct RotatedDesign {
    design: Design,
    /// `buckets[i·k .. (i+1)·k]` = ordered device tuple for bucket `i`.
    buckets: Box<[DeviceId]>,
}

impl RotatedDesign {
    /// Expand a design into its full rotation table.
    pub fn new(design: Design) -> Self {
        let k = design.k();
        let mut buckets = Vec::with_capacity(design.num_blocks() * k * k);
        for block in design.blocks() {
            for rot in 0..k {
                buckets.extend((0..k).map(|pos| block[(pos + rot) % k]));
            }
        }
        let buckets = buckets.into_boxed_slice();
        RotatedDesign { design, buckets }
    }

    /// The underlying design.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Number of devices `N`.
    pub fn devices(&self) -> usize {
        self.design.v()
    }

    /// Replication factor `c`.
    pub fn copies(&self) -> usize {
        self.design.k()
    }

    /// Total number of buckets (`num_blocks · k`).
    #[inline]
    pub fn num_buckets(&self) -> usize {
        self.design.num_blocks() * self.copies()
    }

    /// Ordered replica tuple of a bucket. Panics if out of range.
    #[inline]
    pub fn replicas(&self, bucket: BucketId) -> &[DeviceId] {
        let k = self.copies();
        &self.buckets[bucket * k..][..k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guarantee::RetrievalGuarantee;
    use crate::known;

    #[test]
    fn rotation_of_9_3_1_supports_36_buckets() {
        let rd = RotatedDesign::new(known::design_9_3_1());
        assert_eq!(rd.num_buckets(), 36);
        assert_eq!(RetrievalGuarantee::of(rd.design()).supported_buckets(), 36);
    }

    #[test]
    fn rotations_preserve_device_sets() {
        let rd = RotatedDesign::new(known::design_9_3_1());
        let k = rd.copies();
        for (bi, block) in rd.design().blocks().iter().enumerate() {
            for rot in 0..k {
                let tuple = rd.replicas(bi * k + rot);
                let mut a: Vec<_> = tuple.to_vec();
                let mut b: Vec<_> = block.clone();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn paper_rotation_example() {
        // §II-B4: rotation of (0,1,2) produces (1,2,0) and (2,0,1).
        let rd = RotatedDesign::new(known::design_9_3_1());
        assert_eq!(rd.replicas(0), &[0, 1, 2]);
        assert_eq!(rd.replicas(1), &[1, 2, 0]);
        assert_eq!(rd.replicas(2), &[2, 0, 1]);
    }

    #[test]
    fn primaries_are_balanced() {
        // Every device is the primary of exactly r buckets (r = replication
        // number): rotations distribute primaries evenly.
        let rd = RotatedDesign::new(known::design_9_3_1());
        let mut counts = vec![0usize; rd.devices()];
        for b in 0..rd.num_buckets() {
            counts[rd.replicas(b)[0]] += 1;
        }
        let r = rd.design().replication_number();
        assert!(counts.iter().all(|&c| c == r), "{counts:?}");
    }
}
