//! The allocation-scheme abstraction.

pub use fqos_designs::{BucketId, DeviceId};

/// A replicated declustering scheme: a fixed table mapping every bucket to
/// the ordered tuple of devices holding its replicas (first = primary copy).
pub trait AllocationScheme {
    /// Scheme name for reports.
    fn name(&self) -> &str;

    /// Number of devices `N`.
    fn devices(&self) -> usize;

    /// Replication factor `c`.
    fn copies(&self) -> usize;

    /// Number of distinct buckets the scheme supports.
    fn num_buckets(&self) -> usize;

    /// Ordered replica tuple of a bucket (`bucket < num_buckets`).
    fn replicas(&self, bucket: BucketId) -> &[DeviceId];

    /// Map an arbitrary data-block number onto a bucket (the paper's modulo
    /// rule for blocks not matched by FIM).
    fn bucket_for_lbn(&self, lbn: u64) -> BucketId {
        (lbn % self.num_buckets() as u64) as usize
    }

    /// Validate structural invariants: every tuple has `c` distinct in-range
    /// devices. Returns a description of the first violation.
    fn validate(&self) -> Result<(), String> {
        for b in 0..self.num_buckets() {
            let r = self.replicas(b);
            if r.len() != self.copies() {
                return Err(format!(
                    "bucket {b}: {} replicas, expected {}",
                    r.len(),
                    self.copies()
                ));
            }
            for (i, &d) in r.iter().enumerate() {
                if d >= self.devices() {
                    return Err(format!("bucket {b}: device {d} out of range"));
                }
                if r[..i].contains(&d) {
                    return Err(format!("bucket {b}: device {d} repeated"));
                }
            }
        }
        Ok(())
    }

    /// Per-device primary-copy load over all buckets (a balance diagnostic).
    fn primary_loads(&self) -> Vec<usize> {
        let mut loads = vec![0usize; self.devices()];
        for b in 0..self.num_buckets() {
            loads[self.replicas(b)[0]] += 1;
        }
        loads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Toy {
        table: Vec<Vec<usize>>,
    }

    impl AllocationScheme for Toy {
        fn name(&self) -> &str {
            "toy"
        }
        fn devices(&self) -> usize {
            3
        }
        fn copies(&self) -> usize {
            2
        }
        fn num_buckets(&self) -> usize {
            self.table.len()
        }
        fn replicas(&self, bucket: BucketId) -> &[DeviceId] {
            &self.table[bucket]
        }
    }

    #[test]
    fn validate_catches_violations() {
        let good = Toy {
            table: vec![vec![0, 1], vec![1, 2]],
        };
        assert!(good.validate().is_ok());
        let dup = Toy {
            table: vec![vec![1, 1]],
        };
        assert!(dup.validate().is_err());
        let out = Toy {
            table: vec![vec![0, 7]],
        };
        assert!(out.validate().is_err());
        let short = Toy {
            table: vec![vec![0]],
        };
        assert!(short.validate().is_err());
    }

    #[test]
    fn lbn_mapping_wraps() {
        let s = Toy {
            table: vec![vec![0, 1], vec![1, 2]],
        };
        assert_eq!(s.bucket_for_lbn(0), 0);
        assert_eq!(s.bucket_for_lbn(3), 1);
    }

    #[test]
    fn primary_loads_count_first_copies() {
        let s = Toy {
            table: vec![vec![0, 1], vec![1, 2], vec![0, 2]],
        };
        assert_eq!(s.primary_loads(), vec![2, 1, 0]);
    }
}
