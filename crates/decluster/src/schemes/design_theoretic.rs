//! Design-theoretic allocation — the paper's scheme.

use crate::scheme::{AllocationScheme, BucketId, DeviceId};
use fqos_designs::{known, Design, RetrievalGuarantee, RotatedDesign};
use std::sync::{Arc, OnceLock};

/// Buckets are assigned to devices by the (rotated) blocks of an
/// `(N, c, 1)` design, giving the worst-case guarantee
/// `S(M) = (c−1)M² + cM` buckets in `M` accesses.
///
/// The bucket table never changes once built, so the scheme is a handle on
/// one shared copy: a clone bumps a reference count, and each of the
/// paper's two layouts is built once per process.
#[derive(Debug, Clone)]
pub struct DesignTheoretic {
    table: Arc<Table>,
}

#[derive(Debug)]
struct Table {
    rotated: RotatedDesign,
    name: String,
}

impl DesignTheoretic {
    /// Build from a verified design.
    pub fn new(design: Design) -> Self {
        let name = format!(
            "design-theoretic ({},{},{})",
            design.v(),
            design.k(),
            design.lambda()
        );
        let rotated = RotatedDesign::new(design);
        let table = Arc::new(Table { rotated, name });
        DesignTheoretic { table }
    }

    /// The paper's `(9,3,1)` configuration.
    pub fn paper_9_3_1() -> Self {
        static TABLE: OnceLock<DesignTheoretic> = OnceLock::new();
        TABLE
            .get_or_init(|| DesignTheoretic::new(known::design_9_3_1()))
            .clone()
    }

    /// The `(13,3,1)` configuration used for TPC-E.
    pub fn paper_13_3_1() -> Self {
        static TABLE: OnceLock<DesignTheoretic> = OnceLock::new();
        TABLE
            .get_or_init(|| DesignTheoretic::new(known::design_13_3_1()))
            .clone()
    }

    /// The worst-case retrieval guarantee.
    pub fn guarantee(&self) -> RetrievalGuarantee {
        RetrievalGuarantee::of(self.table.rotated.design())
    }
}

impl AllocationScheme for DesignTheoretic {
    fn name(&self) -> &str {
        &self.table.name
    }

    fn devices(&self) -> usize {
        self.table.rotated.devices()
    }

    fn copies(&self) -> usize {
        self.table.rotated.copies()
    }

    // Every submit looks its bucket up through these two: they are inlined
    // into the engine across the crate boundary.
    #[inline]
    fn num_buckets(&self) -> usize {
        self.table.rotated.num_buckets()
    }

    #[inline]
    fn replicas(&self, bucket: BucketId) -> &[DeviceId] {
        self.table.rotated.replicas(bucket)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_is_valid() {
        let s = DesignTheoretic::paper_9_3_1();
        s.validate().unwrap();
        assert_eq!(s.devices(), 9);
        assert_eq!(s.copies(), 3);
        assert_eq!(s.num_buckets(), 36);
        assert_eq!(s.guarantee().buckets_in(1), 5);
    }

    #[test]
    fn tpce_configuration_is_valid() {
        let s = DesignTheoretic::paper_13_3_1();
        s.validate().unwrap();
        assert_eq!(s.devices(), 13);
        assert_eq!(s.num_buckets(), 78);
    }

    #[test]
    fn clones_and_paper_configurations_share_one_table() {
        let table = |s: &DesignTheoretic| s.replicas(0).as_ptr();
        let paper = DesignTheoretic::paper_13_3_1();
        assert_eq!(table(&paper), table(&paper.clone()));
        assert_eq!(table(&paper), table(&DesignTheoretic::paper_13_3_1()));
        assert_ne!(table(&paper), table(&DesignTheoretic::paper_9_3_1()));
        let built = DesignTheoretic::new(fqos_designs::known::design_13_3_1());
        assert_eq!(table(&built), table(&built.clone()));
        assert_ne!(table(&built), table(&paper));
    }

    #[test]
    fn catalog_designs_make_valid_schemes() {
        // The designs `fqos-designs` checks its rotation rule on.
        let catalog = fqos_designs::DesignCatalog;
        for design in (2..=5).flat_map(|k| (3..=45).filter_map(move |v| catalog.find(v, k).ok())) {
            let s = DesignTheoretic::new(design);
            assert_eq!(s.validate(), Ok(()), "{}", s.name());
        }
    }

    #[test]
    fn lbn_modulo_mapping() {
        let s = DesignTheoretic::paper_9_3_1();
        assert_eq!(s.bucket_for_lbn(0), 0);
        assert_eq!(s.bucket_for_lbn(36), 0);
        assert_eq!(s.bucket_for_lbn(37), 1);
        assert_eq!(s.bucket_for_lbn(u64::MAX), (u64::MAX % 36) as usize);
    }

    #[test]
    fn every_device_pair_shares_at_most_one_block() {
        // The λ = 1 property seen through the scheme interface: over the 12
        // base blocks (buckets 0, 3, 6, ... are rotation-0), each unordered
        // device pair appears exactly once.
        let s = DesignTheoretic::paper_9_3_1();
        let mut pair_seen = std::collections::HashSet::new();
        for base in (0..s.num_buckets()).step_by(3) {
            let r = s.replicas(base);
            for i in 0..r.len() {
                for j in (i + 1)..r.len() {
                    let key = (r[i].min(r[j]), r[i].max(r[j]));
                    assert!(pair_seen.insert(key), "pair {key:?} repeated");
                }
            }
        }
        assert_eq!(pair_seen.len(), 36);
    }
}
