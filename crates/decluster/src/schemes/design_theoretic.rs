//! Design-theoretic allocation — the paper's scheme.

use crate::sampling::{optimal_retrieval_probabilities, OptimalRetrievalProbabilities};
use crate::scheme::{AllocationScheme, BucketId, DeviceId};
use fqos_designs::{known, Design, RetrievalGuarantee, RotatedDesign};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Buckets are assigned to devices by the (rotated) blocks of an
/// `(N, c, 1)` design, giving the worst-case guarantee
/// `S(M) = (c−1)M² + cM` buckets in `M` accesses.
///
/// The bucket table never changes once built, so the scheme is a handle on
/// one shared copy: a clone bumps a reference count, and each of the
/// paper's two layouts is built once per process. The `P_k` tables sampled
/// on the layout live in the same copy (see
/// [`retrieval_probabilities`](Self::retrieval_probabilities)).
#[derive(Debug, Clone)]
pub struct DesignTheoretic {
    table: Arc<Table>,
}

#[derive(Debug)]
struct Table {
    rotated: RotatedDesign,
    name: String,
    /// Every `P_k` table sampled on this layout, by `(k_max, trials, seed)`.
    /// A leaf lock: taken by constructors only, never on a submit path, and
    /// nothing else is locked while it is held.
    probabilities: Mutex<Vec<(ProbabilityKey, Arc<OptimalRetrievalProbabilities>)>>,
}

/// `(k_max, trials, seed)`.
type ProbabilityKey = (usize, usize, u64);

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
        let table = Arc::new(Table {
            rotated,
            name,
            probabilities: Mutex::new(Vec::new()),
        });
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

    /// The paper's with-replacement `P_k` table for `k = 1..=k_max`
    /// ([`optimal_retrieval_probabilities`]), sampled once per layout and
    /// exact `(k_max, trials, seed)`: later calls, from this handle or any
    /// clone of it, share the first one's table. A longer table is never
    /// handed out for a shorter request, because sizes past the table read
    /// `P_k = 1`.
    pub fn retrieval_probabilities(
        &self,
        k_max: usize,
        trials: usize,
        seed: u64,
    ) -> Arc<OptimalRetrievalProbabilities> {
        let key = (k_max, trials, seed);
        // Held across the build, so concurrent set-ups wait for one table
        // instead of each sampling their own.
        let mut memo = self
            .table
            .probabilities
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some((_, table)) = memo.iter().find(|(k, _)| *k == key) {
            return Arc::clone(table);
        }
        let table = Arc::new(optimal_retrieval_probabilities(self, k_max, trials, seed));
        memo.push((key, Arc::clone(&table)));
        table
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
