//! The allocation scheme: one fixed table from bucket to replica tuple.

pub use fqos_designs::{BucketId, DeviceId};

use crate::sampling::{optimal_retrieval_probabilities, OptimalRetrievalProbabilities};
use fqos_designs::{known, Design, RetrievalGuarantee};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A replicated declustering scheme: a fixed table mapping every bucket to
/// the ordered tuple of devices holding its replicas (first = primary copy).
///
/// Every layout of §II-B2 is such a table, and they differ only in how the
/// table is filled: one constructor per scheme, all validated by the same
/// check, so every tuple holds `c ≥ 1` distinct devices in `0..N`.
///
/// The table never changes once built, so the scheme is a handle on one
/// shared copy: a clone bumps a reference count, and each of the paper's
/// two layouts is built once per process. The `P_k` tables sampled on the
/// layout live in the same copy (see
/// [`retrieval_probabilities`](Self::retrieval_probabilities)).
#[derive(Debug, Clone)]
pub struct AllocationScheme {
    table: Arc<Table>,
}

#[derive(Debug)]
struct Table {
    name: String,
    devices: usize,
    copies: usize,
    buckets: usize,
    /// `replicas[b·c .. (b+1)·c]` = ordered device tuple of bucket `b`.
    replicas: Box<[DeviceId]>,
    /// The `S(M)` algebra, for a layout built from a design.
    guarantee: Option<RetrievalGuarantee>,
    /// Every `P_k` table sampled on this layout, by `(k_max, trials, seed)`.
    /// A leaf lock: taken by constructors only, never on a submit path, and
    /// nothing else is locked while it is held.
    probabilities: Mutex<Vec<(ProbabilityKey, Arc<OptimalRetrievalProbabilities>)>>,
}

/// `(k_max, trials, seed)`.
type ProbabilityKey = (usize, usize, u64);

fn invalid(name: &str, why: std::fmt::Arguments) -> ! {
    panic!("invalid layout {name}: {why}")
}

/// `(c, N/c)` for a layout of `c`-device groups. `c = 0` passes as 1 and is
/// left to the shared check.
fn groups_of(devices: usize, copies: usize) -> (usize, usize) {
    let c = copies.max(1);
    assert!(
        devices.is_multiple_of(c),
        "devices must split into c-sized groups"
    );
    (c, devices / c)
}

impl AllocationScheme {
    /// The one constructor every scheme goes through: `tuple(b, table)`
    /// appends bucket `b`'s replicas to the flat table. Panics with the
    /// first violation: no device, copy or bucket, or a tuple that is not
    /// `copies` distinct devices in `0..devices`.
    fn build(
        name: String,
        devices: usize,
        copies: usize,
        buckets: usize,
        guarantee: Option<RetrievalGuarantee>,
        mut tuple: impl FnMut(BucketId, &mut Vec<DeviceId>),
    ) -> Self {
        if devices == 0 || copies == 0 || buckets == 0 {
            invalid(
                &name,
                format_args!("{devices} devices, {copies} copies, {buckets} buckets"),
            );
        }
        let mut replicas = Vec::with_capacity(buckets * copies);
        for b in 0..buckets {
            tuple(b, &mut replicas);
            let Some(r) = replicas.get(b * copies..).filter(|r| r.len() == copies) else {
                invalid(
                    &name,
                    format_args!(
                        "bucket {b}: {} replicas, expected {copies}",
                        replicas.len().saturating_sub(b * copies)
                    ),
                );
            };
            for (i, &d) in r.iter().enumerate() {
                if d >= devices {
                    invalid(&name, format_args!("bucket {b}: device {d} out of range"));
                }
                if r[..i].contains(&d) {
                    invalid(&name, format_args!("bucket {b}: device {d} repeated"));
                }
            }
        }
        AllocationScheme {
            table: Arc::new(Table {
                name,
                devices,
                copies,
                buckets,
                replicas: replicas.into_boxed_slice(),
                guarantee,
                probabilities: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The paper's scheme: bucket `i` is block `i / k` of an `(N, c, 1)`
    /// design rotated by `i % k` positions (§II-B4), giving the worst-case
    /// guarantee `S(M) = (c−1)M² + cM` buckets in `M` accesses.
    pub fn design(design: &Design) -> Self {
        let name = format!(
            "design-theoretic ({},{},{})",
            design.v(),
            design.k(),
            design.lambda()
        );
        let k = design.k();
        let guarantee = RetrievalGuarantee::of(design);
        let blocks = design.blocks();
        Self::build(
            name,
            design.v(),
            k,
            blocks.len() * k,
            Some(guarantee),
            |b, table| {
                let block = &blocks[b / k];
                table.extend(block.iter().cycle().skip(b % k).take(block.len()));
            },
        )
    }

    /// The paper's `(9,3,1)` configuration.
    pub fn paper_9_3_1() -> Self {
        static TABLE: OnceLock<AllocationScheme> = OnceLock::new();
        TABLE
            .get_or_init(|| Self::design(&known::design_9_3_1()))
            .clone()
    }

    /// The `(13,3,1)` configuration used for TPC-E.
    pub fn paper_13_3_1() -> Self {
        static TABLE: OnceLock<AllocationScheme> = OnceLock::new();
        TABLE
            .get_or_init(|| Self::design(&known::design_13_3_1()))
            .clone()
    }

    /// RAID-1 *mirrored* (Table III, Fig. 7): the devices form `N/c` groups
    /// of `c` that mirror each other completely. Bucket `b` belongs to group
    /// `b mod (N/c)`; rotations of the in-group order spread primary copies
    /// (b0→{d0,d1,d2}, b1→{d3,d4,d5}, b2→{d6,d7,d8}, b3→{d0,d1,d2}, …).
    pub fn mirrored(devices: usize, copies: usize, buckets: usize) -> Self {
        let (c, groups) = groups_of(devices, copies);
        // Fig. 7 lists buckets/c base blocks cycling over the groups in
        // order; the remaining buckets are their rotations.
        let base = buckets.div_ceil(c).max(1);
        Self::build(
            format!("RAID-1 mirrored ({devices} devices, {copies} copies)"),
            devices,
            copies,
            buckets,
            None,
            |b, table| {
                let (g, rot) = (b % groups, (b / base) % c);
                table.extend((0..c).map(|p| g * c + (p + rot) % c));
            },
        )
    }

    /// RAID-1 *chained* declustering (Fig. 7's second layout): bucket `b`'s
    /// primary is device `b mod N` and its other copies follow it,
    /// `(b+1) mod N, …, (b+c−1) mod N` — the [`periodic`](Self::periodic)
    /// table with shift 1.
    pub fn chained(devices: usize, copies: usize, buckets: usize) -> Self {
        Self::shifted(
            format!("RAID-1 chained ({devices} devices, {copies} copies)"),
            devices,
            copies,
            1,
            buckets,
        )
    }

    /// Dependent periodic allocation (Tosun & Ferhatosmanoglu, ICPP 2002):
    /// copy `j` of bucket `b` is on device `(b + j·shift) mod N`, each copy
    /// a shifted version of the first allocation. Good for range queries,
    /// weaker for arbitrary ones (§II-B2). A shift that lands two copies on
    /// one device is rejected.
    pub fn periodic(devices: usize, copies: usize, shift: usize, buckets: usize) -> Self {
        Self::shifted(
            format!("dependent periodic (shift {shift}, {devices} devices, {copies} copies)"),
            devices,
            copies,
            shift,
            buckets,
        )
    }

    fn shifted(name: String, devices: usize, copies: usize, shift: usize, buckets: usize) -> Self {
        Self::build(name, devices, copies, buckets, None, |b, table| {
            table.extend((0..copies).map(|j| (b + j * shift) % devices));
        })
    }

    /// The partitioned allocation (Ferhatosmanoglu et al., DAPD 2006): every
    /// bucket is replicated on all `c` devices of one group, cycling over
    /// the `G = N/c` groups and rotating the in-group order. Unlike
    /// [`mirrored`](Self::mirrored) the groups stride across the array:
    /// group `g` holds `{g, g + G, g + 2G, …}`. Requests that map to one
    /// group serialize at `⌈b_g / c⌉` (§II-B2).
    pub fn partitioned(devices: usize, copies: usize, buckets: usize) -> Self {
        let (c, groups) = groups_of(devices, copies);
        Self::build(
            format!("partitioned ({devices} devices, {copies} copies)"),
            devices,
            copies,
            buckets,
            None,
            |b, table| {
                let (g, rot) = (b % groups, (b / groups) % c);
                table.extend((0..c).map(|p| g + ((p + rot) % c) * groups));
            },
        )
    }

    /// The orthogonal two-copy allocation (Tosun SAC 2004; Ferhatosmanoglu
    /// et al. PODS 2004): bucket `b = (i−1)·N + j` stores its copies on `j`
    /// and `(i + j) mod N`, `i ≥ 1`, so every ordered device pair appears at
    /// most once. That allows `N·(N−1)` buckets; past them the two copies
    /// coincide and the layout is rejected.
    pub fn orthogonal(devices: usize, buckets: usize) -> Self {
        Self::build(
            format!("orthogonal ({devices} devices, 2 copies)"),
            devices,
            2,
            buckets,
            None,
            |b, table| {
                let (i, j) = (1 + b / devices, b % devices);
                table.extend([j, (i + j) % devices]);
            },
        )
    }

    /// Random duplicate allocation (Sanders, Egner & Korst, SODA 2000): each
    /// bucket's copies go to `c` distinct devices drawn uniformly from a
    /// generator seeded with `seed`. Near-optimal with high probability, but
    /// no deterministic guarantee (§II-B2).
    pub fn random_duplicate(devices: usize, copies: usize, buckets: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let all: Vec<DeviceId> = (0..devices).collect();
        let mut choice = all.clone();
        Self::build(
            format!("RDA ({devices} devices, {copies} copies)"),
            devices,
            copies,
            buckets,
            None,
            |_, table| {
                choice.copy_from_slice(&all);
                choice.shuffle(&mut rng);
                table.extend(choice.iter().take(copies));
            },
        )
    }

    /// Scheme name for reports.
    pub fn name(&self) -> &str {
        &self.table.name
    }

    /// Number of devices `N`.
    pub fn devices(&self) -> usize {
        self.table.devices
    }

    /// Replication factor `c`.
    pub fn copies(&self) -> usize {
        self.table.copies
    }

    // Every submit looks its bucket up through these three: they are
    // inlined into the engine across the crate boundary.
    /// Number of distinct buckets the scheme supports.
    #[inline]
    pub fn num_buckets(&self) -> usize {
        self.table.buckets
    }

    /// Ordered replica tuple of a bucket. Panics if out of range.
    #[inline]
    pub fn replicas(&self, bucket: BucketId) -> &[DeviceId] {
        let c = self.table.copies;
        &self.table.replicas[bucket * c..][..c]
    }

    /// Map an arbitrary data-block number onto a bucket (the paper's modulo
    /// rule for blocks not matched by FIM).
    #[inline]
    pub fn bucket_for_lbn(&self, lbn: u64) -> BucketId {
        (lbn % self.table.buckets as u64) as usize
    }

    /// The worst-case retrieval guarantee of a layout built from a design;
    /// `None` for every other scheme.
    pub fn guarantee(&self) -> Option<RetrievalGuarantee> {
        self.table.guarantee
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashSet};

    fn tuples(s: &AllocationScheme) -> Vec<&[DeviceId]> {
        (0..s.num_buckets()).map(|b| s.replicas(b)).collect()
    }

    fn sorted(r: &[DeviceId]) -> Vec<DeviceId> {
        let mut r = r.to_vec();
        r.sort_unstable();
        r
    }

    #[test]
    fn paper_configurations() {
        let s = AllocationScheme::paper_9_3_1();
        assert_eq!((s.devices(), s.copies(), s.num_buckets()), (9, 3, 36));
        assert_eq!(s.name(), "design-theoretic (9,3,1)");
        assert_eq!(s.guarantee().map(|g| g.buckets_in(1)), Some(5));
        let s = AllocationScheme::paper_13_3_1();
        assert_eq!((s.devices(), s.num_buckets()), (13, 78));
    }

    #[test]
    fn design_buckets_are_the_rotated_blocks() {
        // §II-B4: rotation of (0,1,2) produces (1,2,0) and (2,0,1), and the
        // rotations spread primaries evenly: every device is the primary of
        // r = 4 buckets.
        let s = AllocationScheme::paper_9_3_1();
        let t = tuples(&s);
        assert_eq!(&t[..3], [&[0, 1, 2][..], &[1, 2, 0], &[2, 0, 1]]);
        let mut primaries = [0; 9];
        t.iter().for_each(|r| primaries[r[0]] += 1);
        assert_eq!(primaries, [4; 9]);
    }

    #[test]
    fn clones_and_paper_configurations_share_one_table() {
        let table = |s: &AllocationScheme| s.replicas(0).as_ptr();
        let paper = AllocationScheme::paper_13_3_1();
        assert_eq!(table(&paper), table(&paper.clone()));
        assert_eq!(table(&paper), table(&AllocationScheme::paper_13_3_1()));
        assert_ne!(table(&paper), table(&AllocationScheme::paper_9_3_1()));
        let built = AllocationScheme::design(&known::design_13_3_1());
        assert_eq!(table(&built), table(&built.clone()));
        assert_ne!(table(&built), table(&paper));
    }

    #[test]
    fn lbn_modulo_mapping() {
        let s = AllocationScheme::paper_9_3_1();
        assert_eq!(s.bucket_for_lbn(0), 0);
        assert_eq!(s.bucket_for_lbn(36), 0);
        assert_eq!(s.bucket_for_lbn(37), 1);
        assert_eq!(s.bucket_for_lbn(u64::MAX), (u64::MAX % 36) as usize);
    }

    #[test]
    fn every_device_pair_shares_at_most_one_block() {
        // The λ = 1 property seen through the scheme: over the 12 base
        // blocks (buckets 0, 3, 6, ... are rotation-0), each unordered
        // device pair appears exactly once.
        let s = AllocationScheme::paper_9_3_1();
        let mut pair_seen = HashSet::new();
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

    #[test]
    #[should_panic(expected = "bucket 0: device 9 out of range")]
    fn design_rejects_a_block_outside_its_devices() {
        AllocationScheme::design(&Design::new_unchecked(9, 3, 1, vec![vec![0, 1, 9]]));
    }

    #[test]
    fn mirrored_matches_fig7() {
        let s = AllocationScheme::mirrored(9, 3, 36);
        let t = tuples(&s);
        assert_eq!(
            &t[..4],
            [&[0, 1, 2][..], &[3, 4, 5], &[6, 7, 8], &[0, 1, 2]]
        );
        // b12 has rotation (12/12) % 3 = 1: its primary shifts to d1.
        assert_eq!(t[12], &[1, 2, 0]);
        // All replicas of a bucket live in one mirror group.
        assert!(t.iter().all(|r| r.iter().all(|&d| d / 3 == r[0] / 3)));
    }

    #[test]
    #[should_panic(expected = "devices must split into c-sized groups")]
    fn mirrored_requires_divisible_devices() {
        AllocationScheme::mirrored(10, 3, 30);
    }

    #[test]
    #[should_panic(expected = "0 buckets")]
    fn mirrored_rejects_zero_buckets() {
        AllocationScheme::mirrored(9, 3, 0);
    }

    #[test]
    fn chained_matches_fig7_and_is_periodic_with_shift_one() {
        let s = AllocationScheme::chained(9, 3, 36);
        let t = tuples(&s);
        assert_eq!(t[0], &[0, 1, 2]);
        assert_eq!(t[7], &[7, 8, 0]);
        assert_eq!(t[8], &[8, 0, 1]);
        assert_eq!(t[9], &[0, 1, 2]);
        assert_eq!(t, tuples(&AllocationScheme::periodic(9, 3, 1, 36)));
        // Primaries are balanced: 36 buckets, 4 per device.
        let mut primaries = [0; 9];
        t.iter().for_each(|r| primaries[r[0]] += 1);
        assert_eq!(primaries, [4; 9]);
    }

    #[test]
    #[should_panic(expected = "0 copies")]
    fn chained_rejects_zero_copies() {
        // Without the check: empty tuples, which no cut table can hold.
        AllocationScheme::chained(9, 0, 36);
    }

    #[test]
    fn periodic_shift_spreads_copies() {
        let s = AllocationScheme::periodic(9, 3, 4, 36);
        assert_eq!(s.replicas(0), &[0, 4, 8]);
        assert_eq!(s.replicas(1), &[1, 5, 0]);
    }

    #[test]
    #[should_panic(expected = "bucket 0: device 0 repeated")]
    fn periodic_rejects_a_shift_that_collides() {
        // Copy 3 of 4 lands on 3·3 ≡ 0 (mod 9), on copy 0's device.
        AllocationScheme::periodic(9, 4, 3, 36);
    }

    #[test]
    fn partitioned_groups_stride_and_rotate() {
        // Group 0 = {0, 3, 6}, group 1 = {1, 4, 7}, group 2 = {2, 5, 8}.
        let s = AllocationScheme::partitioned(9, 3, 36);
        assert_eq!(sorted(s.replicas(0)), [0, 3, 6]);
        assert_eq!(sorted(s.replicas(1)), [1, 4, 7]);
        // Buckets 0, 3, 6, ... all map to group 0 — the weakness for
        // arbitrary queries — with the primary rotating.
        let set = |b| s.replicas(b).iter().copied().collect::<BTreeSet<_>>();
        assert_eq!(set(0), set(3));
        assert_ne!(s.replicas(0)[0], s.replicas(3)[0]);
    }

    #[test]
    #[should_panic(expected = "0 devices")]
    fn partitioned_rejects_zero_devices() {
        AllocationScheme::partitioned(0, 3, 36);
    }

    #[test]
    fn orthogonal_ordered_pairs_are_unique() {
        let s = AllocationScheme::orthogonal(9, 72);
        assert_eq!(s.num_buckets(), 72);
        let pairs: HashSet<_> = tuples(&s).iter().map(|r| (r[0], r[1])).collect();
        assert_eq!(pairs.len(), 72);
    }

    #[test]
    #[should_panic(expected = "bucket 6: device 0 repeated")]
    fn orthogonal_rejects_more_than_n_times_n_minus_one_buckets() {
        AllocationScheme::orthogonal(3, 7);
    }

    #[test]
    fn random_duplicate_is_deterministic_per_seed() {
        let a = AllocationScheme::random_duplicate(9, 3, 36, 7);
        let b = AllocationScheme::random_duplicate(9, 3, 36, 7);
        let c = AllocationScheme::random_duplicate(9, 3, 36, 8);
        assert_eq!(tuples(&a), tuples(&b));
        assert_ne!(tuples(&a), tuples(&c));
    }

    #[test]
    fn random_duplicate_covers_devices_roughly_uniformly() {
        let s = AllocationScheme::random_duplicate(9, 3, 3600, 42);
        let mut counts = vec![0usize; 9];
        tuples(&s)
            .iter()
            .flat_map(|r| r.iter())
            .for_each(|&d| counts[d] += 1);
        // 3600 × 3 / 9 = 1200 expected per device; allow ±15 %.
        assert!(
            counts.iter().all(|&c| (1020..1380).contains(&c)),
            "{counts:?}"
        );
    }

    #[test]
    #[should_panic(expected = "0 copies")]
    fn random_duplicate_rejects_zero_copies() {
        AllocationScheme::random_duplicate(9, 0, 36, 1);
    }

    #[test]
    #[should_panic(expected = "bucket 0: 3 replicas, expected 4")]
    fn random_duplicate_rejects_more_copies_than_devices() {
        AllocationScheme::random_duplicate(3, 4, 36, 1);
    }
}
