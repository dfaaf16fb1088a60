//! Exact retrieval cost of replicated layouts, from Hall's cuts.
//!
//! §II-B2 ranks declustering schemes by their worst-case retrieval cost for
//! arbitrary queries. For replication Hall's theorem gives that cost in
//! closed form (the replication case of Ly & Soljanin's service-rate
//! region): a request multiset is retrievable in `m` accesses iff every
//! device set `D` satisfies `#{requests whose replicas all lie in D} ≤ m·|D|`.
//! With a capacity `cap_d` per device the right-hand side is
//! `Σ_{d ∈ D} cap_d`; a failed device is one with capacity 0.
//! [`CutTable`] keeps that count for every `D`, so "how many accesses does
//! this multiset need?", "what is the worst case over any `b` buckets?" and
//! "how many of these requests fit at once?" are each one extremum over the
//! `2^N` device sets. The table shares no code with the max-flow kernel,
//! which makes it the kernel's independent oracle.

use crate::scheme::{AllocationScheme, DeviceId};

/// Hall's cut counts of a request multiset: `inside[D]` is the number of
/// requests whose replicas all lie in the device set `D` (a bitmap).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutTable {
    devices: usize,
    inside: Vec<u32>,
}

impl CutTable {
    /// An empty table over `devices` devices, at most 16: it keeps `2^N`
    /// counts.
    pub fn new(devices: usize) -> Self {
        assert!(
            (1..=16).contains(&devices),
            "a cut table covers 1..=16 devices, got {devices}"
        );
        CutTable {
            devices,
            inside: vec![0; 1 << devices],
        }
    }

    /// The table of every bucket of `scheme`, each added once.
    fn of<S: AllocationScheme + ?Sized>(scheme: &S) -> Self {
        let mut table = CutTable::new(scheme.devices());
        for b in 0..scheme.num_buckets() {
            table.add(scheme.replicas(b));
        }
        table
    }

    /// Every device set containing the replicas' support `s`: the
    /// `2^(N−|s|)` cuts a request on `replicas` lies inside.
    fn cuts_around(&self, replicas: &[DeviceId]) -> impl Iterator<Item = usize> {
        let s = replicas.iter().fold(0usize, |s, &d| {
            assert!(d < self.devices, "replica {d} out of range");
            s | 1 << d
        });
        // The subsets `t` of the other devices, from all of them down to none.
        let rest = (self.inside.len() - 1) & !s;
        let mut next = Some(rest);
        std::iter::from_fn(move || {
            let t = next?;
            next = (t != 0).then(|| (t - 1) & rest);
            Some(s | t)
        })
    }

    /// Add one request, served by any device in `replicas`. Panics on an
    /// empty tuple: a request with no replica fits no budget.
    pub fn add(&mut self, replicas: &[DeviceId]) {
        assert!(!replicas.is_empty(), "a request names no replica");
        for d in self.cuts_around(replicas) {
            self.inside[d] += 1;
        }
    }

    /// Whether one more request on `replicas` keeps the multiset retrievable
    /// with device `d` serving at most `caps[d]` requests, given that the
    /// requests added so far are. Only the cuts the request lies inside
    /// change, and a cut's capacity is the sum of its devices'. A request
    /// whose replicas all have capacity 0, or that names none, never fits.
    pub fn fits(&self, replicas: &[DeviceId], caps: &[u16]) -> bool {
        assert_eq!(caps.len(), self.devices, "one capacity per device");
        self.cuts_around(replicas)
            .all(|d| (self.inside[d] as usize) < capacity(d, caps))
    }

    /// How many of the added requests can be served at once with device `d`
    /// serving at most `caps[d]`: the rank of the transversal matroid they
    /// form. By Hall and König it is `min_D (Σ_{d ∈ D} cap_d + |R| −
    /// inside[D])`, a request outside `D` costing the cut one unit.
    pub fn rank(&self, caps: &[u16]) -> usize {
        assert_eq!(caps.len(), self.devices, "one capacity per device");
        let all = self.inside[self.inside.len() - 1] as usize;
        (0..self.inside.len())
            .map(|d| capacity(d, caps) + all - self.inside[d] as usize)
            .min()
            .unwrap_or(0)
    }

    /// The fewest accesses that retrieve the added multiset:
    /// `max_D ⌈inside[D] / |D|⌉`.
    pub fn accesses(&self) -> usize {
        self.worst_case(usize::MAX)
    }

    /// The most accesses any `b` of the added requests need:
    /// `max_D ⌈min(b, inside[D]) / |D|⌉`, since `b` requests can all be
    /// picked inside `D` while it holds that many.
    fn worst_case(&self, b: usize) -> usize {
        self.inside
            .iter()
            .enumerate()
            .skip(1)
            .map(|(d, &n)| (n as usize).min(b).div_ceil(d.count_ones() as usize))
            .max()
            .unwrap_or(0)
    }
}

/// The capacity of the device set `set`: the sum of its devices'.
fn capacity(mut set: usize, caps: &[u16]) -> usize {
    let mut sum = 0;
    while set != 0 {
        sum += caps[set.trailing_zeros() as usize] as usize;
        set &= set - 1;
    }
    sum
}

/// The most accesses any `b` distinct buckets of `scheme` need, exactly.
pub fn worst_case_accesses<S: AllocationScheme + ?Sized>(scheme: &S, b: usize) -> usize {
    assert!(b >= 1 && b <= scheme.num_buckets());
    CutTable::of(scheme).worst_case(b)
}

/// Worst-case profile: [`worst_case_accesses`] for each request size
/// `1..=b_max`.
pub fn worst_case_profile<S: AllocationScheme + ?Sized>(scheme: &S, b_max: usize) -> Vec<usize> {
    let table = CutTable::of(scheme);
    (1..=b_max.min(scheme.num_buckets()))
        .map(|b| table.worst_case(b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retrieval::max_flow_retrieval;
    use crate::{DesignTheoretic, Raid1Chained, Raid1Mirrored};

    /// Advance `set` (sorted combination of `0..n`) to the next combination
    /// in lexicographic order; false when exhausted.
    fn next_combination(set: &mut [usize], n: usize) -> bool {
        let k = set.len();
        let mut i = k;
        while i > 0 {
            i -= 1;
            if set[i] < n - k + i {
                set[i] += 1;
                for j in (i + 1)..k {
                    set[j] = set[j - 1] + 1;
                }
                return true;
            }
        }
        false
    }

    /// The oracle: the worst max-flow cost over every `b`-set of buckets.
    fn exhaustive<S: AllocationScheme + ?Sized>(scheme: &S, b: usize) -> usize {
        let mut set: Vec<usize> = (0..b).collect();
        let mut worst = 0;
        loop {
            let reqs: Vec<&[usize]> = set.iter().map(|&x| scheme.replicas(x)).collect();
            worst = worst.max(max_flow_retrieval(&reqs, scheme.devices()).accesses);
            if !next_combination(&mut set, scheme.num_buckets()) {
                return worst;
            }
        }
    }

    /// The largest `b` whose worst case stays within `m` accesses, for each
    /// `m` in `1..=m_max`.
    fn largest_within<S: AllocationScheme>(scheme: &S, m_max: usize) -> Vec<usize> {
        let profile = worst_case_profile(scheme, scheme.num_buckets());
        (1..=m_max)
            .map(|m| profile.partition_point(|&w| w <= m))
            .collect()
    }

    #[test]
    fn combination_iterator_is_complete() {
        let mut set = vec![0, 1];
        let mut count = 1;
        while next_combination(&mut set, 5) {
            count += 1;
        }
        assert_eq!(count, 10); // C(5,2)
    }

    #[test]
    fn cut_table_counts_every_superset_of_a_support() {
        let mut t = CutTable::new(4);
        t.add(&[0, 2]);
        assert_eq!(t.cuts_around(&[0, 2]).count(), 4);
        assert_eq!(t.inside.iter().sum::<u32>(), 4);
        assert_eq!(t.inside[0b0101], 1);
        assert_eq!(t.inside[0b1111], 1);
        assert_eq!(t.inside[0b0001], 0);
    }

    #[test]
    fn cut_table_answers_the_batch_question() {
        // Four requests on the same three devices need two accesses; the
        // fourth does not fit one, and no request without a replica ever fits.
        let mut t = CutTable::new(3);
        for _ in 0..3 {
            assert!(t.fits(&[0, 1, 2], &[1; 3]));
            t.add(&[2, 0, 1]);
        }
        assert_eq!(t.accesses(), 1);
        assert!(!t.fits(&[0, 1, 2], &[1; 3]));
        assert!(t.fits(&[0, 1, 2], &[2; 3]));
        assert!(!t.fits(&[], &[5; 3]));
        t.add(&[1]);
        assert_eq!(t.accesses(), 2);
        assert_eq!(CutTable::new(3).accesses(), 0);
    }

    #[test]
    fn cut_capacity_is_the_sum_of_its_devices() {
        // Device 1 is out and device 2 serves one: `{1}` holds nothing, and
        // `{0, 1}` holds what device 0 alone serves.
        let caps = [2, 0, 1];
        let mut t = CutTable::new(3);
        assert!(!t.fits(&[1], &caps));
        t.add(&[0, 1]);
        assert!(t.fits(&[0, 1], &caps));
        t.add(&[0, 1]);
        assert!(!t.fits(&[0, 1], &caps));
        assert!(t.fits(&[1, 2], &caps));
        t.add(&[1, 2]);
        assert!(!t.fits(&[0, 1, 2], &caps));
    }

    #[test]
    fn rank_is_the_most_requests_served_at_once() {
        // Three requests on {0, 1} and one on {2}: device 1 out and device 0
        // serving two leaves room for two of the three, plus the fourth.
        let mut t = CutTable::new(3);
        assert_eq!(t.rank(&[1; 3]), 0);
        for r in [&[0, 1][..], &[1, 0], &[0, 1], &[2]] {
            t.add(r);
        }
        assert_eq!(t.rank(&[2, 0, 1]), 3);
        assert_eq!(t.rank(&[1, 1, 1]), 3);
        assert_eq!(t.rank(&[2, 1, 1]), 4);
        assert_eq!(t.rank(&[0, 0, 9]), 1);
        assert_eq!(t.rank(&[0; 3]), 0);
    }

    #[test]
    #[should_panic(expected = "a cut table covers 1..=16 devices")]
    fn more_than_sixteen_devices_is_rejected() {
        CutTable::new(17);
    }

    #[test]
    fn design_worst_case_matches_guarantee_at_small_sizes() {
        // Any 1..=5 buckets of (9,3,1) cost exactly 1 access, and the
        // guarantee is tight: some 6-set costs 2.
        let s = DesignTheoretic::paper_9_3_1();
        for b in 1..=5 {
            assert_eq!(worst_case_accesses(&s, b), 1, "b = {b}");
        }
        assert_eq!(worst_case_accesses(&s, 6), 2);
    }

    #[test]
    fn mirrored_worst_case_is_inferior() {
        // 4 buckets of one mirror group serialize: worst case ⌈4/3⌉ = 2 at
        // b = 4 already, while the design holds 1 until b = 6.
        assert_eq!(worst_case_accesses(&Raid1Mirrored::paper(), 4), 2);
        assert_eq!(worst_case_accesses(&DesignTheoretic::paper_9_3_1(), 4), 1);
    }

    #[test]
    fn chained_worst_case_between() {
        // 4 buckets from one 3-device chain window force 2 accesses.
        assert_eq!(worst_case_accesses(&Raid1Chained::paper(), 4), 2);
    }

    #[test]
    fn closed_form_equals_exhaustive_enumeration() {
        // Every `b` whose C(36, b) sets stay within 200 000, on three layouts.
        let choose = |n: u64, k: u64| (0..k).fold(1u64, |acc, i| acc * (n - i) / (i + 1));
        let schemes: [&dyn AllocationScheme; 3] = [
            &DesignTheoretic::paper_9_3_1(),
            &Raid1Chained::paper(),
            &Raid1Mirrored::paper(),
        ];
        for s in schemes {
            let n = s.num_buckets();
            let profile = worst_case_profile(s, n);
            for b in (1..=n).filter(|&b| choose(n as u64, b as u64) <= 200_000) {
                assert_eq!(profile[b - 1], exhaustive(s, b), "{} at b = {b}", s.name());
            }
        }
    }

    #[test]
    fn largest_sets_within_m_accesses_are_pinned() {
        // (9,3,1) meets the paper's S(M) = 5, 14, 27, 44 exactly (capped at
        // its 36 buckets); (13,3,1) serves any 30 buckets in 3 accesses where
        // S(3) promises 27.
        assert_eq!(
            largest_within(&DesignTheoretic::paper_9_3_1(), 4),
            [5, 14, 27, 36]
        );
        assert_eq!(
            largest_within(&DesignTheoretic::paper_13_3_1(), 5),
            [5, 14, 30, 44, 65]
        );
    }
}
