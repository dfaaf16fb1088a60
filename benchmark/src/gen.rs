//! The benchmark's own input generator: a seeded PRNG, a Zipf sampler and
//! the per-workload arrival epochs. Nothing here calls into the system
//! under test — the program only ever sees the generated `(tenant, lbn,
//! arrival, op)` stream.

use crate::workloads::{Arrivals, Spec};

/// splitmix64: one multiply-xorshift round per draw, full 64-bit period.
/// Small, seedable and identical on every platform, which is all the
/// generator needs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (`n > 0`) by 128-bit multiply; the bias is below
    /// `n / 2^64`, far under anything a workload statistic can see.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf over ranks `0..n` by inverse-CDF lookup. Exponent 0 is uniform.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-exponent)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One generated request. `offset_ns` is its position inside its arrival
/// window: window `w` offers request `i` at `w·T + i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    pub lbn: u64,
    pub tenant: u32,
    pub offset_ns: u32,
    pub write: bool,
}

/// A bounded stretch of arrivals that the driver replays back to back
/// (window indices keep counting up), so memory holds one epoch however
/// long the run is.
#[derive(Debug, Clone)]
pub struct Epoch {
    pub reqs: Vec<Req>,
    /// `window_end[w]` = index one past window `w`'s last request.
    pub window_end: Vec<u32>,
    /// FNV-1a over the `(tenant, lbn, arrival, op)` stream of the whole
    /// epoch: a changed generator or workload changes it.
    pub fingerprint: u64,
}

impl Epoch {
    pub fn windows(&self) -> usize {
        self.window_end.len()
    }

    pub fn window(&self, w: usize) -> &[Req] {
        let start = if w == 0 { 0 } else { self.window_end[w - 1] } as usize;
        &self.reqs[start..self.window_end[w] as usize]
    }

    /// The sub-stream of the tenants one submitter thread drives (tenant
    /// index modulo the submitter count); offsets are kept, so arrival
    /// stamps do not depend on how many threads replay the epoch.
    pub fn split(&self, submitters: usize) -> Vec<Epoch> {
        (0..submitters)
            .map(|k| {
                let mut reqs = Vec::new();
                let mut window_end = Vec::with_capacity(self.windows());
                for w in 0..self.windows() {
                    reqs.extend(
                        self.window(w)
                            .iter()
                            .filter(|r| (r.tenant as usize - 1) % submitters == k),
                    );
                    window_end.push(reqs.len() as u32);
                }
                Epoch {
                    reqs,
                    window_end,
                    fingerprint: self.fingerprint,
                }
            })
            .collect()
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Fingerprint an arbitrary `(tenant, lbn, arrival, is_write)` stream.
pub fn fingerprint(stream: impl IntoIterator<Item = (u64, u64, u64, bool)>) -> u64 {
    let mut h = Fnv::new();
    for (tenant, lbn, arrival, write) in stream {
        h.u64(tenant);
        h.u64(lbn);
        h.u64(arrival);
        h.u64(u64::from(write));
    }
    h.0
}

/// Generate `windows` windows of arrivals for an engine or fleet workload.
///
/// Tenants take turns in a fixed slot pattern proportional to their
/// offered share, so a window at load `f` offers tenant `t` about
/// `f × reserved(t)` requests; buckets come from the workload's
/// [`Arrivals`] law and the LBN is a random row of that bucket
/// (`bucket + buckets × row`, which the scheme's modulo rule maps back).
pub fn generate(spec: &Spec, seed: u64, windows: usize) -> Epoch {
    let buckets = spec.buckets();
    let rows = spec.lbn_space / buckets as u64;
    assert!(
        rows > 0,
        "{}: lbn_space below one row of buckets",
        spec.name
    );
    let interval_ns = spec.qos().interval_ns;
    let mut rng = Rng::new(seed);
    let slots = tenant_slots(spec.reservations);

    // Popularity rank → bucket by a fixed stride, the same on every seed:
    // which buckets are hot decides which devices they share, and that
    // geometry must not vary between runs that are meant to be compared.
    // (Consecutive buckets are rotations of one design block and share all
    // their devices; a stride spreads the hot ranks over blocks.)
    assert!(
        gcd(RANK_STRIDE, buckets) == 1,
        "stride must visit every bucket"
    );
    let rank_to_bucket: Vec<usize> = (0..buckets).map(|r| r * RANK_STRIDE % buckets).collect();
    let zipf = match spec.arrivals {
        Arrivals::Zipf { exponent, .. } => Some(Zipf::new(buckets, exponent)),
        Arrivals::Distinct { .. } => None,
    };
    let mut pool: Vec<usize> = (0..buckets).collect();

    let mut reqs = Vec::new();
    let mut window_end = Vec::with_capacity(windows);
    for w in 0..windows {
        let n = spec.arrivals.offered(w, spec.limit());
        assert!(
            n <= u32::MAX as usize && (n as u64) < interval_ns,
            "window offers more requests than it has nanoseconds"
        );
        if zipf.is_none() {
            assert!(
                n <= buckets,
                "{}: more distinct buckets than exist",
                spec.name
            );
            shuffle_prefix(&mut pool, n, &mut rng);
        }
        for i in 0..n {
            let bucket = match &zipf {
                Some(z) => rank_to_bucket[z.sample(&mut rng)],
                None => pool[i],
            };
            reqs.push(Req {
                lbn: bucket as u64 + buckets as u64 * rng.below(rows),
                tenant: slots[i % slots.len()],
                offset_ns: i as u32,
                write: spec.write_share > 0.0 && rng.unit() < spec.write_share,
            });
        }
        window_end.push(reqs.len() as u32);
    }
    let fingerprint = fingerprint(stream_of(&reqs, &window_end, interval_ns));
    Epoch {
        reqs,
        window_end,
        fingerprint,
    }
}

fn stream_of<'a>(
    reqs: &'a [Req],
    window_end: &'a [u32],
    interval_ns: u64,
) -> impl Iterator<Item = (u64, u64, u64, bool)> + 'a {
    let mut w = 0usize;
    reqs.iter().enumerate().map(move |(i, r)| {
        while window_end[w] as usize <= i {
            w += 1;
        }
        (
            u64::from(r.tenant),
            r.lbn,
            w as u64 * interval_ns + u64::from(r.offset_ns),
            r.write,
        )
    })
}

const RANK_STRIDE: usize = 7;

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Partial Fisher–Yates: after the call the first `k` entries are a
/// uniform `k`-subset in uniform order.
fn shuffle_prefix(pool: &mut [usize], k: usize, rng: &mut Rng) {
    let n = pool.len();
    for i in 0..k {
        let j = i + rng.below((n - i) as u64) as usize;
        pool.swap(i, j);
    }
}

/// Tenant ids (1-based) interleaved round-robin until each appears as
/// often as it reserves: `[3,2]` → `1,2,1,2,1`.
fn tenant_slots(reservations: &[usize]) -> Vec<u32> {
    let mut left = reservations.to_vec();
    let mut slots = Vec::with_capacity(left.iter().sum());
    while left.iter().any(|&l| l > 0) {
        for (t, l) in left.iter_mut().enumerate() {
            if *l > 0 {
                *l -= 1;
                slots.push(t as u32 + 1);
            }
        }
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn slots_follow_reservations() {
        assert_eq!(tenant_slots(&[3, 2]), vec![1, 2, 1, 2, 1]);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(78, 0.9);
        let mut rng = Rng::new(7);
        let mut hits = vec![0u32; 78];
        for _ in 0..100_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > 4 * hits[40], "{hits:?}");
        assert!(hits.iter().all(|&h| h > 0));
    }

    #[test]
    fn steady_read_windows_are_full_and_distinct() {
        let spec = workloads::spec("steady_read").unwrap();
        let e = generate(&spec, 1, 64);
        for w in 0..e.windows() {
            let reqs = e.window(w);
            assert_eq!(reqs.len(), spec.limit());
            let mut b: Vec<u64> = reqs.iter().map(|r| r.lbn % 36).collect();
            b.sort_unstable();
            b.dedup();
            assert_eq!(b.len(), spec.limit(), "window {w} repeats a bucket");
        }
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let spec = workloads::spec("hotspot_burst").unwrap();
        let a = generate(&spec, 5, 800);
        let b = generate(&spec, 5, 800);
        let c = generate(&spec, 6, 800);
        assert_eq!(a.reqs, b.reqs);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_ne!(a.fingerprint, c.fingerprint);
    }

    #[test]
    fn split_keeps_every_request_once() {
        let spec = workloads::spec("steady_read").unwrap();
        let e = generate(&spec, 3, 32);
        let parts = e.split(2);
        assert_eq!(
            parts.iter().map(|p| p.reqs.len()).sum::<usize>(),
            e.reqs.len()
        );
        assert!(parts[0].reqs.iter().all(|r| r.tenant % 2 == 1));
    }
}
