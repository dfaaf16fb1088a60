//! Statistical server-workload models replacing the SNIA traces.
//!
//! The paper's real-workload experiments consume four properties of the
//! Exchange and TPC-E traces:
//!
//! 1. the per-interval request-rate curve (Fig. 6),
//! 2. sub-millisecond burstiness (what makes the "original" layout miss
//!    deadlines while its average looks fine),
//! 3. skewed placement across the original volumes (hotspot devices),
//! 4. block co-occurrence that persists across intervals (what FIM mines;
//!    ≈17 % inter-interval re-match for Exchange, ≈87 % for TPC-E).
//!
//! [`ServerModel`] generates traces with exactly these properties;
//! [`exchange`] and [`tpce`] are the tuned presets. Scale is configurable —
//! the defaults run in seconds on a laptop while preserving the shapes.

pub mod exchange;
pub mod tpce;

use crate::arrivals::{bursty_arrivals, BurstyConfig};
use crate::record::{Trace, TraceRecord};
use fqos_flashsim::{IoOp, SimTime, BLOCK_SIZE_BYTES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Zipf};

pub use exchange::exchange;
pub use tpce::tpce;

/// Parameters of a statistical server workload.
#[derive(Debug, Clone)]
pub struct ServerModel {
    /// Trace name.
    pub name: String,
    /// Number of volumes (devices) in the original layout.
    pub num_devices: usize,
    /// Reporting interval length (scaled).
    pub interval_ns: SimTime,
    /// Per-interval mean request rate, requests/second. The vector length
    /// sets the number of intervals.
    pub rate_per_s: Vec<f64>,
    /// Burstiness σ of the log-normal rate modulation.
    pub burst_sigma: f64,
    /// Rate-modulation slot length (sub-interval bursts).
    pub burst_slot_ns: SimTime,
    /// Logical block space size.
    pub lbn_space: u64,
    /// Zipf exponent of block popularity.
    pub zipf_s: f64,
    /// Fraction of requests issued as correlated pairs.
    pub pair_fraction: f64,
    /// Number of correlated block pairs alive at a time.
    pub pair_pool: usize,
    /// Fraction of the pair pool redrawn at each interval boundary
    /// (low = persistent working set = high FIM re-match).
    pub pair_churn: f64,
    /// Zipf exponent of the device (volume) load skew.
    pub device_skew: f64,
    /// Working-set drift: hot-block window shift per interval, in blocks.
    pub drift_per_interval: u64,
    /// RNG seed.
    pub seed: u64,
}

impl ServerModel {
    /// Generate the trace.
    pub fn generate(&self) -> Trace {
        assert!(!self.rate_per_s.is_empty());
        assert!(self.lbn_space > 1);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let zipf = Zipf::new(self.lbn_space, self.zipf_s).expect("valid zipf");
        let device_weights = device_cumweights(self.num_devices, self.device_skew);

        // Correlated pair pool, refreshed with churn each interval.
        let mut pairs: Vec<(u64, u64)> = (0..self.pair_pool)
            .map(|_| self.draw_pair(&zipf, 0, &mut rng))
            .collect();

        let mut records = Vec::new();
        for (i, &rate) in self.rate_per_s.iter().enumerate() {
            let drift = self.drift_per_interval * i as u64;
            // Churn the pair pool.
            for p in pairs.iter_mut() {
                if rng.gen_bool(self.pair_churn) {
                    *p = self.draw_pair(&zipf, drift, &mut rng);
                }
            }
            let cfg = BurstyConfig {
                mean_rate_per_s: rate,
                slot_ns: self.burst_slot_ns,
                sigma: self.burst_sigma,
            };
            let start = i as u64 * self.interval_ns;
            let arrivals = bursty_arrivals(&cfg, start, self.interval_ns, &mut rng);

            // Assign blocks: pairs occupy two consecutive arrivals.
            let mut a = 0usize;
            while a < arrivals.len() {
                if a + 1 < arrivals.len() && rng.gen_bool(self.pair_fraction) {
                    let &(x, y) = &pairs[rng.gen_range(0..pairs.len())];
                    records.push(self.record(arrivals[a], x, &device_weights));
                    records.push(self.record(arrivals[a + 1], y, &device_weights));
                    a += 2;
                } else {
                    let lbn = self.draw_block(&zipf, drift, &mut rng);
                    records.push(self.record(arrivals[a], lbn, &device_weights));
                    a += 1;
                }
            }
        }
        Trace::new(
            self.name.clone(),
            records,
            self.num_devices,
            self.interval_ns,
        )
    }

    fn record(&self, arrival_ns: SimTime, lbn: u64, weights: &[f64]) -> TraceRecord {
        TraceRecord {
            arrival_ns,
            device: u16::try_from(device_of(lbn, weights))
                .expect("a model names at most 65 536 devices"),
            lbn,
            size_bytes: BLOCK_SIZE_BYTES,
            op: IoOp::Read,
        }
    }

    fn draw_block(&self, zipf: &Zipf<f64>, drift: u64, rng: &mut StdRng) -> u64 {
        // Zipf rank → block id, with the hot window drifting per interval to
        // model working-set movement.
        let rank = zipf.sample(rng) as u64 - 1;
        (rank + drift) % self.lbn_space
    }

    fn draw_pair(&self, zipf: &Zipf<f64>, drift: u64, rng: &mut StdRng) -> (u64, u64) {
        let a = self.draw_block(zipf, drift, rng);
        let mut b = self.draw_block(zipf, drift, rng);
        if b == a {
            b = (a + 1) % self.lbn_space;
        }
        (a, b)
    }
}

/// Cumulative device-share weights: device `i`'s share ∝ `1/(i+1)^skew`.
fn device_cumweights(n: usize, skew: f64) -> Vec<f64> {
    let raw: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(skew)).collect();
    let total: f64 = raw.iter().sum();
    let mut acc = 0.0;
    raw.iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// Deterministic device of a block: hash the LBN into `[0,1)` and pick by
/// cumulative share, so the same block always lives on the same volume.
fn device_of(lbn: u64, cumweights: &[f64]) -> usize {
    let h = splitmix64(lbn);
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    cumweights
        .partition_point(|&c| c < u)
        .min(cumweights.len() - 1)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_assignment_is_deterministic_and_skewed() {
        let w = device_cumweights(9, 1.0);
        assert!((w[8] - 1.0).abs() < 1e-12);
        // Determinism.
        assert_eq!(device_of(12345, &w), device_of(12345, &w));
        // Skew: device 0 gets the largest share over many blocks.
        let mut counts = vec![0usize; 9];
        for lbn in 0..100_000u64 {
            counts[device_of(lbn, &w)] += 1;
        }
        assert!(counts[0] > counts[8] * 2, "{counts:?}");
    }

    #[test]
    fn model_generates_sorted_reads_within_devices() {
        let m = ServerModel {
            name: "mini".into(),
            num_devices: 4,
            interval_ns: 50_000_000,
            rate_per_s: vec![2000.0; 4],
            burst_sigma: 1.0,
            burst_slot_ns: 1_000_000,
            lbn_space: 1000,
            zipf_s: 0.9,
            pair_fraction: 0.5,
            pair_pool: 50,
            pair_churn: 0.2,
            device_skew: 0.8,
            drift_per_interval: 10,
            seed: 9,
        };
        let t = m.generate();
        assert!(!t.is_empty());
        assert_eq!(t.num_devices, 4);
        assert!(t
            .records
            .windows(2)
            .all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        assert!(t.records.iter().all(|r| r.device < 4 && r.lbn < 1000));
        assert!(t.records.iter().all(|r| r.op == IoOp::Read));
        // Expected count ≈ rate × duration = 2000/s × 0.2 s = 400.
        assert!((200..800).contains(&t.len()), "{}", t.len());
    }

    #[test]
    fn pair_fraction_creates_adjacent_co_occurrence() {
        let base = ServerModel {
            name: "x".into(),
            num_devices: 4,
            interval_ns: 100_000_000,
            rate_per_s: vec![5000.0; 2],
            burst_sigma: 0.0,
            burst_slot_ns: 1_000_000,
            lbn_space: 10_000,
            zipf_s: 0.8,
            pair_fraction: 0.9,
            pair_pool: 20,
            pair_churn: 0.0,
            device_skew: 0.5,
            drift_per_interval: 0,
            seed: 4,
        };
        let t = base.generate();
        // With a tiny persistent pair pool, repeated adjacent (a,b) block
        // pairs must dominate: count adjacent pairs seen more than once.
        let mut counts = std::collections::HashMap::new();
        for w in t.records.windows(2) {
            *counts.entry((w[0].lbn, w[1].lbn)).or_insert(0u32) += 1;
        }
        let repeated: u32 = counts.values().filter(|&&c| c > 1).sum();
        assert!(
            repeated as usize > t.len() / 4,
            "repeated = {repeated}, len = {}",
            t.len()
        );
    }
}
