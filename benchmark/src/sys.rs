//! Host facts recorded with every result, and the order statistics the
//! benchmark reports.

use std::process::Command;
use std::time::Instant;

/// What the numbers were measured on. Thread counts derive from `nproc`,
/// so a result is only comparable with one from the same `nproc`.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub commit: String,
    pub rustc: String,
}

impl Host {
    pub fn probe() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            // The driver's checkout is not a git repository; say so rather
            // than fail.
            commit: tool_line("git", &["rev-parse", "HEAD"]),
            rustc: tool_line("rustc", &["--version"]),
        }
    }
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc` does
/// not offer it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median cost of one `Instant::now()` pair, subtracted from spans that
/// time a single sub-microsecond call.
pub fn timer_overhead_ns() -> f64 {
    let mut samples: Vec<f64> = (0..4096)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(t).elapsed().as_nanos() as f64
        })
        .collect();
    median(&mut samples)
}

/// Median; sorts in place. 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive"
/// method), so spreads computed here match the driver's. Needs two values.
pub fn quartiles(values: &mut [f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median (0 when undefined).
pub fn iqr_share(values: &mut [f64]) -> f64 {
    let Some((q1, q3)) = quartiles(values) else {
        return 0.0;
    };
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Value at quantile `q` of an ascending slice (nearest rank).
pub fn quantile_sorted(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    f64::from(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&mut [20.0, 10.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&mut [1.0]), None);
        assert!((iqr_share(&mut v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_and_rank() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(quantile_sorted(&[1, 2, 3, 4], 0.5), 2.0);
        assert_eq!(quantile_sorted(&[1, 2, 3, 4], 0.999), 4.0);
    }

    #[test]
    fn host_probe_never_fails() {
        let h = Host::probe();
        assert!(h.nproc >= 1);
        assert!(!h.rustc.is_empty() && !h.commit.is_empty());
        assert!(peak_rss_mib() >= 0.0);
        assert!(timer_overhead_ns() >= 0.0);
    }
}
