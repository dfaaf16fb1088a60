//! `compare <dirA> <dirB>`: one row per workload × end-to-end metric with
//! both medians and a verdict — *within bound*, *worse* (B's median is
//! worse than A's by more than the metric's bound) or *unresolved* (the
//! run-to-run spread on either side is wider than the bound, so the
//! medians cannot settle it). Runs of the same workload and seed must
//! have measured the same inputs.

use crate::catalog::{Better, END_TO_END};
use crate::json::Json;
use crate::sys;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    WithinBound,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub median_a: f64,
    pub median_b: f64,
    /// Interquartile range as a share of the median, per side.
    pub spread_a: f64,
    pub spread_b: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// One untraced run as `runs.jsonl` records it.
struct Run {
    seed: u64,
    fingerprint: String,
    metrics: BTreeMap<String, f64>,
}

/// Untraced runs of one directory by workload.
type Runs = BTreeMap<String, Vec<Run>>;

fn load(dir: &Path) -> Result<Runs, String> {
    let file = dir.join("runs.jsonl");
    let text =
        std::fs::read_to_string(&file).map_err(|e| format!("read {}: {e}", file.display()))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = Json::parse(line).map_err(|e| format!("{}:{}: {e}", file.display(), n + 1))?;
        let field = |k: &str| {
            v.get(k)
                .ok_or(format!("{}:{}: no {k}", file.display(), n + 1))
        };
        // End-to-end numbers come from untraced runs only.
        if field("trace")?.as_bool() != Some(false) {
            continue;
        }
        if field("correct")?.as_bool() != Some(true) {
            return Err(format!(
                "{}:{}: run failed its output checks",
                file.display(),
                n + 1
            ));
        }
        let Json::Obj(metrics) = field("end_to_end")? else {
            return Err(format!(
                "{}:{}: end_to_end is not an object",
                file.display(),
                n + 1
            ));
        };
        runs.entry(field("workload")?.as_str().unwrap_or_default().to_string())
            .or_default()
            .push(Run {
                seed: field("seed")?.as_f64().unwrap_or(0.0) as u64,
                fingerprint: field("fingerprint")?
                    .as_str()
                    .unwrap_or_default()
                    .to_string(),
                metrics: metrics
                    .iter()
                    .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                    .collect(),
            });
    }
    Ok(runs)
}

/// Compare two result directories. `Err` for unreadable input or inputs
/// that differ (fingerprint mismatch); otherwise every row.
pub fn compare(dir_a: &Path, dir_b: &Path) -> Result<Vec<Row>, String> {
    let (a, b) = (load(dir_a)?, load(dir_b)?);
    let mut rows = Vec::new();
    for (workload, runs_a) in &a {
        let Some(runs_b) = b.get(workload) else {
            continue;
        };
        for a in runs_a {
            if let Some(b) = runs_b
                .iter()
                .find(|b| b.seed == a.seed && b.fingerprint != a.fingerprint)
            {
                return Err(format!(
                    "{workload} seed {}: fingerprints differ ({} vs {}) — \
                     the two sides measured different inputs",
                    a.seed, a.fingerprint, b.fingerprint
                ));
            }
        }
        for def in END_TO_END {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(def.name).copied())
                    .collect()
            };
            let (mut va, mut vb) = (values(runs_a), values(runs_b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (median_a, median_b) = (sys::median(&mut va), sys::median(&mut vb));
            let (spread_a, spread_b) = (sys::iqr_share(&mut va), sys::iqr_share(&mut vb));
            let worse_by = match def.better {
                Better::Lower => (median_b - median_a) / median_a.abs(),
                Better::Higher => (median_a - median_b) / median_a.abs(),
            };
            // Set-up time is exempt from the spread rule: it is short, so
            // its spread is wide by nature, and it carries the widest
            // bound for that reason.
            let verdict = if def.name != "setup_s" && spread_a.max(spread_b) > def.bound {
                Verdict::Unresolved
            } else if worse_by > def.bound {
                Verdict::Worse
            } else {
                Verdict::WithinBound
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name,
                unit: def.unit,
                median_a,
                median_b,
                spread_a,
                spread_b,
                bound: def.bound,
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two directories share no untraced workload runs".into());
    }
    Ok(rows)
}

pub fn print(rows: &[Row]) {
    println!(
        "{:<14} {:<18} {:>16} {:>16} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "spread A", "spread B", "bound"
    );
    for r in rows {
        println!(
            "{:<14} {:<18} {:>16.4} {:>16.4} {:>8.2}% {:>8.2}% {:>6.1}%  {} [{}]",
            r.workload,
            r.metric,
            r.median_a,
            r.median_b,
            100.0 * r.spread_a,
            100.0 * r.spread_b,
            100.0 * r.bound,
            r.verdict.as_str(),
            r.unit,
        );
    }
}
