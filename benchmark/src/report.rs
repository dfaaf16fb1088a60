//! One run's result: metrics by name, the output checks, the config and
//! host it was measured on — as the one-line JSON the driver reads and the
//! fuller file under the output directory.

use crate::catalog::{Metrics, END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::sys::Host;
use std::path::Path;

/// One output check: what was compared and whether it held.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Collects checks; `eq`/`that` never short-circuit, so a failing run
/// lists everything that is wrong with it.
#[derive(Debug, Default)]
pub struct Checks(pub Vec<Check>);

impl Checks {
    pub fn eq(&mut self, name: &'static str, left: u64, right: u64) {
        self.0.push(Check {
            name,
            ok: left == right,
            detail: format!("{left} == {right}"),
        });
    }

    pub fn that(&mut self, name: &'static str, ok: bool, detail: String) {
        self.0.push(Check { name, ok, detail });
    }

    pub fn all_ok(&self) -> bool {
        self.0.iter().all(|c| c.ok)
    }
}

#[derive(Debug)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    /// Hash of the generated input stream; results with different
    /// fingerprints measured different work.
    pub fingerprint: u64,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    pub end_to_end: Metrics,
    /// Filled by the traced run only.
    pub per_layer: Metrics,
    pub config: Vec<(&'static str, String)>,
    pub host: Host,
    /// The throughput samples behind `throughput_rps`, in order: segment
    /// rates per submitter, or pass rates offline. Kept in the result file
    /// so a surprising median can be looked into.
    pub samples_rps: Vec<Vec<f64>>,
}

impl RunResult {
    pub fn new(workload: &'static str, seed: u64, trace: bool, host: Host) -> Self {
        RunResult {
            workload,
            seed,
            trace,
            fingerprint: 0,
            attempted: 0,
            failed: 0,
            checks: Checks::default(),
            end_to_end: Metrics::new(END_TO_END),
            per_layer: Metrics::new(PER_LAYER),
            config: Vec::new(),
            host,
            samples_rps: Vec::new(),
        }
    }

    /// Outputs are correct: every check held, every end-to-end metric was
    /// measured, and every reported number is finite.
    pub fn correct(&self) -> bool {
        self.checks.all_ok()
            && self.end_to_end.unset().is_empty()
            && self
                .end_to_end
                .iter()
                .chain(self.per_layer.iter())
                .all(|(_, v)| v.is_finite())
    }

    fn metrics_json(metrics: &Metrics) -> Json {
        Json::obj(metrics.iter().map(|(d, v)| {
            (
                d.name,
                Json::obj([
                    ("value", Json::Num(if v.is_finite() { v } else { 0.0 })),
                    ("unit", Json::str(d.unit)),
                ]),
            )
        }))
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed` and
    /// `metrics` — the end-to-end set untraced, the per-layer set traced.
    pub fn driver_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Self::metrics_json(if self.trace {
                    &self.per_layer
                } else {
                    &self.end_to_end
                }),
            ),
        ])
        .line()
    }

    /// What `compare` needs of a run: which inputs, whether it was
    /// correct, the end-to-end metrics.
    fn summary(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("trace", Json::Bool(self.trace)),
            (
                "fingerprint",
                Json::str(format!("{:016x}", self.fingerprint)),
            ),
            ("correct", Json::Bool(self.correct())),
            ("end_to_end", Self::metrics_json(&self.end_to_end)),
        ]
    }

    /// Everything about the run.
    pub fn to_json(&self) -> Json {
        let mut fields = self.summary();
        fields.extend([
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "host",
                Json::obj([
                    ("nproc", Json::Num(self.host.nproc as f64)),
                    ("commit", Json::str(&*self.host.commit)),
                    ("rustc", Json::str(&*self.host.rustc)),
                ]),
            ),
            (
                "config",
                Json::obj(self.config.iter().map(|(k, v)| (*k, Json::str(&**v)))),
            ),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .0
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("name", Json::str(c.name)),
                                ("ok", Json::Bool(c.ok)),
                                ("detail", Json::str(&*c.detail)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "samples_rps",
                Json::Arr(
                    self.samples_rps
                        .iter()
                        .map(|lane| Json::Arr(lane.iter().map(|&r| Json::Num(r.round())).collect()))
                        .collect(),
                ),
            ),
        ]);
        if self.trace {
            fields.push(("per_layer", Self::metrics_json(&self.per_layer)));
        }
        Json::obj(fields)
    }

    /// Every metric by name with its unit, then the checks.
    pub fn print_human(&self) {
        println!(
            "workload {} seed {} trace {} fingerprint {:016x} nproc {}",
            self.workload, self.seed, self.trace, self.fingerprint, self.host.nproc
        );
        let sets: &[&Metrics] = if self.trace {
            &[&self.end_to_end, &self.per_layer]
        } else {
            &[&self.end_to_end]
        };
        for (d, v) in sets.iter().flat_map(|m| m.iter()) {
            println!("  {:<40} {:>18.4} {}", d.name, v, d.unit);
        }
        for c in &self.checks.0 {
            println!(
                "  check {:<34} {} ({})",
                c.name,
                if c.ok { "ok" } else { "FAILED" },
                c.detail
            );
        }
    }

    /// Write `<dir>/<workload>.json` (this run in full) and append the
    /// run's summary line to `<dir>/runs.jsonl`, which `compare` reads.
    pub fn save(&self, dir: &Path) -> Result<(), String> {
        use std::io::Write;
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let file = dir.join(format!("{}.json", self.workload));
        std::fs::write(&file, self.to_json().pretty())
            .map_err(|e| format!("write {}: {e}", file.display()))?;
        let log = dir.join("runs.jsonl");
        let line = Json::obj(self.summary()).line();
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log)
            .and_then(|mut f| writeln!(f, "{line}"))
            .map_err(|e| format!("append {}: {e}", log.display()))
    }
}
