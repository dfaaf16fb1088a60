//! `BENCHMARK.json`, generated from the catalog and the workload table so
//! the file the driver reads cannot drift from what the code reports.

use crate::catalog::{MetricDef, END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::workloads;

/// Seconds one run measures (the driver passes it back as `--seconds`).
pub const RUN_SECONDS: u64 = 10;

pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

pub fn manifest() -> Json {
    let metric = |d: &MetricDef, bounded: bool| {
        let mut fields = vec![
            ("name", Json::str(d.name)),
            ("unit", Json::str(d.unit)),
            ("better", Json::str(d.better.as_str())),
        ];
        if bounded {
            fields.push(("bound", Json::Num(d.bound)));
        }
        Json::obj(fields)
    };
    Json::obj([
        (
            "command",
            Json::Arr(COMMAND.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                workloads::NAMES
                    .iter()
                    .map(|name| {
                        let w = workloads::workload(name).expect("every listed name resolves");
                        Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|d| metric(d, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|d| metric(d, false)).collect()),
        ),
    ])
}
