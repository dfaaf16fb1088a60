//! Every workload end to end at about 1/100 of a timed run's size: the
//! metrics are all there, fixed-size runs repeat exactly in simulated
//! time, the workloads separate the layers the way the README predicts,
//! and the guards (drift bound, output checks, manifest, compare) bite.

use fqos_benchmark::catalog::{END_TO_END, PER_LAYER};
use fqos_benchmark::compare::{self, Verdict};
use fqos_benchmark::json::Json;
use fqos_benchmark::manifest;
use fqos_benchmark::online::Limit;
use fqos_benchmark::report::RunResult;
use fqos_benchmark::run::{self, RunOpts};
use fqos_benchmark::workloads::{self, Kind};
use std::path::{Path, PathBuf};

fn out_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// About 1/100 of a ten-second run: windows for the online workloads,
/// reporting intervals for the offline one.
fn small(name: &str) -> Limit {
    match workloads::workload(name).unwrap().kind {
        Kind::Online(spec) => Limit::Windows(4 * spec.arrivals.cycle().max(500) as u64),
        Kind::Offline(_) => Limit::Windows(6),
    }
}

fn go(name: &str, seed: u64, trace: bool, dir: &Path) -> RunResult {
    let opts = RunOpts {
        seed,
        limit: small(name),
        trace,
        out_dir: dir.to_path_buf(),
        threads: None,
    };
    run::run(&workloads::workload(name).unwrap(), &opts)
        .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"))
}

fn assert_clean(r: &RunResult) {
    for c in &r.checks.0 {
        assert!(
            c.ok,
            "{}: check {} failed ({})",
            r.workload, c.name, c.detail
        );
    }
    assert!(r.correct(), "{}: not correct", r.workload);
    assert!(r.attempted > 0 && r.failed == 0, "{}", r.workload);
}

#[test]
fn traced_runs_name_every_metric_and_separate_the_layers() {
    let dir = out_dir("traced");
    let layer = |r: &RunResult, name: &str| r.per_layer.get(name).unwrap_or(0.0);
    let mut overflow_on = Vec::new();
    let mut erases_on = Vec::new();
    let mut fim_on = Vec::new();
    for name in workloads::NAMES {
        let r = go(name, 1, true, &dir);
        assert_clean(&r);
        assert!(
            r.end_to_end.unset().is_empty(),
            "{name}: {:?}",
            r.end_to_end.unset()
        );
        for (d, v) in r.end_to_end.iter() {
            assert!(v.is_finite() && v > 0.0, "{name}: {} = {v}", d.name);
        }
        for (d, v) in r.per_layer.iter() {
            assert!(v.is_finite(), "{name}: {} = {v}", d.name);
        }
        // The line the driver reads carries exactly the per-layer set.
        let line = Json::parse(&r.driver_line()).unwrap();
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("{name}: no metrics object");
        };
        assert_eq!(metrics.len(), PER_LAYER.len(), "{name}");
        assert!(dir.join(format!("trace-{name}.json")).exists(), "{name}");

        if layer(&r, "server.window.overflow") > 0.0 {
            overflow_on.push(name);
        }
        if layer(&r, "flashsim.ftl.erases") > 0.0 {
            erases_on.push(name);
        }
        if layer(&r, "fim.mine_ms_per_interval") > 0.0 || layer(&r, "fim.pairs_per_interval") > 0.0
        {
            fim_on.push(name);
        }
        match name {
            "steady_read" => {
                assert_eq!(layer(&r, "maxflow.try_add_full_pct"), 0.0);
                for d in PER_LAYER
                    .iter()
                    .filter(|d| d.name.starts_with("server.wal."))
                {
                    assert_eq!(layer(&r, d.name), 0.0, "{}", d.name);
                }
                assert_eq!(layer(&r, "sim.delayed_pct"), 0.0);
                // layer sum + sync gap = the untraced per-request cost.
                let traced_rps = r.end_to_end.get("throughput_rps").unwrap();
                let plain_rps = traced_rps / (1.0 - layer(&r, "bench.trace_overhead_pct") / 100.0);
                let cost = 1e9 / plain_rps;
                let sum = layer(&r, "server.engine.layer_sum_ns")
                    + layer(&r, "server.engine.sync_gap_ns");
                assert!((sum - cost).abs() < 1e-6 * cost, "{sum} vs {cost}");
                assert!(layer(&r, "server.engine.layer_sum_ns") > 0.0);
            }
            "hotspot_burst" => {
                assert!(layer(&r, "maxflow.try_add_full_pct") > 5.0);
                assert!(layer(&r, "server.window.delayed") > 0.0);
            }
            "stat_overflow" => {
                assert!(layer(&r, "decluster.pk_table_ms") > 0.0);
                assert!(layer(&r, "core.would_admit_ns") > 0.0);
            }
            "mixed_rw_gc" => {
                assert!(layer(&r, "flashsim.ftl.write_amp") > 1.0);
                assert!(layer(&r, "flashsim.ftl_write_ns") > 0.0);
            }
            "durable_read" => {
                assert!(layer(&r, "server.wal.fsyncs_per_window") >= 1.0);
                assert!(layer(&r, "server.wal.records_per_admit") >= 1.0);
                assert!(layer(&r, "server.wal.bytes_per_admit") > 0.0);
                assert!(layer(&r, "server.wal.replay_records") > 0.0);
            }
            "fleet_route" => {
                // Each array's windows see only its own tenants' requests.
                assert_eq!(layer(&r, "maxflow.try_add_full_pct"), 0.0);
                assert!(layer(&r, "cluster.router.route_ns") > 0.0);
                assert!(layer(&r, "cluster.control_tick_us") > 0.0);
                assert_eq!(layer(&r, "cluster.rebalances"), 0.0);
            }
            "offline_trace" => {
                assert!(layer(&r, "fim.matched_pct") > 0.0);
                assert!(layer(&r, "core.online_run_ns_per_req") > 0.0);
            }
            other => panic!("unlisted workload {other}"),
        }
    }
    assert_eq!(overflow_on, ["stat_overflow"]);
    assert_eq!(erases_on, ["mixed_rw_gc"]);
    assert_eq!(fim_on, ["offline_trace"]);
}

#[test]
fn fixed_size_runs_repeat_exactly_and_seeds_change_the_inputs() {
    let dir = out_dir("repeat");
    // Host-clock metrics differ run to run; these may not.
    let simulated = ["sim_resp_mean_us", "deadline_met_pct", "undelayed_pct"];
    for name in workloads::NAMES {
        let (a, b, c) = (
            go(name, 7, false, &dir),
            go(name, 7, false, &dir),
            go(name, 8, false, &dir),
        );
        for r in [&a, &b, &c] {
            assert_clean(r);
        }
        assert_eq!(a.fingerprint, b.fingerprint, "{name}");
        assert_ne!(a.fingerprint, c.fingerprint, "{name}");
        assert_eq!(a.attempted, b.attempted, "{name}");
        for m in simulated {
            assert_eq!(a.end_to_end.get(m), b.end_to_end.get(m), "{name}: {m}");
        }
        let line = Json::parse(&a.driver_line()).unwrap();
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("{name}: no metrics object");
        };
        assert_eq!(metrics.len(), END_TO_END.len(), "{name}");
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{name}");
    }
    // stat_overflow is hotspot_burst's arrivals under another policy.
    assert_eq!(
        go("hotspot_burst", 7, false, &dir).fingerprint,
        go("stat_overflow", 7, false, &dir).fingerprint
    );
}

#[test]
fn two_submitters_stay_within_the_drift_bound() {
    // Free-running, two submitters wrap the engine's window ring within a
    // few hundred windows; paced, they run as long as asked.
    let steady = workloads::workload("steady_read").unwrap();
    let paired = RunOpts {
        seed: 3,
        limit: Limit::Windows(6000),
        trace: false,
        out_dir: out_dir("drift"),
        threads: Some((2, 1)),
    };
    let r = run::run(&steady, &paired).unwrap();
    assert_clean(&r);
    assert_eq!(r.attempted, 6000 * 14);
    // The same inputs whatever the thread count.
    let single = RunOpts {
        threads: Some((1, 1)),
        ..paired
    };
    assert_eq!(
        r.fingerprint,
        run::run(&steady, &single).unwrap().fingerprint
    );
}

#[test]
fn a_broken_check_makes_the_run_incorrect() {
    let dir = out_dir("broken");
    let mut r = go("steady_read", 1, false, &dir);
    assert!(r.correct());
    // Expect one more `served` than the system settled.
    r.checks
        .eq("law.settled==admitted_total", r.attempted + 1, r.attempted);
    assert!(!r.correct());
    let line = Json::parse(&r.driver_line()).unwrap();
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
}

#[test]
fn benchmark_json_is_the_generated_manifest() {
    let file = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = Json::parse(&std::fs::read_to_string(&file).unwrap()).unwrap();
    assert_eq!(
        on_disk,
        manifest::manifest(),
        "regenerate with the `manifest` subcommand"
    );
    let runs = 4 + 22 * workloads::NAMES.len() as u64;
    assert!(
        runs * (manifest::RUN_SECONDS + 6) + 2 * 60 < 3420,
        "all runs must fit the driver's time cap"
    );
}

#[test]
fn compare_settles_runs_of_the_same_inputs_and_refuses_others() {
    let (a, b, c) = (out_dir("cmp-a"), out_dir("cmp-b"), out_dir("cmp-c"));
    // Two runs a side, one seed: fixed-size runs repeat exactly, so the
    // simulated metrics have no spread and the medians must agree.
    for dir in [&a, &b] {
        for _ in 0..2 {
            go("hotspot_burst", 1, false, dir).save(dir).unwrap();
        }
    }
    let rows = compare::compare(&a, &b).unwrap();
    assert_eq!(rows.len(), END_TO_END.len());
    for row in rows
        .iter()
        .filter(|r| r.metric.starts_with("sim_") || r.metric.ends_with("_pct"))
    {
        assert_eq!(row.median_a, row.median_b, "{}", row.metric);
        assert_eq!(row.verdict, Verdict::WithinBound, "{}", row.metric);
    }

    // The same seeds measured on other inputs are refused outright.
    let mut other = go("hotspot_burst", 1, false, &c);
    other.fingerprint ^= 1;
    other.save(&c).unwrap();
    assert!(compare::compare(&a, &c)
        .unwrap_err()
        .contains("fingerprints differ"));

    // A side that got worse by more than the bound is called worse.
    let d = out_dir("cmp-d");
    for _ in 0..2 {
        let mut worse = go("hotspot_burst", 1, false, &d);
        let v = worse.end_to_end.get("undelayed_pct").unwrap();
        worse.end_to_end.set("undelayed_pct", v * 0.5);
        worse.save(&d).unwrap();
    }
    let rows = compare::compare(&a, &d).unwrap();
    let row = rows.iter().find(|r| r.metric == "undelayed_pct").unwrap();
    assert_eq!(row.verdict, Verdict::Worse);
}
