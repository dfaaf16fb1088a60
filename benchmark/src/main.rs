//! Command line of the benchmark. Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ... -- all [--seed n] [--seconds s] [--runs k] [--out dir]
//! ... -- compare <dirA> <dirB>
//! ... -- manifest            # prints BENCHMARK.json
//! ```
//!
//! `run` prints every metric by name with its unit, then — as the last
//! line of standard output — the one JSON object the driver reads. It
//! exits non-zero when an output check fails.

use fqos_benchmark::compare::{self, Verdict};
use fqos_benchmark::manifest::{self, RUN_SECONDS};
use fqos_benchmark::online::Limit;
use fqos_benchmark::run::{self, RunOpts};
use fqos_benchmark::workloads;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  run --workload <name> --seed <n> [--seconds <s> | --windows <n>] [--trace <0|1>] [--out <dir>]
  all [--seed <n>] [--seconds <s>] [--runs <k>] [--out <dir>]
  compare <dirA> <dirB>
  manifest";

const DEFAULT_OUT: &str = "benchmark/out";

/// `--flag value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .filter(|n| known.contains(n))
                .ok_or(format!("unknown argument {flag}"))?;
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            out.push((name.to_string(), value.clone()));
        }
        Ok(Flags(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| v.parse().map_err(|_| format!("--{name} {v}: not a number")))
            .transpose()
    }
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &["workload", "seed", "seconds", "windows", "trace", "out"],
    )?;
    let name = flags.get("workload").ok_or("run needs --workload")?;
    let workload = workloads::workload(name).ok_or(format!(
        "unknown workload {name}; one of {}",
        workloads::NAMES.join(", ")
    ))?;
    let limit = match (flags.num::<f64>("seconds")?, flags.num::<u64>("windows")?) {
        (_, Some(n)) if n > 0 => Limit::Windows(n),
        (Some(s), None) if s > 0.0 && s.is_finite() => Limit::Seconds(s),
        (None, None) => Limit::Seconds(RUN_SECONDS as f64),
        _ => return Err("--seconds and --windows must be positive".into()),
    };
    let opts = RunOpts {
        seed: flags.num("seed")?.unwrap_or(1),
        limit,
        trace: match flags.get("trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace {v}: expected 0 or 1")),
        },
        out_dir: PathBuf::from(flags.get("out").unwrap_or(DEFAULT_OUT)),
        threads: None,
    };
    let result = run::run(&workload, &opts)?;
    result.print_human();
    result.save(&opts.out_dir)?;
    println!("{}", result.driver_line());
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, each run in a process of its own so that peak memory
/// is that run's alone: `runs` untraced runs on consecutive seeds, then
/// one traced run.
fn cmd_all(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["seed", "seconds", "runs", "out"])?;
    let seed: u64 = flags.num("seed")?.unwrap_or(1);
    let seconds: f64 = flags.num("seconds")?.unwrap_or(RUN_SECONDS as f64);
    let runs: u64 = flags.num("runs")?.unwrap_or(1);
    let out = flags.get("out").unwrap_or(DEFAULT_OUT);
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut ok = true;
    for name in workloads::NAMES {
        for (s, trace) in (seed..seed + runs).map(|s| (s, "0")).chain([(seed, "1")]) {
            let status = Command::new(&exe)
                .args(["run", "--workload", name, "--out", out, "--trace", trace])
                .args(["--seed", &s.to_string(), "--seconds", &seconds.to_string()])
                .status()
                .map_err(|e| format!("start run of {name}: {e}"))?;
            ok &= status.success();
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare needs exactly two directories".into());
    };
    let rows = compare::compare(Path::new(a), Path::new(b))?;
    compare::print(&rows);
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} rows: {worse} worse, {unresolved} unresolved",
        rows.len()
    );
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "all" => cmd_all(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        Some((cmd, [])) if cmd == "manifest" => {
            print!("{}", manifest::manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}
