//! The `fqos` command line: a mistyped, foreign, repeated or misused flag
//! and a zero where a positive number belongs are errors (exit 1, never a
//! panic's 101), `--help` names every flag, and short `serve` and
//! `cluster` runs and a long `serve` still close their books.

use std::collections::HashSet;
use std::process::{Command, Output};

/// Run `fqos` on a whitespace-separated argument line.
fn fqos(line: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fqos"))
        .args(line.split_whitespace())
        .output()
        .expect("fqos runs")
}

/// `fqos <line>` must exit 1 with `error:` and `flag` on stderr.
fn rejects(line: &str, flag: &str) {
    let out = fqos(line);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{line}: {stderr}");
    assert!(
        stderr.starts_with("error:") && stderr.contains(flag),
        "{line} should name {flag}: {stderr}"
    );
}

#[test]
fn flags_outside_the_table_are_errors() {
    rejects("serve --devices 9 --wal-dri x", "--wal-dri");
    rejects("cluster --windows 10 --recover", "--recover");
    rejects("serve --devices 9 --windows 5 --windows 6", "--windows");
    rejects("serve --devices 9 --mode eft", "--mode");
    rejects("serve --devices 9 --no-hedge yes", "--no-hedge");
}

#[test]
fn zero_where_a_positive_number_belongs_is_an_error() {
    rejects("serve --devices 9 --accesses 0", "--accesses");
    rejects("cluster --accesses 0", "--accesses");
    rejects(
        "generate --blocks 0 --interval-ms 0.133 --total 10",
        "--blocks",
    );
    rejects(
        "generate --blocks 5 --interval-ms 0 --total 10",
        "--interval-ms",
    );
    rejects(
        "generate --blocks 5 --interval-ms 0.133 --total 10 --pool 0",
        "--pool",
    );

    let out = fqos("generate --blocks 5 --interval-ms 0.133 --total 50");
    assert!(out.status.success());
    let trace = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-analyze.trace");
    std::fs::write(&trace, &out.stdout).unwrap();
    rejects(
        &format!(
            "analyze --trace {} --devices 9 --reporting-ms 0",
            trace.display()
        ),
        "--reporting-ms",
    );
}

#[test]
fn help_names_every_flag_of_every_command() {
    let help = fqos("--help");
    assert!(help.status.success());
    let help = String::from_utf8(help.stdout).unwrap();
    let named: HashSet<&str> = help
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|word| word.starts_with("--"))
        .collect();
    for command in ["design", "generate", "analyze", "serve", "cluster"] {
        // An unknown flag's error lists the command's whole table.
        let out = fqos(&format!("{command} --no-such-flag"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        let (_, table) = stderr
            .lines()
            .next()
            .and_then(|line| line.split_once(&format!("{command} takes ")))
            .unwrap_or_else(|| panic!("{command}: no flag list in {stderr}"));
        for flag in table.split_whitespace() {
            assert!(
                named.contains(flag),
                "--help does not name {command}'s {flag}"
            );
        }
    }
}

/// `fqos <line>` must exit 0 and print a closed conservation law.
fn conserves(line: &str) {
    let out = fqos(line);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{line}: {stdout}{stderr}");
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with("conservation: ") && l.ends_with(" ✓")),
        "{stdout}"
    );
}

#[test]
fn a_short_serve_conserves() {
    conserves("serve --devices 9 --windows 20");
}

/// Three submitter threads over many times the window ring: none may run
/// so far ahead of another that the ring wraps under the slowest.
#[test]
fn a_long_serve_keeps_its_submitters_within_the_ring() {
    conserves("serve --devices 9 --windows 20000");
}

#[test]
fn a_short_cluster_closes_its_law() {
    let out = fqos("cluster --windows 10");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("law=OK"), "{stdout}");
}
