//! The one-shot CLI: `--mechanism` selects what clears, and an invalid
//! configuration or flag value is a usage error (exit 2, typed message),
//! never a panic backtrace or a silent default. Asking for `--help` is
//! not an error: every entry point prints its usage and exits 0.

use std::process::{Command, Output};

fn dauction(args: &[&str]) -> (Output, String) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_dauction")).args(args).output().expect("run dauction");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out, stderr)
}

#[test]
fn one_shot_rejects_m_not_above_2k_without_panicking() {
    let (out, stderr) = dauction(&["--m", "2", "--k", "1"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("m > 2k required"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn one_shot_clears_the_combinatorial_mechanism() {
    let (out, stderr) = dauction(&["--mechanism", "combinatorial", "--n", "12"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stdout.contains("combinatorial-auction"), "stdout: {stdout}");
    assert!(stdout.contains("outcome: agreed"), "stdout: {stdout}");
}

#[test]
fn one_shot_des_runtime_reports_a_virtual_span() {
    let (out, stderr) = dauction(&["--runtime", "des", "--latency", "community", "--n", "20"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stdout.contains("virtual span"), "stdout: {stdout}");
    assert!(stdout.contains("outcome: agreed"), "stdout: {stdout}");
}

#[test]
fn one_shot_threads_runtime_clears_under_community_latency() {
    let (out, stderr) = dauction(&["--latency", "community", "--n", "20"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stdout.contains("wall-clock (threaded)"), "stdout: {stdout}");
    assert!(stdout.contains("outcome: agreed") && !stdout.contains('⊥'), "stdout: {stdout}");
}

#[test]
fn one_shot_rejects_unknown_runtime_and_latency() {
    for args in [["--runtime", "bogus"], ["--latency", "bogus"]] {
        let (out, stderr) = dauction(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?} stderr: {stderr}");
        assert!(stderr.contains("bogus"), "{args:?} stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} stderr: {stderr}");
    }
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let entry_points: [(&[&str], &str); 6] = [
        (&["--help"], "usage: dauction"),
        (&["serve", "--help"], "dauction serve"),
        (&["coordinator", "-h"], "dauction coordinator"),
        (&["provider", "--help"], "dauction provider"),
        (&["verify-log", "--help"], "usage: dauction verify-log PATH"),
        (&["flight-dump", "-h"], "usage: dauction flight-dump PATH"),
    ];
    for (args, usage) in entry_points {
        let (out, stderr) = dauction(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{args:?} stderr: {stderr}");
        assert!(stdout.contains(usage), "{args:?} stdout: {stdout}");
        assert!(stderr.is_empty(), "{args:?} stderr: {stderr}");
    }
}

/// Every flag-taking entry point: its argv prefix, one numeric flag, and
/// every flag its table declares.
const TABLES: [(&[&str], &str, &[&str]); 4] = [
    (&[], "--n", &["--mechanism", "--n", "--m", "--k", "--seed", "--runtime", "--latency"]),
    (
        &["serve"],
        "--epochs",
        &[
            "--mechanism",
            "--rate",
            "--epochs",
            "--epoch-bids",
            "--epoch-ms",
            "--n",
            "--m",
            "--k",
            "--seed",
            "--transport",
            "--shards",
            "--chaos",
            "--deadline-ms",
            "--journal",
            "--fsync",
            "--recover",
            "--metrics-addr",
            "--flight-path",
            "--heartbeat-ms",
        ],
    ),
    (
        &["coordinator"],
        "--providers",
        &[
            "--listen",
            "--providers",
            "--k",
            "--n",
            "--epochs",
            "--seed",
            "--deadline-ms",
            "--mesh-budget-ms",
            "--join-timeout-ms",
            "--epoch-ms",
            "--journal",
            "--fsync",
            "--metrics-addr",
        ],
    ),
    (
        &["provider"],
        "--id",
        &[
            "--id",
            "--join",
            "--mesh-listen",
            "--heartbeat-ms",
            "--backoff-base-ms",
            "--backoff-cap-ms",
            "--reconnect-budget",
        ],
    ),
];

#[test]
fn unknown_flags_are_usage_errors_naming_the_flag() {
    for (prefix, _, _) in TABLES {
        let args = [prefix, &["--bogus", "1"]].concat();
        let (out, stderr) = dauction(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?} stderr: {stderr}");
        assert!(stderr.contains("--bogus"), "{args:?} stderr: {stderr}");
    }
}

#[test]
fn malformed_numbers_are_usage_errors_naming_flag_and_value() {
    for (prefix, numeric, _) in TABLES {
        let args = [prefix, &[numeric, "12x"]].concat();
        let (out, stderr) = dauction(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?} stderr: {stderr}");
        assert!(stderr.contains(numeric) && stderr.contains("12x"), "{args:?} stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} stderr: {stderr}");
    }
}

#[test]
fn help_lists_every_flag_of_the_table() {
    for (prefix, _, flags) in TABLES {
        let args = [prefix, &["--help"]].concat();
        let (out, stderr) = dauction(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{args:?} stderr: {stderr}");
        for flag in flags {
            let listed = stdout.lines().any(|line| line.split_whitespace().next() == Some(flag));
            assert!(listed, "{args:?}: {flag} missing from\n{stdout}");
        }
    }
}

#[test]
fn invalid_configurations_are_refused_before_any_side_effect() {
    // `serve` prints nothing before it validates; `coordinator` validates
    // before it binds (an unbindable address would otherwise fail first).
    for args in [
        &["serve", "--m", "2", "--k", "1"][..],
        &["coordinator", "--listen", "not-an-address", "--providers", "2", "--k", "1"],
    ] {
        let (out, stderr) = dauction(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} stderr: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} stdout: {}", String::from_utf8_lossy(&out.stdout));
        assert!(stderr.contains("invalid configuration"), "{args:?} stderr: {stderr}");
    }
}
