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
