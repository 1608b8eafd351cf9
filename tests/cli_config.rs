//! The one-shot CLI rejects an invalid framework configuration with a
//! usage error (exit 2, typed message), never a panic backtrace.

use std::process::Command;

#[test]
fn one_shot_rejects_m_not_above_2k_without_panicking() {
    let out = Command::new(env!("CARGO_BIN_EXE_dauction"))
        .args(["--m", "2", "--k", "1"])
        .output()
        .expect("run dauction");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("m > 2k required"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
