//! The crash-test harness: `kill -9` a real journaled market daemon at
//! seeded-random points mid-epoch, restart it with `--recover`, and
//! prove the durability contract end to end, over real TCP sockets and
//! a real filesystem:
//!
//! * **zero accepted-bid loss** — every `Accepted` record durable at
//!   the instant of the kill is still present (and sealed) after
//!   recovery;
//! * **settlement-chain continuity** — the recovered journal passes the
//!   offline chain walk, and the `dauction verify-log` CLI agrees
//!   (exit 0);
//! * **tamper rejection** — flipping a byte of the recovered journal
//!   makes `verify-log` exit non-zero with a divergence report.
//!
//! The kill schedule derives from `CRASH_SEED` (CI sets a date-derived
//! seed, so the schedule rotates daily but any failure reproduces by
//! exporting the seed the log echoes).

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dauctioneer::market::{scan, verify_log, ScanResult};
use dauctioneer::types::JournalRecord;

const KILL_POINTS: u32 = 10;

fn crash_seed() -> u64 {
    std::env::var("CRASH_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x2026_0808)
}

/// xorshift64*: tiny, seedable, good enough to scatter kill points.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0 = self.0.wrapping_mul(0x2545_F491_4F6C_DD1D);
        self.0
    }
}

/// Kills the child on drop so a failing assertion never leaks a daemon.
struct Reaper(Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn temp_journal(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dauction-crash-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn read_scan(path: &Path) -> ScanResult {
    scan(&std::fs::read(path).expect("journal readable"))
}

/// The `(epoch, user)` identity of every `Accepted` record, in order.
fn accepted_records(result: &ScanResult) -> Vec<(u64, u32)> {
    result
        .records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Accepted { epoch, user, .. } => Some((*epoch, user.0)),
            _ => None,
        })
        .collect()
}

fn wait_for_file(path: &Path, timeout: Duration) {
    let start = Instant::now();
    while !path.exists() {
        assert!(start.elapsed() < timeout, "journal {} never appeared", path.display());
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The NP-hard mechanism under the same harness: kill a journaled
/// `--mechanism combinatorial` daemon at a seeded point, then recover
/// the durable prefix **twice** (two independent processes over two
/// copies of the same torn journal). Because the winner-determination
/// budget is counted in search nodes — never wall-clock — both
/// recoveries must re-clear every unsealed epoch to byte-identical
/// journals, seal them under the mechanism's name, and refuse to
/// recover under any other mechanism.
#[test]
fn combinatorial_recovery_re_clears_byte_identically() {
    let bin = env!("CARGO_BIN_EXE_dauction");
    let seed = crash_seed();
    println!("crash harness seed: {seed} (export CRASH_SEED={seed} to reproduce)");
    let mut rng = Rng(seed | 1);
    let spec = "combinatorial,budget=20000";
    let delay = Duration::from_millis(150 + rng.next() % 350);
    let load = ["--rate", "1500", "--mechanism", spec];
    let (path, survivors) = kill_and_recover(bin, "combinatorial", &load, delay);

    if survivors > 0 {
        let summary = verify_log(&path).expect("recovered journal verifies");
        assert!(summary.seals >= 1, "recovery sealed the replayed epochs");
        assert_eq!(
            summary.mechanism.as_deref(),
            Some("combinatorial-auction"),
            "seals carry the mechanism that cleared them"
        );

        // Provenance is enforced, not decorative: the same journal under
        // a different mechanism must be refused.
        let refused = Command::new(bin)
            .args(["serve", "--recover", "--epochs", "0", "--mechanism", "divisible"])
            .arg("--journal")
            .arg(&path)
            .output()
            .expect("run cross-mechanism recovery");
        assert!(!refused.status.success(), "recovery under a different mechanism must be refused");
        assert!(
            String::from_utf8_lossy(&refused.stderr).contains("refusing to re-clear"),
            "the refusal must name the mechanism conflict:\n{}",
            String::from_utf8_lossy(&refused.stderr)
        );
    }
    std::fs::remove_file(&path).unwrap();
}

/// One kill point: SIGKILL a journaled `serve --fsync always` daemon
/// (started with `load` on top of the fixed flags) `delay` after its
/// journal appears, recover it, and assert the durability contract.
/// Returns the recovered journal and how many accepted bids it holds.
fn kill_and_recover(bin: &str, label: &str, load: &[&str], delay: Duration) -> (PathBuf, usize) {
    let path = temp_journal(label);

    // A real daemon over real sockets, every acknowledgement fsynced.
    let child = Command::new(bin)
        .args(["serve", "--transport", "tcp", "--seed", "7", "--epochs", "1000000"])
        .args(["--fsync", "always"])
        .args(load)
        .arg("--journal")
        .arg(&path)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dauction serve");
    let mut child = Reaper(child);

    // Arm the timer only once the journal is live, then SIGKILL —
    // no drain, no final sync, mid-epoch with high probability.
    wait_for_file(&path, Duration::from_secs(10));
    std::thread::sleep(delay);
    child.0.kill().expect("SIGKILL the daemon");
    child.0.wait().expect("reap the daemon");
    drop(child);

    // What the file held at the instant of death: everything counted as
    // accepted, plus at most one staged-but-uncommitted batch — written,
    // never acknowledged, and kept by recovery all the same.
    let pre = read_scan(&path);
    let durable = accepted_records(&pre);

    // Restart with --recover, twice, over two copies of the same torn
    // journal: report and exit cleanly, re-clearing byte-identically.
    let twin = temp_journal(&format!("{label}-twin"));
    std::fs::copy(&path, &twin).expect("copy the torn journal");
    for journal in [&path, &twin] {
        let recovery = Command::new(bin)
            .args(["serve", "--recover", "--epochs", "0", "--seed", "7"])
            .args(load)
            .arg("--journal")
            .arg(journal)
            .output()
            .expect("run recovery");
        let stdout = String::from_utf8_lossy(&recovery.stdout);
        assert!(
            recovery.status.success(),
            "kill point {label} (delay {delay:?}): recovery failed\n{stdout}\n{}",
            String::from_utf8_lossy(&recovery.stderr)
        );
        assert!(
            stdout.contains("recovered:"),
            "kill point {label}: no recovery report in:\n{stdout}"
        );
    }
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&twin).unwrap(),
        "kill point {label}: two independent recoveries re-cleared the same epochs differently — \
         clearing must be a pure function of (seed, bids)"
    );
    std::fs::remove_file(&twin).unwrap();

    // Zero accepted-bid loss: the durable prefix survived verbatim
    // (recovery only appends — new seals — and truncates the torn
    // tail that was never acknowledged).
    let post = read_scan(&path);
    assert_eq!(post.dropped_bytes, 0, "kill point {label}: recovery left a torn tail");
    let survivors = accepted_records(&post);
    assert_eq!(
        survivors, durable,
        "kill point {label} (delay {delay:?}): accepted bids lost or invented"
    );

    // Chain continuity: the offline walk certifies every seal, and
    // every durable accepted bid is covered by one (the walk
    // cross-checks per-epoch counts against the seals).
    let summary = verify_log(&path)
        .unwrap_or_else(|e| panic!("kill point {label}: recovered journal rejected: {e}"));
    assert_eq!(summary.accepted, durable.len() as u64);
    let sealed_epochs: std::collections::BTreeSet<u64> = post
        .records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Sealed(seal) => Some(seal.epoch),
            _ => None,
        })
        .collect();
    for (epoch, user) in &durable {
        assert!(
            sealed_epochs.contains(epoch),
            "kill point {label}: accepted bid (epoch {epoch}, user {user}) has no seal"
        );
    }

    // The CLI agrees with the library.
    let status = Command::new(bin)
        .arg("verify-log")
        .arg(&path)
        .stdout(Stdio::null())
        .status()
        .expect("run verify-log");
    assert!(status.success(), "kill point {label}: verify-log rejected a recovered journal");
    (path, durable.len())
}

/// The same contract at a saturating arrival rate: the ingress queue
/// never runs dry, so the scheduler commits whole batches (one fsync
/// per 64-bid epoch, or per drained queue) and the clearers' seal
/// commits overlap them — the SIGKILL lands inside a multi-record batch
/// with staged-but-uncommitted records in the file.
#[test]
fn kill_dash_nine_inside_a_group_commit_batch_loses_nothing() {
    let bin = env!("CARGO_BIN_EXE_dauction");
    let seed = crash_seed();
    println!("crash harness seed: {seed} (export CRASH_SEED={seed} to reproduce)");
    let mut rng = Rng(seed | 1);
    let load = ["--rate", "1000000", "--n", "256", "--epoch-bids", "64"];
    let mut total_survivors = 0usize;
    for point in 0..KILL_POINTS {
        let delay = Duration::from_millis(20 + rng.next() % 350);
        let (path, survivors) = kill_and_recover(bin, &format!("s{point}"), &load, delay);
        total_survivors += survivors;
        std::fs::remove_file(&path).unwrap();
    }
    assert!(total_survivors > 0, "no kill point landed after the first accepted bid");
    println!("{KILL_POINTS} saturating kill points, {total_survivors} accepted bids, zero lost");
}

#[test]
fn kill_dash_nine_loses_no_accepted_bid() {
    let bin = env!("CARGO_BIN_EXE_dauction");
    let seed = crash_seed();
    println!("crash harness seed: {seed} (export CRASH_SEED={seed} to reproduce)");
    let mut rng = Rng(seed | 1);

    let mut total_survivors = 0usize;
    let mut last_journal: Option<PathBuf> = None;
    for point in 0..KILL_POINTS {
        let delay = Duration::from_millis(20 + rng.next() % 350);
        let (path, survivors) =
            kill_and_recover(bin, &format!("p{point}"), &["--rate", "1500"], delay);
        total_survivors += survivors;
        if point + 1 == KILL_POINTS {
            last_journal = Some(path);
        } else {
            std::fs::remove_file(&path).unwrap();
        }
    }
    println!("{KILL_POINTS} kill points, {total_survivors} durable accepted bids, zero lost");

    // Tamper rejection, CLI-level: flip one byte in the middle of the
    // last recovered journal — verify-log must exit non-zero and name
    // the failure.
    let path = last_journal.expect("last journal kept");
    let mut bytes = std::fs::read(&path).unwrap();
    if bytes.len() > 8 {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let tampered = Command::new(bin)
            .arg("verify-log")
            .arg(&path)
            .output()
            .expect("run verify-log on tampered journal");
        assert!(!tampered.status.success(), "verify-log accepted a tampered journal");
        assert!(
            String::from_utf8_lossy(&tampered.stderr).contains("FAILED"),
            "no divergence report on stderr"
        );
    }
    std::fs::remove_file(&path).unwrap();
}
