//! The process-kill survival harness: run the real multi-process
//! deployment — one `dauction coordinator` plus three `dauction
//! provider` child processes over real sockets — SIGKILL one provider
//! mid-epoch at a seeded point, and prove the deployment contract:
//!
//! * **honest-or-⊥ on survivors** — no epoch hangs and none diverges;
//!   every abort during the outage classifies `peer_down` (never
//!   `unknown`);
//! * **bounded close during the outage** — epochs touching the dead
//!   peer resolve within detection time, far below the session
//!   deadline budget;
//! * **rejoin at the next epoch boundary** — the restarted provider
//!   joins under a fresh incarnation within the reconnect budget and
//!   the cluster clears epochs again;
//! * **one mesh, not one per epoch** — every provider prints how many
//!   mesh bring-ups it made: the survivors' initial one, one for the
//!   roster change of the rejoin, and at most one more per ⊥ they
//!   decided — never one per epoch;
//! * **journal integrity across the kill** — `dauction verify-log`
//!   certifies the coordinator's settlement chain after the run.
//!
//! The kill point derives from `CRASH_SEED` (CI sets a date-derived
//! value echoed to the step summary; any failure reproduces by
//! exporting the seed the log prints). When `BENCH_HA_OUT` is set the
//! harness emits a `BENCH_ha.json` row — outage-window epoch p99,
//! rejoin-to-clear time and the steady-state (cleared-epoch) close
//! median — for the `ci/compare_bench.py` gate.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dauctioneer::market::verify_log;

const EPOCHS: u64 = 30;
const DEADLINE_MS: u64 = 3000;
const MESH_BUDGET_MS: u64 = 1500;
const EPOCH_MS: u64 = 250;

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

fn wait_exit(child: &mut Child, timeout: Duration) -> Option<std::process::ExitStatus> {
    let start = Instant::now();
    while start.elapsed() < timeout {
        if let Ok(Some(status)) = child.try_wait() {
            return Some(status);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    None
}

/// One timestamped line of the coordinator's stdout.
#[derive(Debug, Clone)]
struct Line {
    at: Instant,
    text: String,
}

/// Parse the `{:?}` rendering of a `Duration` (`"11.3ms"`, `"1.057s"`,
/// `"980.3µs"`, `"17ns"`).
fn parse_duration(text: &str) -> Option<Duration> {
    let text = text.trim();
    let (number, scale) = if let Some(v) = text.strip_suffix("µs") {
        (v, 1e-6)
    } else if let Some(v) = text.strip_suffix("ms") {
        (v, 1e-3)
    } else if let Some(v) = text.strip_suffix("ns") {
        (v, 1e-9)
    } else if let Some(v) = text.strip_suffix('s') {
        (v, 1.0)
    } else {
        return None;
    };
    number.parse::<f64>().ok().map(|v| Duration::from_secs_f64(v * scale))
}

/// A coordinator epoch line, decoded.
#[derive(Debug, Clone)]
struct EpochLine {
    cleared: bool,
    reason: Option<String>,
    latency: Duration,
    at: Instant,
}

/// Decode `epoch  N (session S): ... cleared in D` /
/// `epoch  N (session S): ... outcome ⊥ (reason), D` lines.
fn parse_epoch_line(line: &Line) -> Option<EpochLine> {
    let text = line.text.trim_start();
    if !text.starts_with("epoch") {
        return None;
    }
    let latency = parse_duration(text.rsplit([' ', ',']).next()?)
        .or_else(|| parse_duration(text.rsplit("cleared in ").next()?))?;
    if let Some(rest) = text.split("outcome ⊥ (").nth(1) {
        let reason = rest.split(')').next()?.to_string();
        return Some(EpochLine { cleared: false, reason: Some(reason), latency, at: line.at });
    }
    if text.contains("cleared in") {
        return Some(EpochLine { cleared: true, reason: None, latency, at: line.at });
    }
    None
}

/// Spawn a provider with its stdout piped: two short lines (the join
/// banner and the end-of-run summary), read after it exits.
fn spawn_provider(bin: &str, id: usize, addr: &str) -> Reaper {
    Reaper(
        Command::new(bin)
            .args(["provider", "--id", &id.to_string(), "--join", addr])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn dauction provider"),
    )
}

/// A provider's end-of-run summary, decoded.
#[derive(Debug, Clone, Copy)]
struct ProviderSummary {
    epochs: u64,
    aborted: u64,
    mesh_bringups: u64,
}

/// Decode `provider K done: E epochs (C cleared, A ⊥), R rejoin(s), B
/// mesh bring-up(s)` from an exited provider's stdout.
fn provider_summary(provider: &mut Child) -> ProviderSummary {
    let mut text = String::new();
    provider
        .stdout
        .take()
        .expect("provider stdout piped")
        .read_to_string(&mut text)
        .expect("read provider stdout");
    // The integer right before `marker`.
    let before = |marker: &str| -> u64 {
        text.split(marker)
            .next()
            .and_then(|head| head.rsplit([' ', '(']).next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no count before {marker:?} in provider output:\n{text}"))
    };
    ProviderSummary {
        epochs: before(" epochs ("),
        aborted: before(" ⊥)"),
        mesh_bringups: before(" mesh bring-up(s)"),
    }
}

/// The acceptance test of the multi-process deployment: a
/// 1-coordinator + 3-provider market of real OS processes survives a
/// SIGKILL of one provider mid-epoch.
#[test]
fn sigkill_mid_epoch_survivors_stay_honest_and_killed_provider_rejoins() {
    let bin = env!("CARGO_BIN_EXE_dauction");
    let seed = crash_seed();
    println!("process-kill harness seed: {seed} (export CRASH_SEED={seed} to reproduce)");
    let mut rng = Rng(seed | 1);

    let mut journal = std::env::temp_dir();
    journal.push(format!("dauction-prockill-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&journal);

    // The coordinator binds an ephemeral port and prints it; the
    // harness reads its stdout both for the address and for the
    // per-epoch outcome lines.
    let coordinator = Command::new(bin)
        .args([
            "coordinator",
            "--listen",
            "127.0.0.1:0",
            "--providers",
            "3",
            "--n",
            "8",
            "--seed",
            "7",
            "--epochs",
            &EPOCHS.to_string(),
            "--deadline-ms",
            &DEADLINE_MS.to_string(),
            "--mesh-budget-ms",
            &MESH_BUDGET_MS.to_string(),
            "--epoch-ms",
            &EPOCH_MS.to_string(),
            "--join-timeout-ms",
            "30000",
            "--journal",
        ])
        .arg(&journal)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn dauction coordinator");
    let mut coordinator = Reaper(coordinator);

    let lines: Arc<Mutex<Vec<Line>>> = Arc::new(Mutex::new(Vec::new()));
    let stdout = coordinator.0.stdout.take().expect("coordinator stdout piped");
    let reader = {
        let lines = Arc::clone(&lines);
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                lines.lock().expect("lines lock").push(Line { at: Instant::now(), text: line });
            }
        })
    };
    let wait_for = |pred: &dyn Fn(&[Line]) -> bool, timeout: Duration, what: &str| {
        let start = Instant::now();
        loop {
            if pred(&lines.lock().expect("lines lock")) {
                return;
            }
            assert!(start.elapsed() < timeout, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(10));
        }
    };

    wait_for(
        &|l| l.iter().any(|x| x.text.contains("control plane on")),
        Duration::from_secs(15),
        "the control-plane address",
    );
    let addr = {
        let held = lines.lock().expect("lines lock");
        let line = held.iter().find(|x| x.text.contains("control plane on")).unwrap();
        let after = line.text.split("control plane on ").nth(1).unwrap();
        after.split(',').next().unwrap().trim().to_string()
    };
    println!("coordinator control plane: {addr}");

    let mut providers: Vec<Option<Reaper>> =
        (0..3).map(|id| Some(spawn_provider(bin, id, &addr))).collect();

    // Seeded kill point: let a few epochs clear, then SIGKILL one
    // provider partway into an epoch period.
    let pre_kill = 2 + (rng.next() % 4) as usize;
    let victim = (rng.next() % 3) as usize;
    let sub_epoch_delay = Duration::from_millis(rng.next() % EPOCH_MS);
    wait_for(
        &|l| l.iter().filter(|x| parse_epoch_line(x).is_some()).count() >= pre_kill,
        Duration::from_secs(60),
        "the pre-kill epochs",
    );
    std::thread::sleep(sub_epoch_delay);
    let mut dead = providers[victim].take().expect("victim handle");
    dead.0.kill().expect("SIGKILL the victim provider");
    dead.0.wait().expect("reap the victim");
    drop(dead);
    println!("killed provider {victim} after {pre_kill} epochs (+{sub_epoch_delay:?})");

    // The coordinator must notice — at least one epoch aborts with the
    // new PeerDown classification — and must keep closing epochs on a
    // bounded clock rather than hanging on the dead peer.
    wait_for(
        &|l| {
            l.iter().filter_map(parse_epoch_line).any(|e| e.reason.as_deref() == Some("peer_down"))
        },
        Duration::from_secs(30),
        "a peer_down abort after the kill",
    );

    // Restart the victim: same id, a new process (new mesh port, fresh
    // incarnation). It must rejoin within the reconnect budget and the
    // cluster must clear epochs again.
    let restarted_at = Instant::now();
    providers[victim] = Some(spawn_provider(bin, victim, &addr));
    wait_for(
        &|l| {
            let epochs: Vec<EpochLine> = l.iter().filter_map(parse_epoch_line).collect();
            epochs.iter().any(|e| e.cleared && e.at > restarted_at)
        },
        Duration::from_secs(60),
        "a cleared epoch after the rejoin",
    );
    let reconnect = {
        let held = lines.lock().expect("lines lock");
        let first_clear = held
            .iter()
            .filter_map(parse_epoch_line)
            .find(|e| e.cleared && e.at > restarted_at)
            .expect("cleared epoch after rejoin");
        first_clear.at - restarted_at
    };
    println!("rejoin-to-clear time: {reconnect:?}");

    // Let the run complete and collect the full transcript.
    let status = wait_exit(&mut coordinator.0, Duration::from_secs(120))
        .expect("coordinator finished its epochs");
    assert!(status.success(), "coordinator exited non-zero");
    drop(coordinator);
    let _ = reader.join();
    for (id, provider) in providers.iter_mut().enumerate() {
        let provider = provider.as_mut().expect("all three providers run to the end");
        let status = wait_exit(&mut provider.0, Duration::from_secs(30)).expect("provider exited");
        assert!(status.success(), "a surviving provider exited non-zero");

        // The mesh is kept across clean epochs: a survivor dials it at
        // the start and again for the roster change of the rejoin, the
        // restarted victim once; each ⊥ a provider decided itself may
        // cost it one more bring-up, and nothing else does.
        let summary = provider_summary(&mut provider.0);
        println!("provider {id}: {summary:?}");
        let baseline = if id == victim { 1 } else { 2 };
        assert!(
            (baseline..=baseline + summary.aborted).contains(&summary.mesh_bringups),
            "provider {id} made {} mesh bring-ups over {} epochs ({} ⊥); expected {baseline} \
             plus at most one per ⊥",
            summary.mesh_bringups,
            summary.epochs,
            summary.aborted
        );
    }

    let transcript = lines.lock().expect("lines lock").clone();
    let epochs: Vec<EpochLine> = transcript.iter().filter_map(parse_epoch_line).collect();
    assert_eq!(epochs.len() as u64, EPOCHS, "every epoch printed an outcome line");

    // Honest-or-⊥: no divergence among survivors, and every
    // kill-induced abort classifies non-unknown.
    for (i, epoch) in epochs.iter().enumerate() {
        assert_ne!(epoch.reason.as_deref(), Some("divergence"), "epoch {i}: survivors diverged");
        assert_ne!(
            epoch.reason.as_deref(),
            Some("unknown"),
            "epoch {i}: an abort failed to classify"
        );
    }
    let outage: Vec<&EpochLine> =
        epochs.iter().filter(|e| e.reason.as_deref() == Some("peer_down")).collect();
    assert!(!outage.is_empty(), "the kill produced no peer_down abort");
    let mut steady: Vec<Duration> =
        epochs.iter().filter(|e| e.cleared).map(|e| e.latency).collect();
    steady.sort();
    let cleared = steady.len();
    assert!(
        cleared >= pre_kill,
        "only {cleared} epochs cleared across the whole run ({} outage aborts)",
        outage.len()
    );
    assert!(
        epochs.iter().any(|e| e.cleared && e.at > restarted_at),
        "no epoch cleared after the rejoin"
    );

    // Bounded close during the outage: peer-down epochs resolve by
    // detection, and no epoch of the run exceeds the full budget
    // (deadline + mesh bring-up + collection grace).
    let budget = Duration::from_millis(DEADLINE_MS + MESH_BUDGET_MS) + Duration::from_secs(3);
    let mut outage_latencies: Vec<Duration> = outage.iter().map(|e| e.latency).collect();
    outage_latencies.sort();
    let outage_p99 = *outage_latencies.last().expect("outage epochs present");
    assert!(
        outage_p99 < Duration::from_millis(DEADLINE_MS),
        "outage epochs must resolve by detection, not by the session deadline \
         (p99 {outage_p99:?})"
    );
    for (i, epoch) in epochs.iter().enumerate() {
        assert!(
            epoch.latency < budget,
            "epoch {i} close latency {:?} exceeded the {budget:?} budget",
            epoch.latency
        );
    }

    // The summary counts the rejoin.
    let summary = transcript
        .iter()
        .find(|l| l.text.contains("survivability:"))
        .expect("survivability summary printed");
    assert!(
        !summary.text.contains("0 provider reconnect(s)"),
        "the liveness layer counted no reconnect: {}",
        summary.text
    );

    // Settlement-chain integrity on the coordinator's journal: the
    // library walk and the CLI must both certify it.
    let summary = verify_log(&journal).expect("coordinator journal verifies after the kill");
    assert_eq!(summary.seals, EPOCHS, "every epoch sealed, aborted ones included");
    let cli = Command::new(bin)
        .arg("verify-log")
        .arg(&journal)
        .stdout(Stdio::null())
        .status()
        .expect("run verify-log");
    assert!(cli.success(), "verify-log rejected the coordinator journal");

    // The HA bench row for ci/compare_bench.py, when requested.
    if let Ok(out) = std::env::var("BENCH_HA_OUT") {
        let unix_time = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let json = format!(
            "{{\"bench\":\"ha\",\"provenance\":{{\"git_sha\":\"{}\",\
             \"host_cores\":{host_cores},\"unix_time\":{unix_time}}},\
             \"config\":{{\"m\":3,\"k\":1,\"n_users\":8,\"epochs\":{EPOCHS},\
             \"epoch_ms\":{EPOCH_MS},\"deadline_ms\":{DEADLINE_MS},\
             \"mesh_budget_ms\":{MESH_BUDGET_MS},\"seed\":{seed}}},\"runs\":[{{\
             \"scenario\":\"kill-one-provider\",\"outage_epochs\":{},\
             \"outage_epoch_p99_s\":{},\"reconnect_s\":{},\"steady_epoch_p50_s\":{},\
             \"epochs_cleared\":{}}}]}}\n",
            std::env::var("GITHUB_SHA").unwrap_or_else(|_| "local".into()),
            outage.len(),
            outage_p99.as_secs_f64(),
            reconnect.as_secs_f64(),
            // Cleared epochs are the ones outside the outage window.
            steady[cleared / 2].as_secs_f64(),
            cleared,
        );
        std::fs::write(&out, json).expect("write BENCH_ha.json");
        println!("wrote HA bench row to {out}");
    }
    std::fs::remove_file(&journal).unwrap();
}

/// Bring-up failure must name the providers that never arrived, not
/// just count them.
#[test]
fn coordinator_names_the_providers_that_never_joined() {
    let bin = env!("CARGO_BIN_EXE_dauction");
    let output = Command::new(bin)
        .args([
            "coordinator",
            "--listen",
            "127.0.0.1:0",
            "--providers",
            "3",
            "--epochs",
            "1",
            "--join-timeout-ms",
            "300",
        ])
        .output()
        .expect("run coordinator without providers");
    assert!(!output.status.success(), "bring-up must fail with no providers");
    let stderr = String::from_utf8_lossy(&output.stderr);
    for id in 0..3 {
        assert!(
            stderr.contains(&format!("provider {id}")),
            "bring-up error must name provider {id}:\n{stderr}"
        );
    }
}
