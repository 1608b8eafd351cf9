//! Drive one `MarketService` through warm-up, the paced phase and the
//! capacity phase, from outside: one submitter thread (this one), one
//! receiver thread, the benchmark's clock only.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dauctioneer_crypto::Sha256;
use dauctioneer_market::{
    verify_log, EpochOutcome, FsyncPolicy, Journal, JournalConfig, MarketService, MarketStats,
    TelemetryConfig,
};
use dauctioneer_telemetry::EpochTrace;
use dauctioneer_types::{BidEntry, BidVector, Encode, UserBid, UserId};

use crate::report::Report;
use crate::stats::{chunked_rate, median, ms, quantile, us, windowed_quantile};
use crate::workloads::{Inputs, Sizes, Workload, RECOVERY_EPOCHS};

/// How long the submitter waits for a phase's last outcome before the run
/// is declared failed (the program's own session deadline is 60 s).
const PHASE_TIMEOUT: Duration = Duration::from_secs(90);

/// What one journal fsync is charged in `sealed_bids_per_s` (see
/// [`summarize`]): a round number near the mean this repo recorded on its
/// reference box.
pub const NOMINAL_FSYNC: Duration = Duration::from_micros(200);

/// One epoch kept for the recovery drill and the layer replay.
#[derive(Debug, Clone)]
pub struct KeptEpoch {
    pub epoch: u64,
    pub session: u64,
    pub seed: u64,
    pub bids: BidVector,
    /// The unanimous outcome, encoded.
    pub outcome: bytes::Bytes,
}

/// What the receiver thread saw.
#[derive(Debug)]
pub struct Received {
    /// `recv_at[e]`: when epoch `e`'s sealed outcome came off
    /// `take_outcomes()` — where every latency clock stops.
    pub recv_at: Vec<Option<Instant>>,
    /// The program's own `EpochOutcome::latency`, per received epoch.
    pub program_latency_ms: Vec<f64>,
    pub failures: Vec<String>,
    /// Epochs that arrived but failed a check (⊥, not unanimous, wrong bids).
    pub bad_epochs: usize,
    pub digest: String,
    pub kept: Vec<KeptEpoch>,
}

fn check_outcome(w: &Workload, inputs: &Inputs, o: &EpochOutcome) -> Result<(), String> {
    let e = o.epoch as usize;
    if o.outcome.is_abort() {
        return Err(format!("epoch {e} is ⊥"));
    }
    if o.outcomes.len() != w.m || o.outcomes.iter().any(|p| *p != o.outcome) {
        return Err(format!("epoch {e} is not unanimous across {} providers", w.m));
    }
    if o.accepted_bids != w.epoch_bids || o.bids.num_valid_users() != w.epoch_bids {
        return Err(format!(
            "epoch {e} holds {} accepted / {} valid bids, expected {}",
            o.accepted_bids,
            o.bids.num_valid_users(),
            w.epoch_bids
        ));
    }
    for i in e * w.epoch_bids..(e + 1) * w.epoch_bids {
        let user = UserId((i % w.n_users) as u32);
        if *o.bids.user_bid(user) != BidEntry::Valid(inputs.bid(i)) {
            return Err(format!("bid {i} (user {user}) is not in epoch {e} as submitted"));
        }
    }
    Ok(())
}

fn receive(
    outcomes: impl Iterator<Item = EpochOutcome>,
    w: Workload,
    inputs: Arc<Inputs>,
    total_epochs: usize,
    keep_epochs: usize,
    received: Arc<AtomicUsize>,
) -> Received {
    let mut out = Received {
        recv_at: vec![None; total_epochs],
        program_latency_ms: Vec::with_capacity(total_epochs),
        failures: Vec::new(),
        bad_epochs: 0,
        digest: String::new(),
        kept: Vec::new(),
    };
    let mut digest = Sha256::new();
    let mut next = 0usize;
    for o in outcomes {
        let at = Instant::now();
        let e = o.epoch as usize;
        // One shard, one clearer: outcomes arrive in epoch order, and the
        // digest depends on it.
        let verdict = if e != next || e >= total_epochs {
            Err(format!("epoch {e} arrived where epoch {next} was expected"))
        } else {
            check_outcome(&w, &inputs, &o)
        };
        next = e + 1;
        if e < total_epochs {
            out.recv_at[e] = Some(at);
        }
        out.program_latency_ms.push(ms(o.latency));
        let encoded = o.outcome.encode_to_bytes();
        digest.update(&encoded);
        match verdict {
            Ok(()) => {
                if e < keep_epochs {
                    out.kept.push(KeptEpoch {
                        epoch: o.epoch,
                        session: o.session.0,
                        seed: o.seed,
                        bids: o.bids,
                        outcome: encoded,
                    });
                }
            }
            Err(why) => {
                out.bad_epochs += 1;
                if out.failures.len() < 8 {
                    out.failures.push(why);
                }
            }
        }
        if received.fetch_add(1, Ordering::Release) + 1 >= total_epochs {
            break;
        }
    }
    out.digest = digest.finalize().to_hex();
    out
}

/// Block until `target` epochs were received; `false` on timeout.
fn wait_for(received: &AtomicUsize, target: usize) -> bool {
    let deadline = Instant::now() + PHASE_TIMEOUT;
    while received.load(Ordering::Acquire) < target {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    true
}

/// Wait for `target`: sleep while it is far, spin for the last stretch
/// (`thread::sleep` overshoots by tens of µs, the schedule's gaps are that
/// short).
fn wait_until(target: Instant) -> Instant {
    loop {
        let now = Instant::now();
        if now >= target {
            return now;
        }
        let left = target - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

pub struct PassSpec<'a> {
    pub w: &'a Workload,
    pub sizes: Sizes,
    pub inputs: Arc<Inputs>,
    pub seed: u64,
    pub journal: Option<&'a Path>,
    pub telemetry: TelemetryConfig,
    /// Time every `submit_bid` call and sample the ingress depth (traced
    /// runs only: it costs two clock reads per bid).
    pub instrument: bool,
    /// Keep the vectors and outcomes of the first this-many epochs.
    pub keep_epochs: usize,
}

/// Everything measured around one service's life.
pub struct PassResult {
    pub received: Received,
    pub submit_errors: u64,
    pub timed_out: bool,
    pub paced_t0: Instant,
    /// Per paced bid: how late the submitter called `submit_bid`, µs.
    pub late_us: Vec<f32>,
    pub paced_sent_last: Instant,
    /// Per paced bid: duration of the `submit_bid` call, µs (instrumented).
    pub submit_call_us: Vec<f32>,
    pub capacity_t0: Instant,
    /// Journal fsyncs issued during the capacity phase, and the time the
    /// program measured inside them (`MarketStats::journal_*`).
    pub capacity_fsyncs: u64,
    pub capacity_fsync_time: Duration,
    /// Capacity-phase wall spent inside `submit_bid` (instrumented).
    pub capacity_in_submit: Duration,
    pub queue_depth_max: usize,
    pub stats: MarketStats,
    pub traces: Vec<EpochTrace>,
}

/// Start the service, announce readiness through `on_ready`, run the phases
/// the inputs hold, shut down. With `setup_only` the service is started and
/// shut down again without a single bid.
pub fn run_pass(
    spec: &PassSpec<'_>,
    on_ready: &mut dyn FnMut(),
    setup_only: bool,
) -> Result<Option<PassResult>, String> {
    let w = spec.w;
    let config = w.market_config(spec.seed, spec.journal, spec.telemetry.clone());
    let mut service = MarketService::start_from_spec(config).map_err(|e| e.to_string())?;
    let outcomes = service.take_outcomes().expect("first subscription");
    let handle = service.handle();
    let total_epochs = spec.sizes.total_epochs();
    let received = Arc::new(AtomicUsize::new(0));
    let receiver = {
        let (w, inputs, received) = (*w, Arc::clone(&spec.inputs), Arc::clone(&received));
        let keep = spec.keep_epochs;
        std::thread::Builder::new()
            .name("bench-receiver".into())
            .spawn(move || {
                let stream = std::iter::from_fn(move || outcomes.recv().ok());
                receive(stream, w, inputs, total_epochs, keep, received)
            })
            .map_err(|e| e.to_string())?
    };
    on_ready();
    if setup_only {
        drop(handle);
        service.shutdown();
        let _ = receiver.join();
        return Ok(None);
    }

    // The depth sampler reads what an operator's scrape would read.
    let stop_sampler = Arc::new(AtomicBool::new(false));
    let sampler = spec.instrument.then(|| {
        let (watch, stop) = (service.watch(), Arc::clone(&stop_sampler));
        std::thread::spawn(move || {
            let mut max = 0usize;
            while !stop.load(Ordering::Relaxed) {
                max = max.max(watch.stats().queue_depth);
                std::thread::sleep(Duration::from_millis(5));
            }
            max
        })
    });

    let inputs = &spec.inputs;
    let mut submit_errors = 0u64;
    // Position in the whole run: it fixes the bid's user and epoch.
    let mut index = 0usize;
    let mut submit = |bid: UserBid| {
        let user = UserId((index % w.n_users) as u32);
        submit_errors += handle.submit_bid(user, bid).is_err() as u64;
        index += 1;
    };
    // Wait for every epoch submitted so far; after one timeout the run has
    // failed and nothing more is waited for.
    let mut epochs_due = 0usize;
    let mut timed_out = false;
    let mut drain = |epochs: usize| {
        epochs_due += epochs;
        timed_out = timed_out || !wait_for(&received, epochs_due);
    };

    // Warm-up: closed loop, nothing timed.
    inputs.warmup.iter().for_each(|bid| submit(*bid));
    drain(spec.sizes.warmup_epochs);

    // Paced phase: open loop. A bid's clock starts when it was due, not
    // when this thread got round to it.
    let paced_t0 = Instant::now() + Duration::from_millis(2);
    let mut late_us = Vec::with_capacity(inputs.paced.len());
    let mut submit_call_us =
        Vec::with_capacity(if spec.instrument { inputs.paced.len() } else { 0 });
    let mut paced_sent_last = paced_t0;
    for paced in &inputs.paced {
        let due = paced_t0 + paced.due;
        let sent = wait_until(due);
        submit(paced.bid);
        if spec.instrument {
            submit_call_us.push(us(sent.elapsed()) as f32);
        }
        late_us.push(us(sent - due) as f32);
        paced_sent_last = sent;
    }
    drain(spec.sizes.paced_epochs);

    // Capacity phase: closed loop through blocking ingress, fixed count.
    let fsync_totals = |stats: &MarketStats| {
        (stats.journal_fsyncs, stats.journal_fsync_mean.mul_f64(stats.journal_fsyncs as f64))
    };
    let fsyncs_before = fsync_totals(&service.stats());
    let capacity_t0 = Instant::now();
    let mut capacity_in_submit = Duration::ZERO;
    if spec.instrument {
        for bid in &inputs.capacity {
            let called = Instant::now();
            submit(*bid);
            capacity_in_submit += called.elapsed();
        }
    } else {
        // No clock reads in the untraced loop: it is the thing measured.
        inputs.capacity.iter().for_each(|bid| submit(*bid));
    }
    drain(spec.sizes.capacity_epochs);
    let fsyncs_after = fsync_totals(&service.stats());

    stop_sampler.store(true, Ordering::Relaxed);
    let queue_depth_max = sampler.map_or(0, |s| s.join().unwrap_or(0));
    let traces = if spec.instrument { service.recent_traces() } else { Vec::new() };
    drop(handle);
    let stats = service.shutdown();
    let received = receiver.join().map_err(|_| "receiver thread panicked".to_string())?;
    Ok(Some(PassResult {
        received,
        submit_errors,
        timed_out,
        paced_t0,
        late_us,
        paced_sent_last,
        submit_call_us,
        capacity_t0,
        capacity_fsyncs: fsyncs_after.0 - fsyncs_before.0,
        capacity_fsync_time: fsyncs_after.1.saturating_sub(fsyncs_before.1),
        capacity_in_submit,
        queue_depth_max,
        stats,
        traces,
    }))
}

/// The end-to-end numbers of one pass, and the failure accounting.
pub fn summarize(spec: &PassSpec<'_>, pass: &PassResult, report: &mut Report) {
    let w = spec.w;
    let inputs = &spec.inputs;
    let recv_at = &pass.received.recv_at;
    let epoch_bids = w.epoch_bids;
    let warm = inputs.warmup.len();

    report.attempted = inputs.total_bids() as u64;
    let unsealed = recv_at.iter().filter(|r| r.is_none()).count();
    let in_bad_epochs = ((unsealed + pass.received.bad_epochs) * epoch_bids) as u64;
    report.failed = in_bad_epochs.max(pass.submit_errors).min(report.attempted);
    for why in &pass.received.failures {
        report.fail(why.clone());
    }
    if pass.timed_out {
        report.fail(format!("{unsealed} epochs were never sealed within {PHASE_TIMEOUT:?}"));
    }
    if pass.submit_errors > 0 {
        report.fail(format!("{} submit_bid calls were refused", pass.submit_errors));
    }
    let s = &pass.stats;
    let rejected =
        s.bids_shed + s.bids_rejected_invalid + s.bids_rejected_duplicate + s.bids_rejected_unknown;
    if rejected > 0 || s.epochs_aborted > 0 || s.bids_accepted != report.attempted {
        report.fail(format!(
            "program counters: {} accepted of {}, {rejected} shed or rejected, {} epochs aborted",
            s.bids_accepted, report.attempted, s.epochs_aborted
        ));
    }
    report.outcome_digest = pass.received.digest.clone();

    // Paced phase: per bid, due → sealed outcome received; per epoch, the
    // last bid's due time → sealed outcome received.
    let mut bid_to_seal = Vec::with_capacity(inputs.paced.len());
    let mut close_to_seal = Vec::with_capacity(spec.sizes.paced_epochs);
    for (i, paced) in inputs.paced.iter().enumerate() {
        let e = (warm + i) / epoch_bids;
        if let Some(at) = recv_at[e] {
            let latency = ms(at.saturating_duration_since(pass.paced_t0 + paced.due));
            bid_to_seal.push(latency);
            if (warm + i + 1) % epoch_bids == 0 {
                close_to_seal.push(latency);
            }
        }
    }
    report.note("bid_to_seal_samples", bid_to_seal.len());
    report.note("close_to_seal_samples", close_to_seal.len());
    // Inside each window of the schedule, then the median window (see
    // `stats::WINDOWS`).
    if let (Some(p50), Some(p99), Some(close)) = (
        windowed_quantile(&bid_to_seal, 0.5),
        windowed_quantile(&bid_to_seal, 0.99),
        windowed_quantile(&close_to_seal, 0.5),
    ) {
        report.e2e("bid_to_seal_p50_ms", p50, "ms");
        report.e2e("bid_to_seal_p99_ms", p99, "ms");
        report.e2e("close_to_seal_p50_ms", close, "ms");
    }
    if let Some(p95) = quantile(&mut close_to_seal, 0.95) {
        report.layer("service.close_to_seal_p95_ms", p95, "ms");
    }

    // Capacity phase: accepted-and-sealed bids per second of the closed
    // loop. Without a journal it is the median rate over runs of consecutive
    // epochs. With one it is taken on a modelled disk: this sandbox's
    // virtual disk is nobody's production disk and its fsync latency swings
    // fourfold from one second to the next, so every fsync the program
    // issued is charged NOMINAL_FSYNC instead of what the disk happened to
    // take (the program times its own fsyncs: `MarketStats::journal_*`).
    let first = recv_at.len() - spec.sizes.capacity_epochs;
    let sealed: Vec<Instant> = recv_at[first..].iter().flatten().copied().collect();
    if let (Some(chunked), Some(last)) =
        (chunked_rate(pass.capacity_t0, &sealed, epoch_bids), sealed.last())
    {
        let wall = last.saturating_duration_since(pass.capacity_t0).as_secs_f64();
        let rate = if pass.capacity_fsyncs == 0 {
            chunked
        } else {
            let measured = pass.capacity_fsync_time.as_secs_f64().min(wall);
            let charged = pass.capacity_fsyncs as f64 * NOMINAL_FSYNC.as_secs_f64();
            report.note("capacity_phase_fsync_share", format!("{:.3}", measured / wall));
            report.note(
                "capacity_phase_fsync_mean_us",
                format!("{:.1}", measured * 1e6 / pass.capacity_fsyncs as f64),
            );
            (sealed.len() * epoch_bids) as f64 / (wall - measured + charged)
        };
        report.e2e("sealed_bids_per_s", rate, "bids/s");
        report.layer("service.epochs_per_s", rate / epoch_bids as f64, "1/s");
        report.layer(
            "ingress.blocked_share",
            pass.capacity_in_submit.as_secs_f64() / wall.max(f64::MIN_POSITIVE),
            "ratio",
        );
        report.note("capacity_phase_s", format!("{wall:.3}"));
    }

    // Generator honesty: how late the open loop ran and what rate it held.
    let mut late_ms: Vec<f64> = pass.late_us.iter().map(|l| f64::from(*l) / 1e3).collect();
    if let (Some(late), Some(last)) = (quantile(&mut late_ms, 0.99), inputs.paced.last()) {
        let held = pass.paced_sent_last.saturating_duration_since(pass.paced_t0).as_secs_f64();
        let share = if held > 0.0 { last.due.as_secs_f64() / held } else { 1.0 };
        report.layer("gen.late_p99_ms", late, "ms");
        report.layer("gen.achieved_rate_share", share, "ratio");
        let late_p50 = median(&mut late_ms).unwrap_or(0.0);
        report.note("gen.late_p50_ms", format!("{late_p50:.4}"));
        report.note("gen.late_p99_ms", format!("{late:.4}"));
        report.note("gen.achieved_rate_share", format!("{share:.5}"));
        // The clock of a late bid already runs, so lateness is inside every
        // latency. A late tail with a punctual median is the submitter
        // losing its core to the program's own threads (2 cores, up to 7
        // runnable threads); a late median or a missed rate means the
        // schedule itself was not held.
        if late_p50 > 1.0 || share < 0.99 {
            report
                .note("gen.verdict", "INVALID: the generator ran late; timings are not comparable");
        }
    }
}

/// Journal `epochs` as accepted-but-unsealed, exactly as a crash between
/// the last ack and the first seal would leave them.
fn write_unsealed_journal(
    path: &Path,
    w: &Workload,
    inputs: &Inputs,
    epochs: usize,
) -> Result<(), String> {
    let journal = Journal::create(path, FsyncPolicy::Never).map_err(|e| e.to_string())?;
    for i in 0..epochs * w.epoch_bids {
        let user = UserId((i % w.n_users) as u32);
        journal
            .append_accepted((i / w.epoch_bids) as u64, user, inputs.bid(i))
            .map_err(|e| e.to_string())?;
    }
    journal.sync().map_err(|e| e.to_string())
}

/// The journal's read side: `verify_log` over the run's own journal, and a
/// restart over a journal holding [`RECOVERY_EPOCHS`] unsealed epochs whose
/// re-cleared outcomes must be byte-identical to the live run's. Each is
/// done three times; the median is reported.
pub fn journal_read_side(
    spec: &PassSpec<'_>,
    live_journal: &Path,
    kept: &[KeptEpoch],
    out_dir: &Path,
    report: &mut Report,
) {
    const ROUNDS: usize = 3;
    let w = spec.w;
    let mut verify_s = Vec::new();
    for _ in 0..ROUNDS {
        let started = Instant::now();
        match verify_log(live_journal) {
            Ok(summary) => {
                verify_s.push(started.elapsed().as_secs_f64());
                if summary.accepted != report.attempted
                    || summary.seals != spec.sizes.total_epochs() as u64
                {
                    report.fail(format!(
                        "verify_log counts {} accepted / {} seals, expected {} / {}",
                        summary.accepted,
                        summary.seals,
                        report.attempted,
                        spec.sizes.total_epochs()
                    ));
                }
            }
            Err(e) => report.fail(format!("verify_log: {e}")),
        }
    }
    if let Some(v) = median(&mut verify_s) {
        report.layer("journal.verify_log_s", v, "s");
    }
    let bytes = std::fs::metadata(live_journal).map_or(0, |m| m.len());
    let mut scan_mb_s = Vec::new();
    for _ in 0..ROUNDS {
        let started = Instant::now();
        if dauctioneer_market::read_journal(live_journal).is_ok() {
            scan_mb_s.push(bytes as f64 / 1e6 / started.elapsed().as_secs_f64());
        }
    }
    if let Some(v) = median(&mut scan_mb_s) {
        report.layer("journal.scan_mb_per_s", v, "MB/s");
    }

    // A smoke run clears fewer epochs than the drill wants; it recovers
    // what there is.
    let epochs = RECOVERY_EPOCHS.min(spec.sizes.total_epochs());
    if kept.len() < epochs {
        report.fail(format!("only {} live epochs kept for the recovery check", kept.len()));
        return;
    }
    let mut recover_s = Vec::new();
    for round in 0..ROUNDS {
        let path: PathBuf = out_dir.join(format!("recover_{}_{round}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        if let Err(e) = write_unsealed_journal(&path, w, &spec.inputs, epochs) {
            report.fail(format!("recovery journal: {e}"));
            return;
        }
        let mut config = w.market_config(spec.seed, None, TelemetryConfig::default());
        config.journal = Some(JournalConfig::new(&path).recovering());
        let started = Instant::now();
        match MarketService::start_from_spec(config) {
            Ok(service) => {
                recover_s.push(started.elapsed().as_secs_f64());
                let replayed = service.recovery_report().map_or(&[][..], |r| &r.replayed[..]);
                let identical = replayed.len() == epochs
                    && replayed.iter().zip(kept).all(|(r, live)| {
                        r.epoch == live.epoch
                            && r.bids == live.bids
                            && r.outcome.encode_to_bytes() == live.outcome
                    });
                if !identical {
                    report.fail(format!(
                        "recovery re-cleared {} epochs, not byte-identical to the live run",
                        replayed.len()
                    ));
                }
                service.shutdown();
                if let Err(e) = verify_log(&path) {
                    report.fail(format!("verify_log after recovery: {e}"));
                }
            }
            Err(e) => report.fail(format!("recovery start: {e}")),
        }
        let _ = std::fs::remove_file(&path);
    }
    if let Some(v) = median(&mut recover_s) {
        report.layer("journal.recover_s", v, "s");
    }
}

/// Filesystem type of `path`'s mount, from `/proc/mounts` (longest prefix).
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let (_, mount, fs) = (parts.next()?, parts.next()?, parts.next()?);
            path.starts_with(mount).then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}
