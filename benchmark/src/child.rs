//! One workload in one fresh process: generate the inputs, bring the
//! program up, say `READY`, measure, check, and print one `RESULT` line.
//! Set-up time and everything derived from several processes is the
//! parent's business.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use dauctioneer_market::TelemetryConfig;
use dauctioneer_telemetry::EpochTrace;

use crate::cluster_run::run_cluster;
use crate::json::Json;
use crate::layers::{cluster_layer, crypto_throughput, net_layer, replay, ReplayEpoch};
use crate::market_run::{
    filesystem_of, journal_read_side, run_pass, summarize, PassResult, PassSpec,
};
use crate::report::{peak_rss_mb, Report};
use crate::spans::Recorder;
use crate::stats::{median, us};
use crate::workloads::{Inputs, Sizes, Workload, RECOVERY_EPOCHS};

/// Epochs of the paced phase the traced run replays layer by layer.
const REPLAY_EPOCHS: usize = 200;
/// The workload whose traced run also measures what tracing costs (the
/// reference market: nothing else there is large enough to hide it).
const TRACE_OVERHEAD_WORKLOAD: &str = "steady_inproc";

pub struct ChildArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub setup_only: bool,
    pub out_dir: PathBuf,
}

fn announce_ready() {
    println!("READY");
    let _ = std::io::stdout().flush();
}

pub fn run(args: &ChildArgs) -> Result<(), String> {
    std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
    // A wedged program must end as a failed run, not as a hung one, and
    // inside the driver's 180 s (a run takes about `seconds` of wall).
    let limit = Duration::from_secs_f64((20.0 + 3.0 * args.seconds).min(170.0));
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("benchmark child: no result within {limit:?}; giving up");
        std::process::exit(3);
    });
    let w = args.workload;
    let sizes = w.sizes(args.seconds);
    let mut report = Report::default();
    let mut trace_file = None;
    if w.cluster {
        cluster(args, sizes, &mut report, &mut trace_file)?;
    } else {
        market(args, sizes, &mut report, &mut trace_file)?;
    }
    if args.setup_only {
        return Ok(());
    }
    if let Some(rss) = peak_rss_mb() {
        report.e2e("peak_rss_mb", rss, "MB");
    }
    let mut result = report.to_json();
    if let Some(path) = trace_file {
        result.set("trace_file", Json::Str(path.display().to_string()));
    }
    println!("RESULT {}", result.render());
    Ok(())
}

fn journal_path(out_dir: &Path, tag: &str) -> PathBuf {
    let path = out_dir.join(format!("journal_{}_{tag}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn market(
    args: &ChildArgs,
    sizes: Sizes,
    report: &mut Report,
    trace_file: &mut Option<PathBuf>,
) -> Result<(), String> {
    let w = args.workload;
    let inputs = Arc::new(Inputs::generate(w, sizes, args.seed));
    let journal = w.journaled.then(|| journal_path(&args.out_dir, "live"));
    // A traced run keeps the program's own span tree of every epoch; an
    // untraced one runs the program's default telemetry.
    let telemetry = if args.trace {
        TelemetryConfig { trace_capacity: sizes.total_epochs(), ..TelemetryConfig::default() }
    } else {
        TelemetryConfig::default()
    };
    let replayed = if args.trace { sizes.warmup_epochs + REPLAY_EPOCHS } else { 0 };
    let keep_epochs = replayed.max(if w.journaled { RECOVERY_EPOCHS } else { 0 });
    let spec = PassSpec {
        w,
        sizes,
        inputs: Arc::clone(&inputs),
        seed: args.seed,
        journal: journal.as_deref(),
        telemetry,
        instrument: args.trace,
        keep_epochs,
    };
    let Some(pass) = run_pass(&spec, &mut announce_ready, args.setup_only)? else {
        if let Some(path) = &journal {
            let _ = std::fs::remove_file(path);
        }
        return Ok(());
    };
    summarize(&spec, &pass, report);
    if let Some(path) = &journal {
        report.note("journal_filesystem", filesystem_of(&args.out_dir));
        journal_read_side(&spec, path, &pass.received.kept, &args.out_dir, report);
        let _ = std::fs::remove_file(path);
    }
    if args.trace {
        *trace_file = Some(traced_market(args, &spec, &pass, report)?);
    }
    Ok(())
}

/// Median duration in µs of the program's own span `name` across `traces`
/// (`session` = the slowest `session[j]` of each epoch: an epoch decides
/// when its slowest provider does).
fn program_span_p50(traces: &[EpochTrace], name: &str) -> Option<f64> {
    let mut samples: Vec<f64> = traces
        .iter()
        .filter_map(|t| {
            let matching = t.spans.iter().filter(|s| {
                if name == "session" {
                    s.name.starts_with("session[")
                } else {
                    s.name == name
                }
            });
            matching.map(|s| us(s.duration)).reduce(f64::max)
        })
        .collect();
    median(&mut samples)
}

/// The per-layer half of a traced market run: boundary counters of the
/// full workload, the program's own epoch spans, the layer replay, and the
/// span file.
fn traced_market(
    args: &ChildArgs,
    spec: &PassSpec<'_>,
    pass: &PassResult,
    report: &mut Report,
) -> Result<PathBuf, String> {
    let w = spec.w;
    let stats = &pass.stats;
    let bids = stats.bids_accepted.max(1) as f64;

    // (1) Boundary counters.
    let mut calls: Vec<f64> = pass.submit_call_us.iter().map(|c| f64::from(*c)).collect();
    if let Some(v) = median(&mut calls) {
        report.layer("ingress.submit_call_p50_us", v, "us");
    }
    report.layer("ingress.queue_depth_max", pass.queue_depth_max as f64, "count");
    report.layer("ingress.shed", stats.bids_shed as f64, "count");
    if w.journaled {
        report.layer("journal.fsyncs_per_bid", stats.journal_fsyncs as f64 / bids, "count");
        report.layer("journal.bytes_per_bid", stats.journal_bytes as f64 / bids, "B");
        report.layer("journal.fsync_mean_us", us(stats.journal_fsync_mean), "us");
    }
    // The program's own clock over the same epochs close_to_seal is taken
    // from (outcomes arrive in epoch order, so position is epoch).
    let paced_epochs = spec.sizes.warmup_epochs..spec.sizes.warmup_epochs + spec.sizes.paced_epochs;
    let paced = paced_epochs.start as u64..paced_epochs.end as u64;
    let mut own = pass.received.program_latency_ms.get(paced_epochs).unwrap_or(&[]).to_vec();
    if let Some(v) = median(&mut own) {
        report.layer("service.epoch_latency_p50_ms", v, "ms");
    }

    // (2) The program's existing epoch spans, paced phase only.
    let traces: Vec<EpochTrace> =
        pass.traces.iter().filter(|t| paced.contains(&t.epoch)).cloned().collect();
    for (metric, span) in [
        ("service.ingress_span_p50_us", "ingress"),
        ("service.collect_span_p50_us", "collect"),
        ("service.dispatch_span_p50_us", "dispatch"),
        ("service.session_span_p50_us", "session"),
        ("service.seal_span_p50_us", "seal"),
    ] {
        if let Some(v) = program_span_p50(&traces, span) {
            report.layer(metric, v, "us");
        }
    }

    // (3) Layer replay over the first paced epochs.
    let epochs: Vec<ReplayEpoch> = pass
        .received
        .kept
        .iter()
        .filter(|k| paced.contains(&k.epoch))
        .take(REPLAY_EPOCHS)
        .map(|k| ReplayEpoch {
            epoch: k.epoch,
            session: k.session,
            seed: k.seed,
            bids: k.bids.clone(),
            outcome: Some(k.outcome.clone()),
        })
        .collect();
    let mut rec = Recorder::start();
    let replayed = replay(w, &epochs, args.seed, &args.out_dir, &mut rec, report)?;
    net_layer(w, replayed.frame_bytes, report)?;
    crypto_throughput(report);
    unattributed(report, replayed.blocking_ms);

    if w.name == TRACE_OVERHEAD_WORKLOAD {
        trace_overhead(args, spec, report)?;
    }
    write_trace_file(args, &traces, &rec, report)
}

/// `service.unattributed_ms`: the part of `close_to_seal_p50_ms` the replayed
/// blocking path does not account for — queueing, hand-off and scheduling no
/// single layer owns.
fn unattributed(report: &mut Report, blocking_ms: f64) {
    let close = report.end_to_end.iter().find(|m| m.name == "close_to_seal_p50_ms");
    if let Some(close) = close.map(|m| m.value) {
        report.layer("service.unattributed_ms", close - blocking_ms, "ms");
    }
}

/// Tracing overhead: the same closed loop against the untraced
/// configuration, in this process, at half the size; the difference between
/// the two capacities is what the traced run's instrumentation (the
/// program's raised trace ring, the benchmark's per-call clock reads and
/// depth sampler) costs.
fn trace_overhead(
    args: &ChildArgs,
    spec: &PassSpec<'_>,
    report: &mut Report,
) -> Result<(), String> {
    let w = spec.w;
    let mut sizes = spec.sizes;
    sizes.paced_epochs = 0;
    sizes.capacity_epochs = (sizes.capacity_epochs / 2).max(4);
    let journal = w.journaled.then(|| journal_path(&args.out_dir, "plain"));
    let plain = PassSpec {
        w,
        sizes,
        inputs: Arc::new(Inputs::generate(w, sizes, args.seed)),
        seed: args.seed,
        journal: journal.as_deref(),
        telemetry: TelemetryConfig::default(),
        instrument: false,
        keep_epochs: 0,
    };
    let pass = run_pass(&plain, &mut || {}, false)?.expect("not a set-up run");
    if let Some(path) = &journal {
        let _ = std::fs::remove_file(path);
    }
    let mut untraced = Report::default();
    summarize(&plain, &pass, &mut untraced);
    for why in &untraced.failures {
        report.fail(format!("untraced comparison pass: {why}"));
    }
    let rate =
        |r: &Report| r.end_to_end.iter().find(|m| m.name == "sealed_bids_per_s").map(|m| m.value);
    if let (Some(traced), Some(untraced)) = (rate(report), rate(&untraced)) {
        report.layer("telemetry.trace_overhead_share", 1.0 - traced / untraced, "ratio");
    }
    Ok(())
}

fn cluster(
    args: &ChildArgs,
    sizes: Sizes,
    report: &mut Report,
    trace_file: &mut Option<PathBuf>,
) -> Result<(), String> {
    let w = args.workload;
    let keep = if args.trace { REPLAY_EPOCHS } else { 0 };
    let Some(run) =
        run_cluster(w, sizes, args.seed, keep, &mut announce_ready, args.setup_only, report)?
    else {
        return Ok(());
    };
    if !args.trace {
        return Ok(());
    }
    report.layer("cluster.join_s", run.join.as_secs_f64(), "s");
    // The coordinator gives epoch e session `first_session + e` (1 by
    // default).
    let epochs: Vec<ReplayEpoch> = run
        .vectors
        .into_iter()
        .map(|(epoch, seed, bids)| ReplayEpoch {
            epoch,
            session: 1 + epoch,
            seed,
            bids,
            outcome: None,
        })
        .collect();
    let mut rec = Recorder::start();
    let replayed = replay(w, &epochs, args.seed, &args.out_dir, &mut rec, report)?;
    net_layer(w, replayed.frame_bytes, report)?;
    crypto_throughput(report);
    if let Some(first) = epochs.first() {
        cluster_layer(w, &first.bids, report)?;
    }
    // Here: what the deployed path adds over the same session on a
    // persistent pool and mesh.
    unattributed(report, replayed.blocking_ms);
    *trace_file = Some(write_trace_file(args, &[], &rec, report)?);
    Ok(())
}

/// `trace_<W>.json`: the program's own epoch traces and the benchmark's
/// replay spans, as recorded.
fn write_trace_file(
    args: &ChildArgs,
    traces: &[EpochTrace],
    rec: &Recorder,
    report: &Report,
) -> Result<PathBuf, String> {
    let program: Result<Vec<Json>, String> = traces
        .iter()
        .take(REPLAY_EPOCHS)
        .map(|t| Json::parse(&t.to_json()).map_err(|e| format!("EpochTrace JSON: {e}")))
        .collect();
    let mut root = Json::obj();
    root.set("workload", Json::Str(args.workload.name.to_string()))
        .set("seed", Json::Num(args.seed as f64))
        .set("seconds", Json::Num(args.seconds))
        .set("program_epoch_traces", Json::Arr(program?))
        .set("replay_spans", rec.to_json())
        .set("per_layer", report.to_json().get("per_layer").cloned().unwrap_or(Json::Null));
    let path = args.out_dir.join(format!("trace_{}.json", args.workload.name));
    std::fs::write(&path, root.render()).map_err(|e| e.to_string())?;
    Ok(path)
}
