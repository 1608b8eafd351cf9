//! `market_soak` — sustained throughput of the continuous market
//! service under open-world arrival streams.
//!
//! Every other bench in this harness measures a *batch artifact*: how
//! fast a fixed set of sessions clears once. This one measures the
//! steady state: a [`MarketService`] is started **once** (persistent
//! mesh + worker pool), a seeded Poisson [`ArrivalProcess`] replays bids
//! against it in real time, and the sweep reports sustained sessions/sec
//! and epoch-close latency percentiles as a function of the arrival
//! rate. A final *firehose* row submits the same bids with no pacing
//! through a deliberately small shed-policy ingress queue, exercising
//! the backpressure path and its counters.
//!
//! ```text
//! market_soak [--csv] [--json] [--quick] [--n USERS] [--m PROVIDERS]
//!             [--bids N] [--epoch-bids N] [--mechanism SPEC]
//! ```
//!
//! `--mechanism` accepts the same spec grammar as `dauction serve`
//! (`double | standard[,eps=..] | combinatorial[,budget=..] |
//! divisible[,beta=..]`) and drives the soak sweep and the journal
//! recovery run under that mechanism; the telemetry sweep always runs
//! the double auction so its on/off ratio stays comparable to baseline.
//!
//! `--json` writes `BENCH_market_soak.json` (config, per-rate rows) so
//! the perf trajectory has machine-readable data points — plus
//! `BENCH_journal.json`: the durability cost surface (ingest throughput
//! unjournaled vs `fsync=never` vs `fsync=always`) and the crash
//! recovery time for a journal full of unsealed epochs — plus
//! `BENCH_telemetry.json`: the observability cost surface (telemetry
//! plane off vs on-and-scraped, interleaved best-of-N, with the in-run
//! on/off ingest ratio). All three are gated by `ci/compare_bench.py`.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dauctioneer_bench::json::{provenance, write_bench_file, JsonArray, JsonObject};
use dauctioneer_bench::{flag_value, fmt_secs, Table};
use dauctioneer_core::DoubleAuctionProgram;
use dauctioneer_market::{
    register_market_metrics, Backpressure, EpochPolicy, FsyncPolicy, Journal, JournalConfig,
    MarketConfig, MarketService, MarketStats, MechanismSpec, TelemetryConfig,
};
use dauctioneer_telemetry::{MetricsServer, Registry};
use dauctioneer_types::{Bw, Money, UserBid, UserId};
use dauctioneer_workload::{epoch_supply, ArrivalProcess};

struct SoakResult {
    label: String,
    rate: Option<f64>,
    bids: usize,
    agreed_epochs: u64,
    stats: MarketStats,
    feed: Duration,
}

#[allow(clippy::too_many_arguments)]
fn soak(
    label: &str,
    rate: Option<f64>,
    bids: usize,
    epoch_bids: usize,
    n_users: usize,
    m: usize,
    seed: u64,
    journal: Option<(PathBuf, FsyncPolicy)>,
    mechanism: MechanismSpec,
) -> SoakResult {
    // §6.2-shaped supply sized to the expected epoch demand, shared
    // with `dauction serve` (see workload::epoch_supply).
    let mut config = MarketConfig::new(m, (m - 1) / 2, n_users, m)
        .with_asks(epoch_supply(m, epoch_bids as f64))
        // The count target closes epochs under load; the staleness bound
        // flushes the stragglers of a finished stream.
        .with_epoch(EpochPolicy::Hybrid { count: epoch_bids, max_wait: Duration::from_millis(250) })
        .with_mechanism(mechanism);
    config.seed = seed;
    if let Some((path, fsync)) = &journal {
        let _ = std::fs::remove_file(path);
        config.journal = Some(JournalConfig::new(path).with_fsync(*fsync));
    }
    match rate {
        // Paced replay: never lose a bid, propagate the market's pace.
        Some(_) => config.backpressure = Backpressure::Block,
        // Firehose: a small queue that sheds, to exercise backpressure.
        None => {
            config.backpressure = Backpressure::Shed;
            config.ingress_capacity = 64;
        }
    }
    let mut market = MarketService::start_from_spec(config).expect("start market");
    let outcomes = market.take_outcomes().expect("first take");
    let handle = market.handle();

    let process = match rate {
        Some(r) => ArrivalProcess::poisson(n_users, r, seed),
        None => ArrivalProcess::poisson(n_users, 1_000_000.0, seed), // gaps ≈ 0
    };
    let started = Instant::now();
    if rate.is_some() {
        process.replay_paced(bids, |arrival| {
            let _ = handle.submit_bid(arrival.user, arrival.bid);
            true
        });
    } else {
        // Firehose: no pacing at all.
        for arrival in process.take(bids) {
            let _ = handle.submit_bid(arrival.user, arrival.bid);
        }
    }
    let feed = started.elapsed();
    let stats = market.shutdown();
    let agreed_epochs = std::iter::from_fn(|| outcomes.try_recv().ok())
        .filter(|e| !e.outcome.is_abort())
        .count() as u64;
    SoakResult { label: label.to_string(), rate, bids, agreed_epochs, stats, feed }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let csv = args.iter().any(|a| a == "--csv");
    let emit_json = args.iter().any(|a| a == "--json");
    let quick = args.iter().any(|a| a == "--quick");

    let n_users = flag_value("--n").unwrap_or(16);
    let m = flag_value("--m").unwrap_or(3).max(1);
    let bids = flag_value("--bids").unwrap_or(if quick { 60 } else { 400 });
    let epoch_bids = flag_value("--epoch-bids").unwrap_or(8);
    let mechanism: MechanismSpec =
        match args.iter().position(|a| a == "--mechanism").and_then(|i| args.get(i + 1)) {
            Some(spec) => spec.parse().unwrap_or_else(|e| {
                eprintln!("market_soak: {e}");
                std::process::exit(2);
            }),
            None => MechanismSpec::default(),
        };
    let rates: &[f64] = if quick { &[500.0] } else { &[250.0, 1000.0, 4000.0] };

    println!(
        "market soak: {} (spec `{mechanism}`), n={n_users} user slots, m={m} providers, \
         {bids} bids/run, epochs close at {epoch_bids} bids (or 250ms)",
        mechanism.name()
    );

    let mut results = Vec::new();
    for (i, &rate) in rates.iter().enumerate() {
        results.push(soak(
            &format!("{rate}/s"),
            Some(rate),
            bids,
            epoch_bids,
            n_users,
            m,
            1_000 + i as u64,
            None,
            mechanism,
        ));
    }
    results.push(soak("firehose", None, bids, epoch_bids, n_users, m, 9_999, None, mechanism));

    let mut table = Table::new(
        &[
            "arrival", "bids", "epochs", "agreed", "sess/s", "p50", "p99", "accepted", "shed",
            "rejected",
        ],
        csv,
    );
    let mut json_rows = JsonArray::new();
    for r in &results {
        let s = &r.stats;
        assert_eq!(
            r.agreed_epochs, s.epochs_closed,
            "{}: an epoch failed to reach a unanimous non-⊥ outcome",
            r.label
        );
        let rejected =
            s.bids_rejected_invalid + s.bids_rejected_duplicate + s.bids_rejected_unknown;
        table.row(vec![
            r.label.clone(),
            r.bids.to_string(),
            s.epochs_closed.to_string(),
            r.agreed_epochs.to_string(),
            format!("{:.1}", s.sessions_per_sec),
            fmt_secs(s.epoch_latency_p50.as_secs_f64()),
            fmt_secs(s.epoch_latency_p99.as_secs_f64()),
            s.bids_accepted.to_string(),
            s.bids_shed.to_string(),
            rejected.to_string(),
        ]);
        let mut row = JsonObject::new();
        row.str("arrival", &r.label);
        match r.rate {
            Some(rate) => row.num("rate_per_sec", rate),
            None => row.raw("rate_per_sec", "null"),
        };
        row.int("bids_submitted", r.bids as u64)
            .int("epochs_closed", s.epochs_closed)
            .int("agreed_epochs", r.agreed_epochs)
            .num("sessions_per_sec", s.sessions_per_sec)
            .num("epoch_latency_p50_s", s.epoch_latency_p50.as_secs_f64())
            .num("epoch_latency_p99_s", s.epoch_latency_p99.as_secs_f64())
            .int("bids_accepted", s.bids_accepted)
            .int("bids_shed", s.bids_shed)
            .int("bids_rejected", rejected)
            .num("feed_duration_s", r.feed.as_secs_f64())
            .int("worker_threads", s.worker_threads as u64);
        json_rows.push(row.finish());
    }
    print!("{}", table.render());
    println!(
        "note: paced rows use the blocking backpressure policy (no bid lost); the firehose \
         row uses a 64-deep shedding queue, so its shed count is the backpressure at work"
    );

    if emit_json {
        let mut config = JsonObject::new();
        config
            .int("n_users", n_users as u64)
            .int("m", m as u64)
            .int("k", ((m - 1) / 2) as u64)
            .int("bids_per_run", bids as u64)
            .int("epoch_bids", epoch_bids as u64)
            .str("mechanism", mechanism.name())
            .bool("quick", quick)
            .int(
                "host_cores",
                std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1) as u64,
            );
        let mut top = JsonObject::new();
        top.str("bench", "market_soak")
            .raw("provenance", &provenance())
            .raw("config", &config.finish())
            .raw("runs", &json_rows.finish());
        match write_bench_file("market_soak", &top.finish()) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("failed to write BENCH_market_soak.json: {e}"),
        }
    }

    journal_sweep(csv, emit_json, quick, n_users, m, bids, epoch_bids, mechanism);
    telemetry_sweep(csv, emit_json, quick, n_users, m, bids, epoch_bids);
}

fn journal_temp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dauction-soak-journal-{name}-{}", std::process::id()));
    p
}

/// The durability cost surface: the same saturating paced stream (block
/// policy, so every bid is accepted and the feed time *is* the ingest
/// time) run unjournaled, journaled with `fsync=never`, and journaled
/// with `fsync=always` — plus the recovery time for a journal holding
/// nothing but unsealed epochs, the worst crash recovery can face.
#[allow(clippy::too_many_arguments)]
fn journal_sweep(
    csv: bool,
    emit_json: bool,
    quick: bool,
    n_users: usize,
    m: usize,
    bids: usize,
    epoch_bids: usize,
    mechanism: MechanismSpec,
) {
    println!();
    println!(
        "journal cost: {bids} bids at saturation (blocking ingress), unjournaled vs \
         write-ahead journal at each fsync policy"
    );
    let modes: [(&str, Option<FsyncPolicy>); 3] = [
        ("unjournaled", None),
        ("fsync=never", Some(FsyncPolicy::Never)),
        ("fsync=always", Some(FsyncPolicy::Always)),
    ];
    let mut table = Table::new(
        &[
            "mode",
            "bids",
            "ingest bids/s",
            "sess/s",
            "p99",
            "journal bytes",
            "fsyncs",
            "fsyncs/bid",
            "fsync p̄",
        ],
        csv,
    );
    let mut json_rows = JsonArray::new();
    for (mode, fsync) in modes {
        let journal = fsync.map(|f| (journal_temp(mode), f));
        let path = journal.as_ref().map(|(p, _)| p.clone());
        // A paced stream with ~zero gaps + Block backpressure: lossless
        // saturation, so ingest throughput is bids / feed-time.
        let r =
            soak(mode, Some(1_000_000.0), bids, epoch_bids, n_users, m, 4_242, journal, mechanism);
        let ingest = r.bids as f64 / r.feed.as_secs_f64();
        let s = &r.stats;
        // Group commit in one number: fsyncs (bids and seals alike) per
        // accepted bid — 1 + 1/epoch_bids without batching.
        let fsyncs_per_bid = s.journal_fsyncs as f64 / s.bids_accepted.max(1) as f64;
        table.row(vec![
            mode.to_string(),
            r.bids.to_string(),
            format!("{ingest:.0}"),
            format!("{:.1}", s.sessions_per_sec),
            fmt_secs(s.epoch_latency_p99.as_secs_f64()),
            s.journal_bytes.to_string(),
            s.journal_fsyncs.to_string(),
            format!("{fsyncs_per_bid:.3}"),
            fmt_secs(s.journal_fsync_mean.as_secs_f64()),
        ]);
        let mut row = JsonObject::new();
        row.str("mode", mode)
            .int("bids_submitted", r.bids as u64)
            .num("ingest_bids_per_sec", ingest)
            .num("sessions_per_sec", s.sessions_per_sec)
            .num("epoch_latency_p99_s", s.epoch_latency_p99.as_secs_f64())
            .int("journal_bytes", s.journal_bytes)
            .int("journal_fsyncs", s.journal_fsyncs)
            .num("fsyncs_per_bid", fsyncs_per_bid)
            .num("fsync_mean_s", s.journal_fsync_mean.as_secs_f64())
            .num("fsync_max_s", s.journal_fsync_max.as_secs_f64());
        json_rows.push(row.finish());
        if let Some(path) = path {
            let _ = std::fs::remove_file(path);
        }
    }
    print!("{}", table.render());

    // Recovery time: a journal of nothing but unsealed epochs, each
    // re-cleared as a full auction session at startup.
    let epochs = if quick { 8u64 } else { 32 };
    let path = journal_temp("recovery");
    let _ = std::fs::remove_file(&path);
    let journal = Journal::create(&path, FsyncPolicy::Never).expect("create recovery journal");
    let per_epoch = epoch_bids.min(n_users);
    for epoch in 0..epochs {
        for u in 0..per_epoch {
            let bid = UserBid::new(
                Money::from_f64(0.8 + 0.02 * u as f64 + 0.001 * epoch as f64),
                Bw::from_f64(0.5),
            );
            journal.append_accepted(epoch, UserId(u as u32), bid).expect("append");
        }
    }
    journal.sync().expect("sync");
    drop(journal);

    let mut config = MarketConfig::new(m, (m - 1) / 2, n_users, m)
        .with_asks(epoch_supply(m, epoch_bids as f64))
        .with_epoch(EpochPolicy::Hybrid { count: epoch_bids, max_wait: Duration::from_millis(250) })
        .with_mechanism(mechanism);
    config.seed = 4_242;
    config.journal = Some(JournalConfig::new(&path).recovering());
    let started = Instant::now();
    let market = MarketService::start_from_spec(config).expect("recover market");
    let recovery_time = started.elapsed();
    let replayed = market.recovery_report().map_or(0, |r| r.replayed.len());
    market.shutdown();
    let _ = std::fs::remove_file(&path);
    assert_eq!(replayed as u64, epochs, "every unsealed epoch must be re-cleared");
    println!(
        "recovery: {epochs} unsealed epochs ({} bids) re-cleared in {} \
         ({:.1} epochs/s)",
        epochs as usize * per_epoch,
        fmt_secs(recovery_time.as_secs_f64()),
        epochs as f64 / recovery_time.as_secs_f64(),
    );

    if emit_json {
        let mut config = JsonObject::new();
        config
            .int("n_users", n_users as u64)
            .int("m", m as u64)
            .int("bids_per_run", bids as u64)
            .int("epoch_bids", epoch_bids as u64)
            .bool("quick", quick);
        let mut recovery = JsonObject::new();
        recovery
            .int("unsealed_epochs", epochs)
            .int("journaled_bids", (epochs as usize * per_epoch) as u64)
            .int("replayed_epochs", replayed as u64)
            .num("recovery_time_s", recovery_time.as_secs_f64())
            .num("epochs_per_sec", epochs as f64 / recovery_time.as_secs_f64());
        let mut top = JsonObject::new();
        top.str("bench", "journal")
            .raw("provenance", &provenance())
            .raw("config", &config.finish())
            .raw("runs", &json_rows.finish())
            .raw("recovery", &recovery.finish());
        match write_bench_file("journal", &top.finish()) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("failed to write BENCH_journal.json: {e}"),
        }
    }
}

/// One saturating ingest run with the telemetry plane either fully off
/// ([`TelemetryConfig::disabled`]) or fully on — default flight ring and
/// trace ring, a live metrics registry with the market collectors, a
/// bound scrape endpoint, and a background scraper hammering it every
/// ~25ms, i.e. the worst observability load a deployment would see.
fn telemetry_soak(
    on: bool,
    bids: usize,
    epoch_bids: usize,
    n_users: usize,
    m: usize,
    seed: u64,
) -> (f64, MarketStats, u64) {
    let mut config = MarketConfig::new(m, (m - 1) / 2, n_users, m)
        .with_asks(epoch_supply(m, epoch_bids as f64))
        .with_epoch(EpochPolicy::Hybrid {
            count: epoch_bids,
            max_wait: Duration::from_millis(250),
        });
    config.seed = seed;
    config.backpressure = Backpressure::Block;
    if !on {
        config.telemetry = TelemetryConfig::disabled();
    }
    let mut market =
        MarketService::start(config, Arc::new(DoubleAuctionProgram::new())).expect("start market");
    let outcomes = market.take_outcomes().expect("first take");
    let handle = market.handle();

    // The "on" mode is scraped continuously while it ingests, so the
    // measured cost includes collector snapshots, not just instruments.
    let scraper = if on {
        let registry = Registry::new();
        register_market_metrics(&registry, market.watch());
        let server = MetricsServer::bind("127.0.0.1:0", registry).expect("bind metrics");
        let addr = server.local_addr();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let scrapes = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let (stop2, scrapes2) = (Arc::clone(&stop), Arc::clone(&scrapes));
        let thread = std::thread::spawn(move || {
            use std::io::{Read, Write};
            while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
                if let Ok(mut conn) = std::net::TcpStream::connect(addr) {
                    let _ = conn.write_all(b"GET /metrics HTTP/1.0\r\nHost: bench\r\n\r\n");
                    let mut body = Vec::new();
                    let _ = conn.read_to_end(&mut body);
                    if !body.is_empty() {
                        scrapes2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        });
        Some((server, stop, scrapes, thread))
    } else {
        None
    };

    let process = ArrivalProcess::poisson(n_users, 1_000_000.0, seed);
    let started = Instant::now();
    process.replay_paced(bids, |arrival| {
        let _ = handle.submit_bid(arrival.user, arrival.bid);
        true
    });
    let feed = started.elapsed();
    let stats = market.shutdown();
    drop(outcomes);
    let scrapes = if let Some((mut server, stop, scrapes, thread)) = scraper {
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        thread.join().expect("scraper thread");
        server.shutdown();
        scrapes.load(std::sync::atomic::Ordering::Relaxed)
    } else {
        0
    };
    (bids as f64 / feed.as_secs_f64(), stats, scrapes)
}

/// The observability cost surface: telemetry fully off vs fully on
/// (flight ring + traces + live scrape endpoint under a ~40Hz scraper),
/// interleaved best-of-N so the on/off ratio is an in-run comparison,
/// robust to ambient machine noise. `ci/compare_bench.py` holds the
/// ratio above 0.95 — the telemetry plane may cost at most 5% of ingest.
fn telemetry_sweep(
    csv: bool,
    emit_json: bool,
    quick: bool,
    n_users: usize,
    m: usize,
    bids: usize,
    epoch_bids: usize,
) {
    println!();
    let rounds: u64 = if quick { 2 } else { 3 };
    // A 60-bid quick run feeds in ~100µs — fixed costs drown the signal.
    // Grow the stream (even under --quick) until the blocking queue
    // fills and ingest reflects sustained market pace, where the
    // per-epoch telemetry work lives; anything shorter gates on noise.
    let bids = bids.max(10_000);
    println!(
        "telemetry cost: {bids} bids at saturation (blocking ingress), flight+traces+scrape \
         on vs off, best of {rounds} interleaved rounds"
    );
    // best-of-N interleaved: (ingest, stats, scrapes) per mode.
    let mut best: [Option<(f64, MarketStats, u64)>; 2] = [None, None];
    for round in 0..rounds {
        for (slot, on) in [(0usize, false), (1usize, true)] {
            let run = telemetry_soak(on, bids, epoch_bids, n_users, m, 4_242 + round);
            if !best[slot].as_ref().is_some_and(|b| b.0 >= run.0) {
                best[slot] = Some(run);
            }
        }
    }
    let [off, on] = best.map(|b| b.expect("both modes ran"));
    let ratio = on.0 / off.0;

    let mut table =
        Table::new(&["telemetry", "bids", "ingest bids/s", "sess/s", "p99", "scrapes"], csv);
    let mut json_rows = JsonArray::new();
    for (mode, r) in [("off", &off), ("on", &on)] {
        let (ingest, stats, scrapes) = r;
        table.row(vec![
            mode.to_string(),
            bids.to_string(),
            format!("{ingest:.0}"),
            format!("{:.1}", stats.sessions_per_sec),
            fmt_secs(stats.epoch_latency_p99.as_secs_f64()),
            scrapes.to_string(),
        ]);
        let mut row = JsonObject::new();
        row.str("mode", mode)
            .int("bids_submitted", bids as u64)
            .num("ingest_bids_per_sec", *ingest)
            .num("sessions_per_sec", stats.sessions_per_sec)
            .num("epoch_latency_p99_s", stats.epoch_latency_p99.as_secs_f64())
            .int("scrapes_served", *scrapes);
        json_rows.push(row.finish());
    }
    print!("{}", table.render());
    println!(
        "telemetry overhead: on/off ingest ratio {ratio:.3} \
         ({} scrapes served during the on-run)",
        on.2
    );

    if emit_json {
        let mut config = JsonObject::new();
        config
            .int("n_users", n_users as u64)
            .int("m", m as u64)
            .int("bids_per_run", bids as u64)
            .int("epoch_bids", epoch_bids as u64)
            .int("rounds", rounds)
            .bool("quick", quick);
        let mut top = JsonObject::new();
        top.str("bench", "telemetry")
            .raw("provenance", &provenance())
            .raw("config", &config.finish())
            .raw("runs", &json_rows.finish())
            .num("overhead_ratio", ratio);
        match write_bench_file("telemetry", &top.finish()) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("failed to write BENCH_telemetry.json: {e}"),
        }
    }
}
