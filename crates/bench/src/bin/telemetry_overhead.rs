//! `telemetry_overhead` — what the telemetry plane costs the continuous
//! market: saturated ingest with the plane fully off against fully on
//! (flight ring, epoch traces, a live scrape endpoint under a ~40Hz
//! scraper), interleaved best-of-N so the on/off ratio is an in-run
//! comparison.
//!
//! ```text
//! telemetry_overhead [--csv] [--json] [--quick]
//! ```
//!
//! `--json` writes `BENCH_telemetry.json` (config, the off/on rows and
//! the on/off ingest ratio), gated by `ci/compare_bench.py`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dauctioneer::cli::Flags;
use dauctioneer_bench::json::{provenance, write_bench_file, JsonArray, JsonObject};
use dauctioneer_bench::{fmt_secs, Table};
use dauctioneer_core::DoubleAuctionProgram;
use dauctioneer_market::{
    register_market_metrics, Backpressure, EpochPolicy, MarketConfig, MarketService, MarketStats,
    TelemetryConfig,
};
use dauctioneer_telemetry::{MetricsServer, Registry};
use dauctioneer_workload::{epoch_supply, ArrivalProcess};

/// Users bidding into the market.
const N_USERS: usize = 16;
/// Providers.
const M: usize = 3;
/// Bids per run: long enough that the blocking queue fills and ingest
/// reflects sustained market pace, where the per-epoch telemetry work
/// lives; a shorter stream gates on fixed costs.
const BIDS: usize = 10_000;
/// Bids per epoch.
const EPOCH_BIDS: usize = 8;

fn main() {
    let (mut csv, mut emit_json, mut quick) = (false, false, false);
    Flags::new("usage: telemetry_overhead [FLAG]...   saturated ingest, telemetry plane off vs on")
        .switch("--csv", "emit CSV instead of an aligned table", &mut csv)
        .switch("--json", "also write BENCH_telemetry.json", &mut emit_json)
        .switch("--quick", "reduced run for CI and smoke runs", &mut quick)
        .parse(std::env::args().skip(1));
    telemetry_sweep(csv, emit_json, quick);
}

/// One saturating ingest run with the telemetry plane either fully off
/// ([`TelemetryConfig::disabled`]) or fully on — default flight ring and
/// trace ring, a live metrics registry with the market collectors, a
/// bound scrape endpoint, and a background scraper hammering it every
/// ~25ms, i.e. the worst observability load a deployment would see.
fn telemetry_soak(on: bool, seed: u64) -> (f64, MarketStats, u64) {
    let mut config = MarketConfig::new(M, (M - 1) / 2, N_USERS, M)
        .with_asks(epoch_supply(M, EPOCH_BIDS as f64))
        .with_epoch(EpochPolicy::Hybrid {
            count: EPOCH_BIDS,
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

    let process = ArrivalProcess::poisson(N_USERS, 1_000_000.0, seed);
    let started = Instant::now();
    process.replay_paced(BIDS, |arrival| {
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
    (BIDS as f64 / feed.as_secs_f64(), stats, scrapes)
}

/// The observability cost surface: telemetry fully off vs fully on
/// (flight ring + traces + live scrape endpoint under a ~40Hz scraper),
/// interleaved best-of-N so the on/off ratio is an in-run comparison,
/// robust to ambient machine noise. `ci/compare_bench.py` holds the
/// ratio above 0.95 — the telemetry plane may cost at most 5% of ingest.
fn telemetry_sweep(csv: bool, emit_json: bool, quick: bool) {
    let rounds: u64 = if quick { 2 } else { 3 };
    println!(
        "telemetry cost: {BIDS} bids at saturation (blocking ingress), flight+traces+scrape \
         on vs off, best of {rounds} interleaved rounds"
    );
    // best-of-N interleaved: (ingest, stats, scrapes) per mode.
    let mut best: [Option<(f64, MarketStats, u64)>; 2] = [None, None];
    for round in 0..rounds {
        for (slot, on) in [(0usize, false), (1usize, true)] {
            let run = telemetry_soak(on, 4_242 + round);
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
            BIDS.to_string(),
            format!("{ingest:.0}"),
            format!("{:.1}", stats.sessions_per_sec),
            fmt_secs(stats.epoch_latency_p99.as_secs_f64()),
            scrapes.to_string(),
        ]);
        let mut row = JsonObject::new();
        row.str("mode", mode)
            .int("bids_submitted", BIDS as u64)
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
            .int("n_users", N_USERS as u64)
            .int("m", M as u64)
            .int("bids_per_run", BIDS as u64)
            .int("epoch_bids", EPOCH_BIDS as u64)
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
