//! `dauction` — command-line driver for distributed auction runs.
//!
//! A small operational tool over the library. Two modes:
//!
//! * **one-shot** (default): generate a paper-§6 workload, run the
//!   chosen auction under the chosen runtime once, print the outcome.
//! * **`serve`**: run the continuous market daemon — a persistent
//!   provider mesh clearing epoch after epoch from a seeded open-world
//!   arrival stream, printing each epoch's outcome as it closes.
//! * **`coordinator`** / **`provider`**: the real multi-process
//!   deployment — an m-provider market as m+1 OS processes over real
//!   sockets, with peer liveness, `PeerDown` epoch aborts, and
//!   rejoin-at-epoch-boundary for restarted providers.
//! * **`verify-log`**: walk a journal's hash-chained settlement log
//!   offline and certify it (exit 1 naming the first divergent seal on
//!   tamper).
//! * **`flight-dump`**: pretty-print a crash flight-recorder dump (the
//!   JSON a SIGUSR1 or a fail-stop journal error writes).
//!
//! Every entry point lists its flags, their values and their defaults
//! with `--help` (`dauction --help`, `dauction serve --help`, …); the
//! [`dauctioneer::cli`] tables in this file are the one list.
//!
//! `--mechanism` selects the clearing mechanism by spec:
//! `double | standard[,eps=PPM] | combinatorial[,budget=NODES] |
//! divisible[,beta=PRICE]` (default `double`). In one-shot mode it is the
//! only mechanism selector; in `serve` it decides what every epoch clears
//! with, is stamped on every epoch outcome and journal seal, and
//! `--recover` refuses a journal sealed under a different mechanism.
//!
//! `--chaos` injects seeded link faults into the persistent mesh; the
//! spec is the `key=value` format of `FaultPlan` (e.g.
//! `drop=0.05,dup=0.01,delay=0.2,delay-ms=1..10,corrupt=0.01,seed=7`).
//! The end-of-run summary then reports survivability: epochs cleared
//! vs ⊥-aborted under the plan.
//!
//! `--journal` arms the write-ahead epoch journal: accepted bids hit the
//! disk before they count, every cleared epoch is sealed onto a SHA-256
//! settlement chain. `--recover` resumes an existing journal after a
//! crash, re-clearing unsealed epochs to byte-identical outcomes
//! (`--recover --epochs 0` recovers, reports, and exits).
//!
//! In the `coordinator`/`provider` deployment the providers dial their
//! mesh once and keep it across clean epochs. `--mesh-budget-ms` is the
//! budget of **one bring-up** — the first epoch's, and each rebuild's
//! after a ⊥ or a roster change — not a per-epoch allowance; the
//! coordinator's `/metrics` counts the bring-ups it ordered as
//! `net_mesh_bringups_total`.
//!
//! `--metrics-addr` serves every market/net/chaos/journal counter in the
//! Prometheus text exposition format (`curl http://HOST:PORT/metrics`).
//! While serving, `kill -USR1 <pid>` dumps the crash flight recorder —
//! the last N structured market events — as JSON to `--flight-path` (or
//! stdout); a fail-stop journal error writes the same dump on its way
//! down. `--heartbeat-ms` prints a one-line stats heartbeat at that
//! cadence.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dauctioneer::cli::Flags;
use dauctioneer::core::{
    run_batch_with, BatchConfig, BatchSession, DoubleAuctionProgram, DynProgram, FrameworkConfig,
    RunError, RunOptions, TransportKind,
};
use dauctioneer::market::{
    register_market_metrics, verify_log, AbortReason, EpochOutcome, EpochPolicy, FsyncPolicy,
    JournalConfig, MarketConfig, MarketService, MarketStats, MechanismSpec,
};
use dauctioneer::net::FaultPlan;
use dauctioneer::sim::{run_auction_sim, LinkModel, SchedulePolicy};
use dauctioneer::telemetry::{FlightDump, MetricsServer, Registry};
use dauctioneer::types::{Outcome, ProviderId};
use dauctioneer::workload::{
    epoch_supply, ArrivalProcess, DoubleAuctionWorkload, StandardAuctionWorkload,
};

const USAGE: &str = "usage: dauction [FLAG]...          one auction, printed outcome
       dauction serve [FLAG]...    continuous market daemon
       dauction coordinator --listen HOST:PORT --providers M [FLAG]...
       dauction provider --id K --join HOST:PORT [FLAG]...
       dauction verify-log PATH
       dauction flight-dump PATH
Each subcommand takes --help. One-shot flags:";

const RUNTIMES: &[(&str, bool)] = &[("threads", false), ("des", true)];
const LATENCIES: &[(&str, bool)] = &[("zero", false), ("community", true)];

const MECHANISM_HELP: &str =
    "double | standard[,eps=PPM] | combinatorial[,budget=NODES] | divisible[,beta=PRICE]";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let rest = argv.get(1..).unwrap_or_default();
    let result = match argv.first().map_or("", String::as_str) {
        "serve" => serve_main(rest).map(|()| 0),
        "coordinator" => coordinator_main(rest),
        "provider" => provider_main(rest),
        "verify-log" => Ok(verify_log_main(rest)),
        "flight-dump" => Ok(flight_dump_main(rest)),
        _ => one_shot_main(&argv).map(|()| 0),
    };
    std::process::exit(result.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        2
    }));
}

/// The default mode: one auction on a generated §6 workload.
fn one_shot_main(argv: &[String]) -> Result<(), String> {
    let (mut mechanism, mut n, mut m, mut k, mut seed) = (MechanismSpec::default(), 50, 3, 1, 42);
    let (mut des, mut community) = (false, false);
    Flags::new(USAGE)
        .value("--mechanism SPEC", MECHANISM_HELP, &mut mechanism)
        .value("--n USERS", "bidding users", &mut n)
        .value("--m PROVIDERS", "providers", &mut m)
        .value("--k COALITION", "largest coalition tolerated, m > 2k", &mut k)
        .value("--seed SEED", "workload and protocol seed", &mut seed)
        .choice("--runtime", "threads, or the discrete-event simulator", &mut des, RUNTIMES)
        .choice("--latency", "link latency model", &mut community, LATENCIES)
        .parse(argv);
    // `m > 2k` depends on neither the mechanism nor the workload: reject
    // it here with a usage error, before any runtime asserts it.
    FrameworkConfig::new(m, k, n, 0)
        .validate()
        .map_err(|e| format!("invalid configuration: {e}"))?;

    println!(
        "dauction: {}, n={n} users, m={m} providers, k={k} (p={})",
        mechanism.name(),
        m / (k + 1)
    );

    let (outcome, elapsed_label, elapsed) = match mechanism {
        MechanismSpec::Double => {
            let bids = DoubleAuctionWorkload::new(n, m, seed).generate();
            let cfg = FrameworkConfig::new(m, k, n, m);
            run(des, community, seed, cfg, Arc::new(DoubleAuctionProgram::new()), vec![bids; m])
        }
        spec => {
            let (bids, capacities) = StandardAuctionWorkload::new(n, m, seed).generate();
            let program = DynProgram::new(spec.build_program(capacities));
            let cfg = FrameworkConfig::new(m, k, n, 0);
            run(des, community, seed, cfg, Arc::new(program), vec![bids; m])
        }
    }
    .map_err(|e| format!("run failed: {e}"))?;

    println!("{elapsed_label}: {elapsed:?}");
    match outcome {
        Outcome::Abort => println!("outcome: ⊥ (aborted)"),
        Outcome::Agreed(result) => {
            let winners = result.allocation.winners();
            println!(
                "outcome: agreed — {} winners, total allocated {}, total payments {}",
                winners.len(),
                result.allocation.total(),
                result.payments.total_user_payments()
            );
            for user in winners.iter().take(8) {
                println!(
                    "  {user}: {} units, pays {}",
                    result.allocation.user_total(*user),
                    result.payments.user_payment(*user)
                );
            }
            if winners.len() > 8 {
                println!("  … and {} more", winners.len() - 8);
            }
            for provider in ProviderId::all(result.allocation.num_providers()) {
                let sold = result.allocation.provider_total(provider);
                if !sold.is_zero() {
                    println!(
                        "  {provider}: serves {}, receives {}",
                        sold,
                        result.payments.provider_revenue(provider)
                    );
                }
            }
        }
    }
    Ok(())
}

/// The `coordinator` subcommand: the control-plane half of the
/// multi-process deployment. Binds the control listener, waits for all
/// `--providers` processes to join, clears `--epochs` epochs (sealing
/// every one onto the journal when armed), and prints each epoch plus a
/// survivability summary. Exit 0 on a completed run, 1 on bring-up
/// expiry or a journal fault.
fn coordinator_main(argv: &[String]) -> Result<i32, String> {
    use dauctioneer::market::{register_liveness_metrics, ClusterConfig, Coordinator};

    let (mut listen, mut metrics_addr) = (None::<String>, None::<String>);
    let (mut m, mut k) = (None, None);
    // The flags default to the library's cluster defaults; m and k are
    // set from --providers and --k below.
    let mut config = ClusterConfig::new(0, 0, 16);
    Flags::new("usage: dauction coordinator --listen HOST:PORT --providers M [FLAG]...")
        .optional("--listen HOST:PORT", "control-plane address (required)", &mut listen)
        .optional("--providers M", "provider processes (required)", &mut m)
        .optional("--k COALITION", "largest coalition tolerated (default (M-1)/2)", &mut k)
        .value("--n USERS", "user slots per epoch", &mut config.n_users)
        .value("--epochs E", "epochs to clear", &mut config.epochs)
        .value("--seed SEED", "bid and protocol seed", &mut config.seed)
        .millis("--deadline-ms D", "session deadline", &mut config.session_deadline)
        .millis(
            "--mesh-budget-ms D",
            "budget of one provider-mesh bring-up (the first epoch's, and each rebuild after \
             a ⊥ or a roster change); epochs that reuse the mesh spend none of it",
            &mut config.mesh_budget,
        )
        .millis("--join-timeout-ms D", "wait for all providers to join", &mut config.join_timeout)
        .millis("--epoch-ms D", "epoch period, 0 = back to back", &mut config.epoch_period)
        .optional("--journal PATH", "write-ahead epoch journal", &mut config.journal)
        .value("--fsync always|never|every=N", "journal sync policy", &mut config.fsync)
        .optional("--metrics-addr HOST:PORT", "serve /metrics", &mut metrics_addr)
        .parse(argv);
    let listen = listen.ok_or("coordinator requires --listen HOST:PORT")?;
    config.m = m.ok_or("coordinator requires --providers M")?;
    config.k = k.unwrap_or(config.m.saturating_sub(1) / 2);
    config.validate().map_err(|e| format!("invalid configuration: {e}"))?;

    let listener =
        std::net::TcpListener::bind(&listen).map_err(|e| format!("cannot bind {listen}: {e}"))?;
    let coordinator = Coordinator::new(listener, config.clone())
        .map_err(|e| format!("cannot start coordinator: {e}"))?;
    let ClusterConfig { m, k, n_users, epochs, seed, fsync, journal, .. } = config;
    println!(
        "dauction coordinator: control plane on {}, m={m} providers (k={k}), {n_users} user \
         slots/epoch, {epochs} epochs, seed {seed}",
        coordinator.local_addr()
    );
    if let Some(path) = &journal {
        println!("journal armed: {} (fsync {fsync})", path.display());
    }
    let metrics_server = serve_metrics(metrics_addr.as_deref(), |registry| {
        register_liveness_metrics(registry, coordinator.metrics());
    })?;

    let result = coordinator.run(|e| {
        print_epoch("epoch", e.epoch, e.session, e.accepted, &e.outcome, e.reason, e.latency);
    });
    drop(metrics_server);
    match result {
        Ok(report) => {
            print_summary(&report.stats, Some(report.reconnects));
            Ok(0)
        }
        Err(e) => {
            eprintln!("coordinator failed: {e}");
            Ok(1)
        }
    }
}

/// The `provider` subcommand: one provider process of the
/// multi-process deployment. Joins the coordinator (redialling under a
/// jittered exponential backoff), clears every work order over the
/// mesh it keeps across clean epochs (rebuilt after a ⊥ or a roster
/// change), and exits when the coordinator says shutdown. Exit 0 on a
/// clean shutdown, 1 on an exhausted reconnect budget.
fn provider_main(argv: &[String]) -> Result<i32, String> {
    use dauctioneer::market::{run_provider, ProviderConfig};

    let (mut id, mut join) = (None, None::<String>);
    // The flags default to the library's provider defaults; the id and
    // the coordinator come from the required --id and --join below.
    let mut config = ProviderConfig::new(0, "");
    Flags::new("usage: dauction provider --id K --join HOST:PORT [FLAG]...")
        .optional("--id K", "this provider's index, 0..M (required)", &mut id)
        .optional("--join HOST:PORT", "the coordinator's address (required)", &mut join)
        .value("--mesh-listen HOST:PORT", "provider-mesh listener", &mut config.mesh_listen)
        .millis("--heartbeat-ms D", "liveness heartbeat period", &mut config.heartbeat)
        .millis("--backoff-base-ms D", "first redial backoff", &mut config.backoff_base)
        .millis("--backoff-cap-ms D", "largest redial backoff", &mut config.backoff_cap)
        .value("--reconnect-budget N", "dials before giving up", &mut config.reconnect_budget)
        .parse(argv);
    let id = id.ok_or("provider requires --id K")?;
    let join = join.ok_or("provider requires --join HOST:PORT")?;
    config.id = id;
    config.coordinator = join.clone();
    // De-synchronize restart herds: jitter differs per process life.
    config.backoff_seed =
        (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(std::process::id());

    println!("dauction provider {id}: joining coordinator at {join}");
    match run_provider(config) {
        Ok(report) => {
            println!(
                "provider {id} done: {} epochs ({} cleared, {} ⊥), {} rejoin(s), {} mesh \
                 bring-up(s)",
                report.epochs, report.cleared, report.aborted, report.rejoins, report.mesh_bringups
            );
            Ok(0)
        }
        Err(e) => {
            eprintln!("provider {id} failed: {e}");
            Ok(1)
        }
    }
}

/// The `verify-log` subcommand: walk a settlement journal offline,
/// re-deriving the hash chain seal by seal. Prints a certification
/// summary and exits 0 on success; prints the first divergence (which
/// seal, which fault) and exits 1 on tamper or a torn tail.
fn verify_log_main(argv: &[String]) -> i32 {
    const USAGE: &str = "usage: dauction verify-log PATH";
    let [path] = argv else {
        eprintln!("{USAGE}");
        return 2;
    };
    if path == "--help" || path == "-h" {
        println!("{USAGE}");
        return 0;
    }
    match verify_log(std::path::Path::new(path)) {
        Ok(summary) => {
            println!(
                "verify-log: OK — {} records, {} sealed epochs, {} accepted bids, \
                 mechanism {}, chain tip {}",
                summary.records,
                summary.seals,
                summary.accepted,
                summary.mechanism.as_deref().unwrap_or("(none sealed)"),
                summary.tip.to_hex()
            );
            0
        }
        Err(e) => {
            eprintln!("verify-log: FAILED — {e}");
            1
        }
    }
}

/// The `flight-dump` subcommand: read a flight-recorder JSON dump (as
/// written on SIGUSR1 or by a fail-stop journal error) and pretty-print
/// it one event per line. Exits 1 on an unreadable or malformed dump.
fn flight_dump_main(argv: &[String]) -> i32 {
    const USAGE: &str = "usage: dauction flight-dump PATH";
    let [path] = argv else {
        eprintln!("{USAGE}");
        return 2;
    };
    if path == "--help" || path == "-h" {
        println!("{USAGE}");
        return 0;
    }
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("flight-dump: cannot read {path}: {e}");
            return 1;
        }
    };
    let dump = match FlightDump::parse(&text) {
        Ok(dump) => dump,
        Err(e) => {
            eprintln!("flight-dump: malformed dump: {e}");
            return 1;
        }
    };
    println!(
        "flight-dump: {} events retained (capacity {}), {} recorded in total",
        dump.events.len(),
        dump.capacity,
        dump.recorded
    );
    for event in &dump.events {
        let fields: Vec<String> = event.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!(
            "  #{:<6} +{:>10.3?} {:<5} {:<18} {}",
            event.seq,
            event.at,
            event.level.label(),
            event.kind,
            fields.join(" ")
        );
    }
    0
}

/// SIGUSR1 → flight dump, without a signal-handling dependency: the
/// handler only flips an atomic; a poller thread in `serve_main` does
/// the actual dump. Non-Linux builds compile the stub that never fires.
#[cfg(target_os = "linux")]
mod usr1 {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TRIGGERED: AtomicBool = AtomicBool::new(false);

    /// SIGUSR1 on every Linux ABI this builds for (x86-64, aarch64).
    const SIGUSR1: i32 = 10;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_usr1(_: i32) {
        // Only an atomic store: async-signal-safe by construction.
        TRIGGERED.store(true, Ordering::Relaxed);
    }

    /// Install the handler (idempotent).
    pub fn install() {
        unsafe {
            signal(SIGUSR1, on_usr1 as *const () as usize);
        }
    }

    /// Consume a pending trigger.
    pub fn take() -> bool {
        TRIGGERED.swap(false, Ordering::Relaxed)
    }
}

#[cfg(not(target_os = "linux"))]
mod usr1 {
    pub fn install() {}
    pub fn take() -> bool {
        false
    }
}

/// The `serve` subcommand: a continuous double-auction market fed by a
/// seeded Poisson arrival stream, printing each epoch as it closes and a
/// stats summary at the end. Bounded by `--epochs`.
fn serve_main(argv: &[String]) -> Result<(), String> {
    // Flags that name a market setting set it in place; k, the epoch
    // policy, the asks, the deadline and the journal are derived below.
    let mut config = MarketConfig::new(3, 0, 16, 0);
    config.seed = 42;
    let (mut rate, mut epochs, mut heartbeat_ms) = (400.0f64, 5u64, 2000u64);
    let (mut epoch_bids, mut epoch_ms, mut k, mut deadline_ms) = (None, None, None, None::<u64>);
    let (mut journal_path, mut metrics_addr) = (None::<std::path::PathBuf>, None::<String>);
    let (mut fsync, mut recover) = (FsyncPolicy::Always, false);
    Flags::new("usage: dauction serve [FLAG]...")
        .value("--mechanism SPEC", MECHANISM_HELP, &mut config.mechanism)
        .value("--rate BIDS_PER_SEC", "Poisson bid arrival rate", &mut rate)
        .value("--epochs E", "stop after E epochs; 0 = recover, report, exit", &mut epochs)
        .optional("--epoch-bids N", "bids per epoch (default 8 unless --epoch-ms)", &mut epoch_bids)
        .optional(
            "--epoch-ms D",
            "close an epoch every D ms (with --epoch-bids: whichever is first)",
            &mut epoch_ms,
        )
        .value("--n USERS", "user slots per epoch", &mut config.n_users)
        .value("--m PROVIDERS", "providers", &mut config.m)
        .optional("--k COALITION", "largest coalition tolerated (default (m-1)/2)", &mut k)
        .value("--seed SEED", "arrival stream and protocol seed", &mut config.seed)
        .choice(
            "--transport",
            "provider mesh",
            &mut config.transport,
            &[TransportKind::InProc, TransportKind::Tcp].map(|t| (t.name(), t)),
        )
        .value("--shards S", "independent provider meshes", &mut config.shards)
        .optional(
            "--chaos SPEC",
            "seeded link faults on the mesh: \
             drop=P,dup=P,reorder=P,delay=P,delay-ms=A..B,corrupt=P,seed=S,hold-ms=H",
            &mut config.chaos,
        )
        .optional(
            "--deadline-ms D",
            "session deadline (default 5000 under --chaos, else the market's)",
            &mut deadline_ms,
        )
        .optional("--journal PATH", "write-ahead epoch journal", &mut journal_path)
        .value("--fsync always|never|every=N", "journal sync policy", &mut fsync)
        .switch("--recover", "resume the --journal after a crash", &mut recover)
        .optional("--metrics-addr HOST:PORT", "serve /metrics", &mut metrics_addr)
        .optional(
            "--flight-path PATH",
            "SIGUSR1 flight dump file (default stdout)",
            &mut config.telemetry.flight_dump_path,
        )
        .value("--heartbeat-ms D", "stats heartbeat period, 0 = off", &mut heartbeat_ms)
        .parse(argv);

    if !(rate > 0.0 && rate.is_finite()) {
        return Err(format!("--rate must be a positive number of bids per second, got {rate}"));
    }
    let (m, n, seed, mechanism) = (config.m, config.n_users, config.seed, config.mechanism);
    config.k = k.unwrap_or(m.saturating_sub(1) / 2);
    config.n_asks = m;
    config.epoch = match (epoch_bids, epoch_ms) {
        (Some(count), Some(ms)) => {
            EpochPolicy::Hybrid { count, max_wait: Duration::from_millis(ms) }
        }
        (Some(count), None) => EpochPolicy::ByCount(count),
        (None, Some(ms)) => EpochPolicy::ByTime(Duration::from_millis(ms)),
        (None, None) => EpochPolicy::ByCount(8),
    };
    // §6.2-shaped supply sized to the expected epoch demand, shared
    // with the repo benchmark (see workload::epoch_supply).
    let expected_bids = match config.epoch {
        EpochPolicy::ByCount(c) | EpochPolicy::Hybrid { count: c, .. } => c as f64,
        EpochPolicy::ByTime(d) => (rate * d.as_secs_f64()).max(2.0),
    };
    config.asks = epoch_supply(m, expected_bids);
    // Under chaos, epochs that lost a critical message wait out the full
    // session deadline before reading ⊥; default it down so a bounded
    // demo run stays bounded. `--deadline-ms` overrides either way.
    config.session_deadline = match deadline_ms {
        Some(ms) => Duration::from_millis(ms),
        None if config.chaos.is_some() => Duration::from_secs(5),
        None => config.session_deadline,
    };
    match journal_path {
        Some(path) => {
            let mut jc = JournalConfig::new(path).with_fsync(fsync);
            if recover {
                jc = jc.recovering();
            }
            config.journal = Some(jc);
        }
        None if recover => return Err("--recover requires --journal PATH".into()),
        None => {}
    }
    config.validate().map_err(|e| format!("invalid configuration: {e}"))?;

    let MarketConfig { k, epoch, transport, shards, .. } = config;
    println!(
        "dauction serve: continuous {} market (spec `{mechanism}`), m={m} providers (k={k}), \
         {n} user slots/epoch, {rate} bids/s Poisson, {epoch:?}, {transport:?}×{shards} \
         shard(s); stopping after {epochs} epochs",
        mechanism.name()
    );
    if let Some(plan) = &config.chaos {
        println!("chaos plane armed: {plan} (replay any epoch from this spec)");
    }

    if let Some(jc) = &config.journal {
        println!(
            "journal armed: {} (fsync {}{})",
            jc.path.display(),
            jc.fsync,
            if jc.recover { ", recovering" } else { "" }
        );
    }
    let flight_path = config.telemetry.flight_dump_path.clone();

    let mut market =
        MarketService::start_from_spec(config).map_err(|e| format!("cannot start market: {e}"))?;
    if let Some(report) = market.recovery_report() {
        println!(
            "recovered: {} sealed epochs intact, {} in-flight epoch(s) re-cleared, {} torn \
             bytes dropped; resuming at epoch {}",
            report.sealed.len(),
            report.replayed.len(),
            report.dropped_bytes,
            report.next_epoch
        );
        for epoch in &report.replayed {
            print_outcome("  replayed epoch", epoch);
        }
    }
    println!(
        "transport up: io_threads={} (epoll reactor: O(1) per socket mesh; 0 = in-process \
         channels)",
        market.traffic().io_threads
    );
    let outcomes = market.take_outcomes().expect("outcomes not yet taken");
    let handle = market.handle();
    let watch = market.watch();

    // The unified telemetry plane: a scrape endpoint over the market's
    // own counters, a SIGUSR1-triggered flight dump, and a periodic
    // one-line heartbeat. All read-only observers of shared state.
    let metrics_server = serve_metrics(metrics_addr.as_deref(), |registry| {
        register_market_metrics(registry, watch.clone());
    })?;
    let ops_stop = Arc::new(AtomicBool::new(false));
    usr1::install();
    let flight_poller = {
        let watch = watch.clone();
        let ops_stop = Arc::clone(&ops_stop);
        let flight_path = flight_path.clone();
        std::thread::spawn(move || {
            while !ops_stop.load(Ordering::Relaxed) {
                if usr1::take() {
                    let dump = watch.flight_dump_json();
                    match &flight_path {
                        Some(path) => match std::fs::write(path, &dump) {
                            Ok(()) => eprintln!("flight dump written to {}", path.display()),
                            Err(e) => eprintln!("flight dump to {} failed: {e}", path.display()),
                        },
                        None => print!("{dump}"),
                    }
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        })
    };
    let heartbeat = (heartbeat_ms > 0).then(|| {
        let watch = watch.clone();
        let ops_stop = Arc::clone(&ops_stop);
        std::thread::spawn(move || {
            let period = Duration::from_millis(heartbeat_ms);
            loop {
                // Sleep in short slices so shutdown never waits a full
                // heartbeat period.
                let woke = std::time::Instant::now();
                while woke.elapsed() < period {
                    if ops_stop.load(Ordering::Relaxed) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
                let stats = watch.stats();
                println!(
                    "[heartbeat] epochs {} cleared / {} aborted, {:.1}/s, queue {}, bids {} \
                     accepted / {} shed, chaos faults {}, journal {} B",
                    stats.epochs_cleared,
                    stats.epochs_aborted,
                    stats.sessions_per_sec,
                    stats.queue_depth,
                    stats.bids_accepted,
                    stats.bids_shed,
                    stats.chaos.total(),
                    stats.journal_bytes,
                );
            }
        })
    });

    // Feeder: replay the seeded arrival stream in real time until told
    // to stop (the stream itself is infinite). `--epochs 0` skips it —
    // recover/report/exit without admitting a single new bid.
    let stop = Arc::new(AtomicBool::new(false));
    let feeder = (epochs > 0).then(|| {
        let stop = Arc::clone(&stop);
        let process = ArrivalProcess::poisson(n, rate, seed);
        std::thread::spawn(move || {
            process.replay_paced(usize::MAX, |arrival| {
                if stop.load(Ordering::Relaxed) {
                    return false;
                }
                match handle.submit_bid(arrival.user, arrival.bid) {
                    // Shed under overload: drop this bid, keep streaming
                    // (the stats count it).
                    Ok(()) | Err(dauctioneer::market::SubmitError::Overloaded) => true,
                    Err(dauctioneer::market::SubmitError::Closed) => false,
                }
            });
        })
    });

    let mut seen = 0u64;
    while seen < epochs {
        let Ok(epoch) = outcomes.recv_timeout(Duration::from_secs(30)) else {
            eprintln!("no epoch closed within 30s; shutting down");
            break;
        };
        seen += 1;
        print_outcome("epoch", &epoch);
    }

    stop.store(true, Ordering::Relaxed);
    if let Some(feeder) = feeder {
        let _ = feeder.join();
    }
    ops_stop.store(true, Ordering::Relaxed);
    let _ = flight_poller.join();
    if let Some(heartbeat) = heartbeat {
        let _ = heartbeat.join();
    }
    let stats = market.shutdown();
    drop(metrics_server);
    print_summary(&stats, None);
    Ok(())
}

/// Serve `/metrics` on `addr`, if given, over what `register` adds to a
/// fresh registry. The server stops when dropped.
fn serve_metrics(
    addr: Option<&str>,
    register: impl FnOnce(&Registry),
) -> Result<Option<MetricsServer>, String> {
    let Some(addr) = addr else { return Ok(None) };
    let registry = Registry::new();
    register(&registry);
    let server = MetricsServer::bind(addr, registry)
        .map_err(|e| format!("cannot bind metrics endpoint {addr}: {e}"))?;
    println!("metrics up: http://{}/metrics (Prometheus text format)", server.local_addr());
    Ok(Some(server))
}

/// A market epoch's line: [`print_epoch`] of an [`EpochOutcome`].
fn print_outcome(label: &str, e: &EpochOutcome) {
    let (session, bids) = (e.session.0, e.accepted_bids as u64);
    print_epoch(label, e.epoch, session, bids, &e.outcome, e.reason, e.latency);
}

/// One epoch's line, for `serve` and `coordinator` alike:
/// `epoch N (session S): B bids, outcome ⊥ (reason), LATENCY` or
/// `... → W winners, volume V, payments P, cleared in LATENCY`.
fn print_epoch(
    label: &str,
    epoch: u64,
    session: u64,
    bids: u64,
    outcome: &Outcome,
    reason: Option<AbortReason>,
    latency: Duration,
) {
    let head = format!("{label} {epoch:>3} (session {session}): {bids} bids");
    match outcome {
        Outcome::Abort => {
            let reason = reason.map_or("unknown", AbortReason::label);
            println!("{head}, outcome ⊥ ({reason}), {latency:?}");
        }
        Outcome::Agreed(result) => println!(
            "{head} → {} winners, volume {}, payments {}, cleared in {latency:?}",
            result.allocation.winners().len(),
            result.allocation.total(),
            result.payments.total_user_payments(),
        ),
    }
}

/// The end-of-run summary of `serve` and `coordinator` alike:
/// survivability (with the provider reconnects a coordinator counts),
/// injected chaos, throughput and latency, and the journal.
fn print_summary(stats: &MarketStats, reconnects: Option<u64>) {
    let aborted_by: Vec<String> = stats
        .epochs_aborted_by_reason
        .iter()
        .filter(|(_, count)| *count > 0)
        .map(|(reason, count)| format!("{reason}={count}"))
        .collect();
    println!(
        "survivability: {} epochs cleared, {} ⊥-aborted{}{}",
        stats.epochs_cleared,
        stats.epochs_aborted,
        if aborted_by.is_empty() { String::new() } else { format!(" ({})", aborted_by.join(", ")) },
        reconnects.map_or(String::new(), |r| format!(", {r} provider reconnect(s)"))
    );
    if stats.chaos.total() > 0 {
        println!(
            "chaos injected: {} dropped, {} duplicated, {} reordered, {} delayed, {} corrupted, \
             {} partitioned",
            stats.chaos.dropped,
            stats.chaos.duplicated,
            stats.chaos.reordered,
            stats.chaos.delayed,
            stats.chaos.corrupted,
            stats.chaos.partitioned,
        );
    }
    println!(
        "served {} epochs ({} clear groups) in {:?}: {:.1} sessions/s sustained, epoch latency \
         p50 {:?} / p99 {:?}; bids: {} accepted, {} shed, {} rejected (invalid {}, duplicate {}, \
         unknown {})",
        stats.epochs_closed,
        stats.clear_groups,
        stats.uptime,
        stats.sessions_per_sec,
        stats.epoch_latency_p50,
        stats.epoch_latency_p99,
        stats.bids_accepted,
        stats.bids_shed,
        stats.bids_rejected_invalid + stats.bids_rejected_duplicate + stats.bids_rejected_unknown,
        stats.bids_rejected_invalid,
        stats.bids_rejected_duplicate,
        stats.bids_rejected_unknown,
    );
    if stats.journal_bytes > 0 {
        println!(
            "journal: {} bytes, {} fsyncs (mean {:?}, max {:?})",
            stats.journal_bytes,
            stats.journal_fsyncs,
            stats.journal_fsync_mean,
            stats.journal_fsync_max,
        );
    }
}

fn run<P: dauctioneer::core::AllocatorProgram + 'static>(
    des: bool,
    community: bool,
    seed: u64,
    cfg: FrameworkConfig,
    program: Arc<P>,
    collected: Vec<dauctioneer::types::BidVector>,
) -> Result<(Outcome, &'static str, Duration), RunError> {
    if des {
        let link = if community { LinkModel::community_net() } else { LinkModel::instant() };
        let timed = SchedulePolicy::Timed(link);
        let report = run_auction_sim(&cfg, program, collected, &[], timed, seed)?;
        Ok((
            report.unanimous(),
            "virtual span (discrete-event, one CPU per provider)",
            report.span.unwrap_or(Duration::ZERO),
        ))
    } else {
        let chaos = community.then(|| FaultPlan::community_net(seed));
        let mut report = run_batch_with(
            &cfg,
            program,
            vec![BatchSession { session: cfg.session, collected, seed }],
            &RunOptions { deadline: Duration::from_secs(600), seed },
            &BatchConfig { chaos, ..BatchConfig::default() },
        )?;
        Ok((report.sessions.remove(0).unanimous(), "wall-clock (threaded)", report.elapsed))
    }
}
