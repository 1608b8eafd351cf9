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
//! ```text
//! dauction [--mechanism SPEC] [--n USERS] [--m PROVIDERS] [--k COALITION] [--seed SEED]
//!          [--runtime threads|des] [--latency zero|community]
//! dauction serve [--mechanism SPEC] [--rate BIDS_PER_SEC] [--epochs E] [--epoch-bids N]
//!          [--epoch-ms D] [--n USERS] [--m PROVIDERS] [--k COALITION] [--seed SEED]
//!          [--transport inproc|tcp] [--shards S] [--chaos SPEC]
//!          [--journal PATH] [--fsync always|never|every=N] [--recover]
//!          [--metrics-addr HOST:PORT] [--flight-path PATH] [--heartbeat-ms D]
//! dauction coordinator --listen HOST:PORT --providers M [--k COALITION] [--n USERS]
//!          [--epochs E] [--seed SEED] [--deadline-ms D] [--mesh-budget-ms D]
//!          [--join-timeout-ms D] [--epoch-ms D] [--journal PATH]
//!          [--fsync always|never|every=N] [--metrics-addr HOST:PORT]
//! dauction provider --id K --join HOST:PORT [--mesh-listen HOST:PORT]
//!          [--heartbeat-ms D] [--backoff-base-ms D] [--backoff-cap-ms D]
//!          [--reconnect-budget N]
//! dauction verify-log <PATH>
//! dauction flight-dump <PATH>
//! ```
//!
//! `--mechanism` selects the clearing mechanism by spec:
//! `double | standard[,eps=PPM] | combinatorial[,budget=NODES] |
//! divisible[,beta=PRICE]` (default `double`). In one-shot mode it is the
//! only mechanism selector; in `serve` it decides what every epoch clears
//! with, is stamped on every epoch outcome and journal seal, and
//! `--recover` refuses a journal sealed under a different mechanism.
//! Unknown `--runtime` and `--latency` values are usage errors (exit 2),
//! like every malformed flag.
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
//! cadence (0 disables; default 2000).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dauctioneer::core::{
    run_session, DoubleAuctionProgram, DynProgram, FrameworkConfig, RunOptions, TransportKind,
};
use dauctioneer::market::{
    register_market_metrics, verify_log, EpochPolicy, FsyncPolicy, JournalConfig, MarketConfig,
    MarketService, MechanismSpec,
};
use dauctioneer::net::LatencyModel;
use dauctioneer::sim::{run_auction_sim, LinkModel, SchedulePolicy};
use dauctioneer::telemetry::{FlightDump, MetricsServer, Registry};
use dauctioneer::types::{Outcome, ProviderId, UserId};
use dauctioneer::workload::{
    epoch_supply, ArrivalProcess, DoubleAuctionWorkload, StandardAuctionWorkload,
};

#[derive(Debug, Clone)]
struct Args {
    mechanism: MechanismSpec,
    n: usize,
    m: usize,
    k: usize,
    seed: u64,
    /// `--runtime des`: the discrete-event simulator instead of threads.
    des: bool,
    /// `--latency community`: community-network links instead of zero.
    community: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            mechanism: MechanismSpec::default(),
            n: 50,
            m: 3,
            k: 1,
            seed: 42,
            des: false,
            community: false,
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            let flag = argv[i].as_str();
            if flag == "--help" || flag == "-h" {
                return Err(HELP.to_string());
            }
            let value = argv.get(i + 1).ok_or_else(|| format!("missing value for {flag}"))?;
            match flag {
                "--mechanism" => args.mechanism = value.parse().map_err(|e| format!("{e}"))?,
                "--n" => args.n = value.parse().map_err(|e| format!("--n: {e}"))?,
                "--m" => args.m = value.parse().map_err(|e| format!("--m: {e}"))?,
                "--k" => args.k = value.parse().map_err(|e| format!("--k: {e}"))?,
                "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
                "--runtime" => {
                    args.des = match value.as_str() {
                        "threads" => false,
                        "des" => true,
                        other => return Err(format!("unknown runtime `{other}` (threads|des)")),
                    }
                }
                "--latency" => {
                    args.community = match value.as_str() {
                        "zero" => false,
                        "community" => true,
                        other => return Err(format!("unknown latency `{other}` (zero|community)")),
                    }
                }
                other => return Err(format!("unknown flag {other}\n{HELP}")),
            }
            i += 2;
        }
        Ok(args)
    }
}

const HELP: &str = "usage: dauction [--mechanism SPEC] [--n USERS] [--m PROVIDERS] \
[--k COALITION] [--seed SEED] [--runtime threads|des] [--latency zero|community]\n       \
dauction serve \
[--mechanism SPEC] [--rate BIDS_PER_SEC] [--epochs E] \
[--epoch-bids N] [--epoch-ms D] [--n USERS] [--m PROVIDERS] [--k COALITION] [--seed SEED] \
[--transport inproc|tcp] [--shards S] [--deadline-ms D] [--chaos drop=P,dup=P,reorder=P,\
delay=P,delay-ms=A..B,corrupt=P,seed=S,hold-ms=H] [--journal PATH] \
[--fsync always|never|every=N] [--recover] [--metrics-addr HOST:PORT] [--flight-path PATH] \
[--heartbeat-ms D]\n       dauction coordinator --listen HOST:PORT --providers M [--k COALITION] \
[--n USERS] [--epochs E] [--seed SEED] [--deadline-ms D] [--mesh-budget-ms D] \
[--join-timeout-ms D] [--epoch-ms D] [--journal PATH] [--fsync always|never|every=N] \
[--metrics-addr HOST:PORT]\n       dauction provider --id K --join HOST:PORT \
[--mesh-listen HOST:PORT] [--heartbeat-ms D] [--backoff-base-ms D] [--backoff-cap-ms D] \
[--reconnect-budget N]\n       dauction verify-log PATH\n       dauction flight-dump PATH\n\
mechanism SPEC (default double): double | standard[,eps=PPM] | combinatorial[,budget=NODES] | \
divisible[,beta=PRICE]\n\
--mesh-budget-ms D: budget of one provider-mesh bring-up (the first epoch's, and each rebuild \
after a ⊥ or a roster change); epochs that reuse the mesh spend none of it";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        match serve_main(&argv[1..]) {
            Ok(()) => return,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }
    if argv.first().map(String::as_str) == Some("coordinator") {
        match coordinator_main(&argv[1..]) {
            Ok(code) => std::process::exit(code),
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }
    if argv.first().map(String::as_str) == Some("provider") {
        match provider_main(&argv[1..]) {
            Ok(code) => std::process::exit(code),
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }
    if argv.first().map(String::as_str) == Some("verify-log") {
        std::process::exit(verify_log_main(&argv[1..]));
    }
    if argv.first().map(String::as_str) == Some("flight-dump") {
        std::process::exit(flight_dump_main(&argv[1..]));
    }
    let args = match Args::parse() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    // `m > 2k` depends on neither the mechanism nor the workload: reject
    // it here with a usage error, before any runtime asserts it.
    if let Err(e) = FrameworkConfig::new(args.m, args.k, args.n, 0).validate() {
        eprintln!("invalid configuration: {e}");
        std::process::exit(2);
    }

    println!(
        "dauction: {}, n={} users, m={} providers, k={} (p={})",
        args.mechanism.name(),
        args.n,
        args.m,
        args.k,
        args.m / (args.k + 1)
    );

    let (outcome, elapsed_label, elapsed) = match args.mechanism {
        MechanismSpec::Double => {
            let bids = DoubleAuctionWorkload::new(args.n, args.m, args.seed).generate();
            let cfg = FrameworkConfig::new(args.m, args.k, args.n, args.m);
            run(&args, cfg, Arc::new(DoubleAuctionProgram::new()), vec![bids; args.m])
        }
        spec => {
            let (bids, capacities) =
                StandardAuctionWorkload::new(args.n, args.m, args.seed).generate();
            let program = DynProgram::new(spec.build_program(capacities));
            let cfg = FrameworkConfig::new(args.m, args.k, args.n, 0);
            run(&args, cfg, Arc::new(program), vec![bids; args.m])
        }
    };

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
            let _ = UserId(0);
        }
    }
}

/// The `coordinator` subcommand: the control-plane half of the
/// multi-process deployment. Binds the control listener, waits for all
/// `--providers` processes to join, clears `--epochs` epochs (sealing
/// every one onto the journal when armed), and prints each epoch plus a
/// survivability summary. Exit 0 on a completed run, 1 on bring-up
/// expiry or a journal fault.
fn coordinator_main(argv: &[String]) -> Result<i32, String> {
    use dauctioneer::market::{register_liveness_metrics, ClusterConfig, Coordinator};

    let mut listen: Option<String> = None;
    let mut m: Option<usize> = None;
    let mut k: Option<usize> = None;
    let mut n = 16usize;
    let mut epochs = 8u64;
    let mut seed = 42u64;
    let mut deadline_ms = 5000u64;
    let mut mesh_budget_ms = 2000u64;
    let mut join_timeout_ms = 30_000u64;
    let mut epoch_ms = 0u64;
    let mut journal_path: Option<std::path::PathBuf> = None;
    let mut fsync = FsyncPolicy::Always;
    let mut metrics_addr: Option<String> = None;

    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--help" || flag == "-h" {
            return Err(HELP.to_string());
        }
        let value = argv.get(i + 1).ok_or_else(|| format!("missing value for {flag}"))?;
        match flag {
            "--listen" => listen = Some(value.clone()),
            "--providers" => m = Some(value.parse().map_err(|e| format!("--providers: {e}"))?),
            "--k" => k = Some(value.parse().map_err(|e| format!("--k: {e}"))?),
            "--n" => n = value.parse().map_err(|e| format!("--n: {e}"))?,
            "--epochs" => epochs = value.parse().map_err(|e| format!("--epochs: {e}"))?,
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--deadline-ms" => {
                deadline_ms = value.parse().map_err(|e| format!("--deadline-ms: {e}"))?
            }
            "--mesh-budget-ms" => {
                mesh_budget_ms = value.parse().map_err(|e| format!("--mesh-budget-ms: {e}"))?
            }
            "--join-timeout-ms" => {
                join_timeout_ms = value.parse().map_err(|e| format!("--join-timeout-ms: {e}"))?
            }
            "--epoch-ms" => epoch_ms = value.parse().map_err(|e| format!("--epoch-ms: {e}"))?,
            "--journal" => journal_path = Some(std::path::PathBuf::from(value)),
            "--fsync" => fsync = value.parse().map_err(|e| format!("--fsync: {e}"))?,
            "--metrics-addr" => metrics_addr = Some(value.clone()),
            other => return Err(format!("unknown coordinator flag {other}\n{HELP}")),
        }
        i += 2;
    }
    let listen = listen.ok_or("coordinator requires --listen HOST:PORT")?;
    let m = m.ok_or("coordinator requires --providers M")?;
    let k = k.unwrap_or(m.saturating_sub(1) / 2);

    let mut config = ClusterConfig::new(m, k, n);
    config.epochs = epochs;
    config.seed = seed;
    config.session_deadline = Duration::from_millis(deadline_ms);
    config.mesh_budget = Duration::from_millis(mesh_budget_ms);
    config.join_timeout = Duration::from_millis(join_timeout_ms);
    config.epoch_period = Duration::from_millis(epoch_ms);
    config.journal = journal_path.clone();
    config.fsync = fsync;

    let listener =
        std::net::TcpListener::bind(&listen).map_err(|e| format!("cannot bind {listen}: {e}"))?;
    let coordinator =
        Coordinator::new(listener, config).map_err(|e| format!("cannot start coordinator: {e}"))?;
    println!(
        "dauction coordinator: control plane on {}, m={m} providers (k={k}), {n} user \
         slots/epoch, {epochs} epochs, seed {seed}",
        coordinator.local_addr()
    );
    if let Some(path) = &journal_path {
        println!("journal armed: {} (fsync {fsync})", path.display());
    }
    let metrics_server = match &metrics_addr {
        Some(addr) => {
            let registry = Registry::new();
            register_liveness_metrics(&registry, coordinator.metrics());
            let server = MetricsServer::bind(addr, registry)
                .map_err(|e| format!("cannot bind metrics endpoint {addr}: {e}"))?;
            println!("metrics up: http://{}/metrics (Prometheus text format)", server.local_addr());
            Some(server)
        }
        None => None,
    };

    let result = coordinator.run(|epoch| match &epoch.outcome {
        Outcome::Abort => println!(
            "epoch {:>3} (session {}): {} bids, outcome ⊥ ({}), {:?}",
            epoch.epoch,
            epoch.session,
            epoch.accepted,
            epoch.reason.map_or("unknown", |r| r.label()),
            epoch.latency
        ),
        Outcome::Agreed(result) => println!(
            "epoch {:>3} (session {}): {} bids → {} winners, volume {}, cleared in {:?}",
            epoch.epoch,
            epoch.session,
            epoch.accepted,
            result.allocation.winners().len(),
            result.allocation.total(),
            epoch.latency
        ),
    });
    if let Some(mut server) = metrics_server {
        server.shutdown();
    }
    match result {
        Ok(report) => {
            println!(
                "survivability: {} epochs cleared, {} ⊥-aborted ({} peer_down), {} provider \
                 reconnect(s)",
                report.cleared(),
                report.aborted(),
                report.peer_down_aborts(),
                report.reconnects
            );
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

    let mut id: Option<usize> = None;
    let mut join: Option<String> = None;
    let mut mesh_listen: Option<String> = None;
    let mut heartbeat_ms = 150u64;
    let mut backoff_base_ms = 50u64;
    let mut backoff_cap_ms = 2000u64;
    let mut reconnect_budget = 40u32;

    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--help" || flag == "-h" {
            return Err(HELP.to_string());
        }
        let value = argv.get(i + 1).ok_or_else(|| format!("missing value for {flag}"))?;
        match flag {
            "--id" => id = Some(value.parse().map_err(|e| format!("--id: {e}"))?),
            "--join" => join = Some(value.clone()),
            "--mesh-listen" => mesh_listen = Some(value.clone()),
            "--heartbeat-ms" => {
                heartbeat_ms = value.parse().map_err(|e| format!("--heartbeat-ms: {e}"))?
            }
            "--backoff-base-ms" => {
                backoff_base_ms = value.parse().map_err(|e| format!("--backoff-base-ms: {e}"))?
            }
            "--backoff-cap-ms" => {
                backoff_cap_ms = value.parse().map_err(|e| format!("--backoff-cap-ms: {e}"))?
            }
            "--reconnect-budget" => {
                reconnect_budget = value.parse().map_err(|e| format!("--reconnect-budget: {e}"))?
            }
            other => return Err(format!("unknown provider flag {other}\n{HELP}")),
        }
        i += 2;
    }
    let id = id.ok_or("provider requires --id K")?;
    let join = join.ok_or("provider requires --join HOST:PORT")?;

    let mut config = ProviderConfig::new(id, join.clone());
    if let Some(addr) = mesh_listen {
        config.mesh_listen = addr;
    }
    config.heartbeat = Duration::from_millis(heartbeat_ms);
    config.backoff_base = Duration::from_millis(backoff_base_ms);
    config.backoff_cap = Duration::from_millis(backoff_cap_ms);
    config.reconnect_budget = reconnect_budget;
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
    let [path] = argv else {
        eprintln!("usage: dauction verify-log PATH");
        return 2;
    };
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
    let [path] = argv else {
        eprintln!("usage: dauction flight-dump PATH");
        return 2;
    };
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
    let mut mechanism = MechanismSpec::default();
    let mut rate = 400.0f64;
    let mut epochs = 5u64;
    let mut epoch_bids: Option<usize> = None;
    let mut epoch_ms: Option<u64> = None;
    let mut n = 16usize;
    let mut m = 3usize;
    let mut k: Option<usize> = None;
    let mut seed = 42u64;
    let mut transport = TransportKind::InProc;
    let mut shards = 1usize;
    let mut chaos: Option<dauctioneer::net::FaultPlan> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut journal_path: Option<std::path::PathBuf> = None;
    let mut fsync = FsyncPolicy::Always;
    let mut recover = false;
    let mut metrics_addr: Option<String> = None;
    let mut flight_path: Option<std::path::PathBuf> = None;
    let mut heartbeat_ms = 2000u64;

    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--help" || flag == "-h" {
            return Err(HELP.to_string());
        }
        // Boolean flag: takes no value.
        if flag == "--recover" {
            recover = true;
            i += 1;
            continue;
        }
        let value = argv.get(i + 1).ok_or_else(|| format!("missing value for {flag}"))?;
        match flag {
            "--mechanism" => mechanism = value.parse().map_err(|e| format!("{e}"))?,
            "--rate" => rate = value.parse().map_err(|e| format!("--rate: {e}"))?,
            "--epochs" => epochs = value.parse().map_err(|e| format!("--epochs: {e}"))?,
            "--epoch-bids" => {
                epoch_bids = Some(value.parse().map_err(|e| format!("--epoch-bids: {e}"))?)
            }
            "--epoch-ms" => epoch_ms = Some(value.parse().map_err(|e| format!("--epoch-ms: {e}"))?),
            "--n" => n = value.parse().map_err(|e| format!("--n: {e}"))?,
            "--m" => m = value.parse().map_err(|e| format!("--m: {e}"))?,
            "--k" => k = Some(value.parse().map_err(|e| format!("--k: {e}"))?),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--transport" => {
                transport = match value.as_str() {
                    "inproc" => TransportKind::InProc,
                    "tcp" => TransportKind::Tcp,
                    other => return Err(format!("unknown transport `{other}` (inproc|tcp)")),
                }
            }
            "--shards" => shards = value.parse().map_err(|e| format!("--shards: {e}"))?,
            "--chaos" => chaos = Some(value.parse().map_err(|e| format!("--chaos: {e}"))?),
            "--deadline-ms" => {
                deadline_ms = Some(value.parse().map_err(|e| format!("--deadline-ms: {e}"))?)
            }
            "--journal" => journal_path = Some(std::path::PathBuf::from(value)),
            "--fsync" => fsync = value.parse().map_err(|e| format!("--fsync: {e}"))?,
            "--metrics-addr" => metrics_addr = Some(value.clone()),
            "--flight-path" => flight_path = Some(std::path::PathBuf::from(value)),
            "--heartbeat-ms" => {
                heartbeat_ms = value.parse().map_err(|e| format!("--heartbeat-ms: {e}"))?
            }
            other => return Err(format!("unknown serve flag {other}\n{HELP}")),
        }
        i += 2;
    }

    if !(rate > 0.0 && rate.is_finite()) {
        return Err(format!("--rate must be a positive number of bids per second, got {rate}"));
    }
    let k = k.unwrap_or(m.saturating_sub(1) / 2);
    let policy = match (epoch_bids, epoch_ms) {
        (Some(count), Some(ms)) => {
            EpochPolicy::Hybrid { count, max_wait: Duration::from_millis(ms) }
        }
        (Some(count), None) => EpochPolicy::ByCount(count),
        (None, Some(ms)) => EpochPolicy::ByTime(Duration::from_millis(ms)),
        (None, None) => EpochPolicy::ByCount(8),
    };
    // §6.2-shaped supply sized to the expected epoch demand, shared
    // with the market_soak bench (see workload::epoch_supply).
    let expected_bids = match policy {
        EpochPolicy::ByCount(c) | EpochPolicy::Hybrid { count: c, .. } => c as f64,
        EpochPolicy::ByTime(d) => (rate * d.as_secs_f64()).max(2.0),
    };
    let mut config = MarketConfig::new(m, k, n, m)
        .with_epoch(policy)
        .with_transport(transport, shards)
        .with_mechanism(mechanism);
    config.asks = epoch_supply(m, expected_bids);
    config.seed = seed;
    config.chaos = chaos;
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
    config.telemetry.flight_dump_path = flight_path.clone();

    println!(
        "dauction serve: continuous {} market (spec `{mechanism}`), m={m} providers (k={k}), \
         {n} user slots/epoch, {rate} bids/s Poisson, {policy:?}, {transport:?}×{shards} \
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
            match &epoch.outcome {
                Outcome::Abort => println!(
                    "  replayed epoch {:>3} (session {}): {} bids, outcome ⊥",
                    epoch.epoch, epoch.session, epoch.accepted_bids
                ),
                Outcome::Agreed(result) => println!(
                    "  replayed epoch {:>3} (session {}): {} bids → {} winners, volume {}, \
                     payments {}",
                    epoch.epoch,
                    epoch.session,
                    epoch.accepted_bids,
                    result.allocation.winners().len(),
                    result.allocation.total(),
                    result.payments.total_user_payments(),
                ),
            }
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
    let metrics_server = match &metrics_addr {
        Some(addr) => {
            let registry = Registry::new();
            register_market_metrics(&registry, watch.clone());
            let server = MetricsServer::bind(addr, registry)
                .map_err(|e| format!("cannot bind metrics endpoint {addr}: {e}"))?;
            println!("metrics up: http://{}/metrics (Prometheus text format)", server.local_addr());
            Some(server)
        }
        None => None,
    };
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
        match &epoch.outcome {
            Outcome::Abort => println!(
                "epoch {:>3} (session {}): {} bids, outcome ⊥, {:?}",
                epoch.epoch, epoch.session, epoch.accepted_bids, epoch.latency
            ),
            Outcome::Agreed(result) => println!(
                "epoch {:>3} (session {}): {} bids → {} winners, volume {}, payments {}, \
                 cleared in {:?}",
                epoch.epoch,
                epoch.session,
                epoch.accepted_bids,
                result.allocation.winners().len(),
                result.allocation.total(),
                result.payments.total_user_payments(),
                epoch.latency
            ),
        }
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
    if let Some(mut server) = metrics_server {
        server.shutdown();
    }
    let aborted_by: Vec<String> = stats
        .epochs_aborted_by_reason
        .iter()
        .filter(|(_, count)| *count > 0)
        .map(|(reason, count)| format!("{reason}={count}"))
        .collect();
    println!(
        "survivability: {} epochs cleared, {} ⊥-aborted{}",
        stats.epochs_cleared,
        stats.epochs_aborted,
        if aborted_by.is_empty() { String::new() } else { format!(" ({})", aborted_by.join(", ")) }
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
        "served {} epochs in {:?}: {:.1} sessions/s sustained, epoch latency p50 {:?} / p99 \
         {:?}; bids: {} accepted, {} shed, {} rejected (invalid {}, duplicate {}, unknown {})",
        stats.epochs_closed,
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
    Ok(())
}

fn run<P: dauctioneer::core::AllocatorProgram + 'static>(
    args: &Args,
    cfg: FrameworkConfig,
    program: Arc<P>,
    collected: Vec<dauctioneer::types::BidVector>,
) -> (Outcome, &'static str, Duration) {
    if args.des {
        let link = if args.community { LinkModel::community_net() } else { LinkModel::instant() };
        let timed = SchedulePolicy::Timed(link);
        let report = run_auction_sim(&cfg, program, collected, &[], timed, args.seed);
        (
            report.unanimous(),
            "virtual span (discrete-event, one CPU per provider)",
            report.span.unwrap_or(Duration::ZERO),
        )
    } else {
        let latency = if args.community { LatencyModel::CommunityNet } else { LatencyModel::Zero };
        let report = run_session(
            &cfg,
            program,
            collected,
            &RunOptions { deadline: Duration::from_secs(600), latency, seed: args.seed },
        );
        (report.unanimous(), "wall-clock (threaded)", report.elapsed)
    }
}
