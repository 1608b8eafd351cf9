//! `batch_throughput` — sessions/sec of multiplexed multi-session
//! batches, swept over batch size, hub sharding, and transport.
//!
//! The paper measures the running time of *one* auction; a marketplace
//! at scale clears many concurrently. Two sweeps run:
//!
//! 1. **batched vs sequential** — N sessions multiplexed over one shared
//!    mesh (`run_batch`) against the same sessions back-to-back over
//!    per-session meshes (`run_session` in a loop);
//! 2. **shards × transport** — the same batch through
//!    `run_batch_with(BatchConfig { shards, transport })`: in-process
//!    channels vs real loopback TCP sockets, and 1–8 independent hub
//!    shards. Sharding multiplies provider threads, so its speedup
//!    tracks the host's core count (printed with the results: on a
//!    single-core host the sharded and single-hub numbers converge).
//!
//! `--mesh-size` (alias of `--m`) is the mesh-size axis of the reactor
//! m-sweep: rerun the shards × transport sweep at m = 4/8/16/32 and the
//! TCP rows ride one epoll reactor per mesh — the printed `io thr`
//! column (the `dauctioneer_net::TrafficSnapshot::io_threads` gauge)
//! reads 1 however large m and shards grow, where the old design held
//! 2m(m−1) blocking socket threads per mesh (in-process rows read 0:
//! channels need no I/O threads).
//!
//! `--json` additionally writes `BENCH_batch_throughput.json` —
//! configuration plus both sweeps, machine-readable — so the perf
//! trajectory across commits is a diffable data point, not a prose
//! claim.

use std::sync::Arc;
use std::time::Duration;

use dauctioneer::cli::Flags;
use dauctioneer_bench::json::{provenance, write_bench_file, JsonArray, JsonObject};
use dauctioneer_bench::{fmt_secs, time_once, CommonArgs, Stats, Table};
use dauctioneer_core::{
    run_batch, run_batch_with, run_session, BatchConfig, BatchSession, DoubleAuctionProgram,
    FrameworkConfig, RunOptions, TransportKind,
};
use dauctioneer_types::SessionId;
use dauctioneer_workload::DoubleAuctionWorkload;

fn main() {
    let mut common = CommonArgs::new(3);
    let (mut emit_json, mut n_users, mut m, mut mesh_size) = (false, 20usize, None, None);
    common
        .flags(Flags::new("usage: batch_throughput [FLAG]...   multi-session batches, sessions/s"))
        .switch("--json", "also write BENCH_batch_throughput.json", &mut emit_json)
        .value("--n USERS", "users per session", &mut n_users)
        .optional("--m PROVIDERS", "providers (default 3)", &mut m)
        .optional("--mesh-size PROVIDERS", "alias of --m; --m wins", &mut mesh_size)
        .parse(std::env::args().skip(1));
    let m = m.or(mesh_size).unwrap_or(3).max(1);
    let k = (m - 1) / 2;
    let cfg = FrameworkConfig::new(m, k, n_users, m);
    let program = Arc::new(DoubleAuctionProgram::new());
    let options = RunOptions { deadline: Duration::from_secs(600), ..RunOptions::default() };
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);

    println!(
        "batch throughput: double auction, n={n_users} users/session, m={m} providers, k={k}, \
         {} rounds, host cores={cores}",
        common.rounds
    );

    let sessions = |base: u64, batch: usize| -> Vec<BatchSession> {
        (0..batch)
            .map(|s| {
                let bids = DoubleAuctionWorkload::new(n_users, m, base + s as u64).generate();
                BatchSession::uniform(SessionId(base + s as u64), bids, m, base + 31 * s as u64)
            })
            .collect()
    };

    // Untimed warm-up: one throwaway session so neither sweep's first
    // measured run pays the one-time costs (lazy allocator pools, page
    // faults, branch warm-up) — previously the batched column ran first
    // and absorbed all of it, which read as a phantom 1-session
    // "regression".
    let _ = run_batch(&cfg, Arc::clone(&program), sessions(999_999_000, 1), &options);

    // Sweep 1: batched (one shared mesh) vs sequential (per-session mesh).
    let batch_sizes: &[usize] = if common.quick { &[1, 4, 8] } else { &[1, 2, 4, 8, 16, 32] };
    let mut json_batched = JsonArray::new();
    let mut json_sharded = JsonArray::new();
    let mut table = Table::new(
        &["sessions", "batched", "batched/s", "sequential", "sequential/s", "speedup"],
        common.csv,
    );
    for (size_idx, &batch) in batch_sizes.iter().enumerate() {
        let mut batched = Vec::with_capacity(common.rounds);
        let mut sequential = Vec::with_capacity(common.rounds);
        for round in 0..common.rounds {
            let base = (round * batch_sizes.len() + size_idx) as u64 * 1_000;

            let (report, elapsed) = time_once(|| {
                run_batch(&cfg, Arc::clone(&program), sessions(base, batch), &options)
            });
            assert!(report.all_agreed(), "batched session aborted");
            batched.push(elapsed);

            let (all_ok, elapsed) = time_once(|| {
                sessions(base, batch).into_iter().all(|spec| {
                    let report = run_session(
                        &cfg.clone().with_session(spec.session),
                        Arc::clone(&program),
                        spec.collected,
                        &RunOptions { seed: spec.seed, ..options.clone() },
                    );
                    !report.unanimous().is_abort()
                })
            });
            assert!(all_ok, "sequential session aborted");
            sequential.push(elapsed);
        }

        let batched = Stats::of(&batched);
        let sequential = Stats::of(&sequential);
        table.row(vec![
            batch.to_string(),
            fmt_secs(batched.mean_s),
            format!("{:.1}", batch as f64 / batched.mean_s),
            fmt_secs(sequential.mean_s),
            format!("{:.1}", batch as f64 / sequential.mean_s),
            format!("{:.2}x", sequential.mean_s / batched.mean_s),
        ]);
        let mut row = JsonObject::new();
        row.int("sessions", batch as u64)
            .num("batched_mean_s", batched.mean_s)
            .num("batched_sessions_per_s", batch as f64 / batched.mean_s)
            .num("sequential_mean_s", sequential.mean_s)
            .num("sequential_sessions_per_s", batch as f64 / sequential.mean_s)
            .num("speedup", sequential.mean_s / batched.mean_s);
        json_batched.push(row.finish());
    }
    print!("{}", table.render());

    // Sweep 2: shards × transport at fixed batch sizes. The single-hub
    // in-process run (shards=1) is the PR-1 baseline every other row is
    // compared against.
    let shard_batches: &[usize] = if common.quick { &[8] } else { &[8, 16, 32] };
    let configs: &[(TransportKind, usize)] = &[
        (TransportKind::InProc, 1),
        (TransportKind::InProc, 2),
        (TransportKind::InProc, 4),
        (TransportKind::InProc, 8),
        (TransportKind::Tcp, 1),
        (TransportKind::Tcp, 4),
    ];
    println!();
    let mut table = Table::new(
        &["sessions", "transport", "shards", "mean", "sessions/s", "vs single hub", "io thr"],
        common.csv,
    );
    for (size_idx, &batch) in shard_batches.iter().enumerate() {
        let mut baseline_mean = None;
        for (cfg_idx, &(transport, shards)) in configs.iter().enumerate() {
            let batch_cfg = BatchConfig { shards, transport, ..BatchConfig::default() };
            let mut samples = Vec::with_capacity(common.rounds);
            let mut io_threads = 0u64;
            for round in 0..common.rounds {
                let base = 1_000_000
                    + ((round * shard_batches.len() + size_idx) * configs.len() + cfg_idx) as u64
                        * 1_000;
                let (report, elapsed) = time_once(|| {
                    run_batch_with(
                        &cfg,
                        Arc::clone(&program),
                        sessions(base, batch),
                        &options,
                        &batch_cfg,
                    )
                });
                assert!(report.all_agreed(), "{} shards={shards} aborted", transport.name());
                // The I/O-thread gauge of the batch's transport: 1 for a
                // socket mesh (one reactor regardless of m and shards),
                // 0 in process.
                io_threads = report.traffic.io_threads;
                samples.push(elapsed);
            }
            let stats = Stats::of(&samples);
            let baseline = *baseline_mean.get_or_insert(stats.mean_s);
            table.row(vec![
                batch.to_string(),
                transport.name().to_string(),
                shards.to_string(),
                fmt_secs(stats.mean_s),
                format!("{:.1}", batch as f64 / stats.mean_s),
                format!("{:.2}x", baseline / stats.mean_s),
                io_threads.to_string(),
            ]);
            let mut row = JsonObject::new();
            row.int("sessions", batch as u64)
                .str("transport", transport.name())
                .int("shards", shards as u64)
                .num("mean_s", stats.mean_s)
                .num("sessions_per_s", batch as f64 / stats.mean_s)
                .num("vs_single_hub", baseline / stats.mean_s)
                .int("io_threads", io_threads);
            json_sharded.push(row.finish());
        }
    }
    print!("{}", table.render());
    if cores < 4 {
        println!(
            "note: host has {cores} core(s); shard speedups need shards ≤ cores to materialise"
        );
    }

    if emit_json {
        let mut config = JsonObject::new();
        config
            .int("n_users", n_users as u64)
            .int("m", m as u64)
            .int("k", k as u64)
            .int("rounds", common.rounds as u64)
            .bool("quick", common.quick)
            .int("host_cores", cores as u64);
        let mut top = JsonObject::new();
        top.str("bench", "batch_throughput")
            .raw("provenance", &provenance())
            .raw("config", &config.finish())
            .raw("batched_vs_sequential", &json_batched.finish())
            .raw("shards_x_transport", &json_sharded.finish());
        match write_bench_file("batch_throughput", &top.finish()) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("failed to write BENCH_batch_throughput.json: {e}"),
        }
    }
}
