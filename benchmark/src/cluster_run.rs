//! The deployed path in one process: `Coordinator::run` plus `m`
//! `run_provider` threads over loopback sockets. The coordinator owns the
//! epoch clock and synthesises the bids, so this workload is a closed loop
//! only, timed from outside as the interval between `on_epoch` callbacks.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use dauctioneer_crypto::Sha256;
use dauctioneer_market::cluster::generate_epoch_bids;
use dauctioneer_market::{run_provider, ClusterConfig, Coordinator, ProviderConfig};
use dauctioneer_types::{BidVector, Encode};

use crate::report::Report;
use crate::stats::{chunked_rate, median, ms, quantile, windowed_quantile};
use crate::workloads::{Sizes, Workload};

/// What the traced run replays: the vectors the coordinator synthesised, as
/// `(epoch, epoch seed, vector)`.
pub struct ClusterEpochs {
    pub vectors: Vec<(u64, u64, BidVector)>,
    /// Time from `Coordinator::new` until every provider had joined.
    pub join: Duration,
}

/// The seed of epoch `e`, as `Coordinator::run` derives it.
fn epoch_seed(seed: u64, epoch: u64) -> u64 {
    seed.wrapping_add((epoch + 1).wrapping_mul(7919))
}

pub fn run_cluster(
    w: &Workload,
    sizes: Sizes,
    seed: u64,
    keep_epochs: usize,
    on_ready: &mut dyn FnMut(),
    setup_only: bool,
    report: &mut Report,
) -> Result<Option<ClusterEpochs>, String> {
    let total = sizes.total_epochs();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let mut config = ClusterConfig::new(w.m, w.k, w.n_users);
    config.epochs = total as u64;
    config.seed = seed;
    let join_started = Instant::now();
    let coordinator = Coordinator::new(listener, config).map_err(|e| e.to_string())?;
    let addr = coordinator.local_addr().to_string();
    let liveness = coordinator.metrics();
    let providers: Vec<_> = (0..w.m)
        .map(|id| {
            let addr = addr.clone();
            std::thread::spawn(move || run_provider(ProviderConfig::new(id, addr)))
        })
        .collect();
    // Ready means every provider joined: the first work order can go out.
    let deadline = Instant::now() + Duration::from_secs(30);
    while liveness.peers_up() < w.m as u64 {
        if Instant::now() >= deadline {
            return Err("providers did not join within 30 s".to_string());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let join = join_started.elapsed();
    on_ready();
    if setup_only {
        // Nothing is left to measure, and a `Shutdown` broadcast this early
        // can miss a provider (below) and leave its thread waiting for ever:
        // the caller ends the process, which ends the threads.
        return Ok(None);
    }
    // The coordinator counts a provider up a moment before it registers the
    // provider's control writer; a work order sent inside that window misses
    // the provider. Nothing outside can see the second step, so give it
    // time — on a busy host the registering thread can lose its core for
    // tens of milliseconds.
    std::thread::sleep(Duration::from_millis(50));

    let mut sealed_at: Vec<Instant> = Vec::with_capacity(total);
    let mut program_latency_ms = Vec::with_capacity(total);
    let mut digest = Sha256::new();
    let mut bad_epochs = 0usize;
    let mut failures = Vec::new();
    let run = coordinator.run(|epoch| {
        sealed_at.push(Instant::now());
        program_latency_ms.push(ms(epoch.latency));
        digest.update(&epoch.outcome.encode_to_bytes());
        // `ClusterEpoch::outcome` is already the unanimous fold over the
        // providers' reports: non-⊥ means every provider decided it.
        if epoch.outcome.is_abort() || epoch.accepted != w.n_users as u64 {
            bad_epochs += 1;
            if failures.len() < 8 {
                failures.push(format!(
                    "epoch {} sealed {:?} with {} accepted bids",
                    epoch.epoch, epoch.reason, epoch.accepted
                ));
            }
        }
    });
    let mut provider_epochs = Vec::new();
    for provider in providers {
        match provider.join() {
            Ok(Ok(p)) => provider_epochs.push((p.epochs, p.aborted, p.rejoins)),
            Ok(Err(e)) => failures.push(format!("provider: {e}")),
            Err(_) => failures.push("provider thread panicked".to_string()),
        }
    }
    let cluster_report = run.map_err(|e| e.to_string())?;

    report.attempted = (total * w.n_users) as u64;
    let missing = total - sealed_at.len().min(total);
    report.failed = ((missing + bad_epochs) * w.n_users) as u64;
    for why in failures {
        report.fail(why);
    }
    if cluster_report.epochs.len() != total || cluster_report.reconnects != 0 {
        report.fail(format!(
            "coordinator reports {} epochs and {} reconnects, expected {total} and 0",
            cluster_report.epochs.len(),
            cluster_report.reconnects
        ));
    }
    if provider_epochs.iter().any(|p| *p != (total as u64, 0, 0)) {
        report.fail(format!("provider reports (epochs, ⊥, rejoins): {provider_epochs:?}"));
    }
    report.outcome_digest = digest.finalize().to_hex();

    // Timed epochs: everything after the warm-up. Epoch e starts when epoch
    // e−1's callback returns (epoch_period = 0), and all of its bids are
    // synthesised at that instant — so that instant is both the due time of
    // every bid and of the epoch's last bid.
    let warm = sizes.warmup_epochs;
    if sealed_at.len() == total && total > warm {
        let mut interval_ms: Vec<f64> =
            sealed_at.windows(2).skip(warm - 1).map(|p| ms(p[1] - p[0])).collect();
        let wall = (sealed_at[total - 1] - sealed_at[warm - 1]).as_secs_f64();
        report.note("bid_to_seal_samples", interval_ms.len() * w.n_users);
        report.note("close_to_seal_samples", interval_ms.len());
        if let (Some(p50), Some(p99)) =
            (windowed_quantile(&interval_ms, 0.5), windowed_quantile(&interval_ms, 0.99))
        {
            report.e2e("bid_to_seal_p50_ms", p50, "ms");
            report.e2e("bid_to_seal_p99_ms", p99, "ms");
            report.e2e("close_to_seal_p50_ms", p50, "ms");
        }
        // Cross-check against the program's own clock, which starts after bid
        // synthesis and stops before the callback: over the same epochs its
        // median can only be the shorter one.
        let mut own: Vec<f64> = program_latency_ms[warm..].to_vec();
        if let (Some(own_p50), Some(outside_p50)) = (median(&mut own), median(&mut interval_ms)) {
            report.layer("service.epoch_latency_p50_ms", own_p50, "ms");
            if own_p50 > outside_p50 * 1.05 + 0.05 {
                report.fail(format!(
                    "ClusterEpoch::latency p50 {own_p50:.3} ms exceeds the outside interval {outside_p50:.3} ms"
                ));
            }
        }
        if let Some(p95) = quantile(&mut interval_ms, 0.95) {
            report.layer("service.close_to_seal_p95_ms", p95, "ms");
        }
        if let Some(rate) = chunked_rate(sealed_at[warm - 1], &sealed_at[warm..], w.n_users) {
            report.e2e("sealed_bids_per_s", rate, "bids/s");
            report.layer("service.epochs_per_s", rate / w.n_users as f64, "1/s");
        }
        report.note("capacity_phase_s", format!("{wall:.3}"));
    }

    let vectors = (warm..(warm + keep_epochs).min(total))
        .map(|e| {
            let (e, seed) = (e as u64, epoch_seed(seed, e as u64));
            (e, seed, generate_epoch_bids(w.n_users, w.m, seed))
        })
        .collect();
    Ok(Some(ClusterEpochs { vectors, join }))
}
