//! Multiplexed multi-session batching: many concurrent auctions over one
//! shared transport.
//!
//! The paper runs one auction at a time; a production marketplace clears
//! **many** (one per resource pool, region, or time slot — the regime of
//! large-scale double-auction deployments like Gao et al.'s D2D trading).
//! Because every frame already carries its session tag, `m` providers can
//! run any number of concurrent sessions over the *same* mesh: each
//! provider thread drives one [`SessionEngine`] per session and routes
//! incoming frames by tag ([`drive_multi`]), and a straggler of one
//! session can never perturb another.
//!
//! [`run_batch`] is the entry point; [`BatchReport`] makes throughput
//! (sessions per second) a first-class measured quantity, reported by the
//! `batch_throughput` bench binary alongside the per-figure benches.
//!
//! [`run_batch_with`] adds two independent scaling knobs via
//! [`BatchConfig`]: **sharding** — sessions partitioned across `N`
//! independent meshes by a stable hash of the session tag, each shard
//! with its own `m` provider threads — and the **transport** each mesh is
//! built on: in-process channels or real loopback TCP sockets
//! ([`TransportKind`]). Outcomes are transport-independent by
//! construction.
//!
//! A batch of any size, one included, is exactly **one epoch of a
//! [`SessionPool`]**: bring the pool and its mesh up, clear the sessions,
//! shut down. `dauctioneer-market`'s long-lived daemon runs the same pool
//! through many epochs without respawning anything.
//!
//! ```
//! use std::sync::Arc;
//! use dauctioneer_core::{run_batch, BatchSession, DoubleAuctionProgram, FrameworkConfig, RunOptions};
//! use dauctioneer_types::{BidVector, Bw, Money, ProviderAsk, SessionId, UserBid};
//!
//! let cfg = FrameworkConfig::new(3, 1, 2, 1);
//! let bids = BidVector::builder(2, 1)
//!     .user_bid(0, UserBid::new(Money::from_f64(1.2), Bw::from_f64(0.5)))
//!     .user_bid(1, UserBid::new(Money::from_f64(0.9), Bw::from_f64(0.5)))
//!     .provider_ask(0, ProviderAsk::new(Money::from_f64(0.2), Bw::from_f64(2.0)))
//!     .build();
//! let sessions = (0..4)
//!     .map(|s| BatchSession::uniform(SessionId(s), bids.clone(), 3, 100 + s))
//!     .collect();
//! let report = run_batch(&cfg, Arc::new(DoubleAuctionProgram::new()), sessions, &RunOptions::default());
//! assert!(report.all_agreed());
//! assert!(report.sessions_per_sec() > 0.0);
//! ```
//!
//! [`SessionEngine`]: crate::engine::SessionEngine
//! [`drive_multi`]: crate::engine::drive_multi

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dauctioneer_net::{shard_for, FaultPlan, TrafficSnapshot};
use dauctioneer_types::{BidVector, Outcome, ProviderId, SessionId};

use crate::adversary::{Adversary, AdversaryKind};
use crate::allocator::AllocatorProgram;
use crate::config::FrameworkConfig;
use crate::engine::unanimous;
use crate::pool::SessionPool;
use crate::runtime::RunOptions;

/// Which message substrate a batch runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process crossbeam channels ([`ThreadedHub`] /
    /// [`ShardedHub`]): fastest, supports injected [`LatencyModel`]
    /// link latency.
    ///
    /// [`ThreadedHub`]: dauctioneer_net::ThreadedHub
    /// [`ShardedHub`]: dauctioneer_net::ShardedHub
    /// [`LatencyModel`]: dauctioneer_net::LatencyModel
    #[default]
    InProc,
    /// Real loopback TCP sockets ([`MuxMesh`]): every frame crosses the
    /// kernel network stack, deployment-shaped. All shards of the batch
    /// share **one** socket mesh (one connection per provider pair, one
    /// reactor thread), with the shard id folded into the wire tag — so
    /// `shards` adds worker parallelism without multiplying connections
    /// or I/O threads. Link latency is whatever the sockets really
    /// impose, so modelled latency must be
    /// [`LatencyModel::Zero`][dauctioneer_net::LatencyModel::Zero].
    ///
    /// [`MuxMesh`]: dauctioneer_net::MuxMesh
    Tcp,
}

impl TransportKind {
    /// The one spelling of the transport: the `--transport` flag word and
    /// the label every table and JSON row prints.
    pub const fn name(self) -> &'static str {
        match self {
            TransportKind::InProc => "inproc",
            TransportKind::Tcp => "tcp",
        }
    }
}

/// How [`run_batch_with`] maps a batch onto transports and threads, and
/// which faults it injects while doing so.
///
/// The default — one shard, in-process channels, no faults — is exactly
/// the PR-1 single-hub behaviour of [`run_batch`].
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Number of independent provider meshes; sessions are partitioned
    /// across them by a stable hash of the session tag
    /// ([`shard_for`]). Values are clamped to at least 1. Each shard runs
    /// its own `m` provider threads, so on a multi-core host shards give
    /// the batch real CPU parallelism beyond one thread per provider.
    pub shards: usize,
    /// The message substrate each shard's mesh is built on.
    pub transport: TransportKind,
    /// Seeded link-fault injection applied to every endpoint
    /// ([`ChaosTransport`](dauctioneer_net::ChaosTransport), salted per
    /// shard). `None` (and the benign plan) is an exact pass-through.
    pub chaos: Option<FaultPlan>,
    /// Providers running an adversarial strategy instead of the honest
    /// protocol (everyone unlisted is honest).
    pub adversaries: Vec<Adversary>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            shards: 1,
            transport: TransportKind::InProc,
            chaos: None,
            adversaries: Vec::new(),
        }
    }
}

impl BatchConfig {
    /// In-process channels with `shards` independent meshes.
    pub fn sharded(shards: usize) -> BatchConfig {
        BatchConfig { shards, ..BatchConfig::default() }
    }

    /// Loopback TCP with `shards` independent socket meshes.
    pub fn tcp(shards: usize) -> BatchConfig {
        BatchConfig { shards, transport: TransportKind::Tcp, ..BatchConfig::default() }
    }

    /// Inject the given link-fault plan into every mesh of the batch.
    pub fn with_chaos(mut self, plan: FaultPlan) -> BatchConfig {
        self.chaos = Some(plan);
        self
    }

    /// Run `provider` under `kind` instead of the honest protocol.
    pub fn with_adversary(mut self, provider: ProviderId, kind: AdversaryKind) -> BatchConfig {
        self.adversaries.push(Adversary::new(provider, kind));
        self
    }
}

/// One auction session of a batch.
#[derive(Debug, Clone)]
pub struct BatchSession {
    /// The session tag carried by every one of this session's frames.
    /// Must be unique within the batch.
    pub session: SessionId,
    /// `collected[j]` is the bid vector provider `j` gathered for this
    /// session (they may differ; bid agreement resolves that).
    pub collected: Vec<BidVector>,
    /// Base seed for this session's per-provider local randomness
    /// (provider `j` uses `seed + j + 1`, as everywhere else).
    pub seed: u64,
}

impl BatchSession {
    /// A session in which every one of the `m` providers collected the
    /// same bid vector — the common case for workload-driven batches.
    pub fn uniform(session: SessionId, bids: BidVector, m: usize, seed: u64) -> BatchSession {
        BatchSession { session, collected: vec![bids; m], seed }
    }
}

/// Outcome of one session of a batch.
#[derive(Debug, Clone)]
pub struct BatchSessionReport {
    /// The session tag.
    pub session: SessionId,
    /// Outcome at each provider, by provider index.
    pub outcomes: Vec<Outcome>,
}

impl BatchSessionReport {
    /// The session's unanimous outcome per Definition 1.
    pub fn unanimous(&self) -> Outcome {
        unanimous(self.outcomes.iter().map(Some))
    }
}

/// What a batch run produced.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-session reports, in input order.
    pub sessions: Vec<BatchSessionReport>,
    /// Wall-clock duration from batch start to the last provider thread
    /// finishing every session.
    pub elapsed: Duration,
    /// Traffic counters aggregated over the whole batch.
    pub traffic: TrafficSnapshot,
}

impl BatchReport {
    /// Completed sessions per wall-clock second — the batch throughput.
    pub fn sessions_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.sessions.len() as f64 / self.elapsed.as_secs_f64()
    }

    /// `true` when every session reached a unanimous non-⊥ outcome.
    pub fn all_agreed(&self) -> bool {
        !self.sessions.is_empty() && self.sessions.iter().all(|s| !s.unanimous().is_abort())
    }
}

/// Run `sessions.len()` concurrent auction sessions over one shared
/// in-process mesh of `cfg.m` providers (the default [`BatchConfig`]:
/// one shard, [`TransportKind::InProc`]).
///
/// Each provider thread multiplexes all sessions over its single
/// endpoint; distinct session tags keep them isolated. The deadline in
/// `options` bounds the *whole batch*: sessions undecided when it passes
/// output ⊥ at the affected providers.
///
/// # Panics
///
/// Panics if a session's `collected` length is not `cfg.m`, two sessions
/// share a tag, or — for a non-empty batch — the configuration is invalid.
pub fn run_batch<P: AllocatorProgram + 'static>(
    cfg: &FrameworkConfig,
    program: Arc<P>,
    sessions: Vec<BatchSession>,
    options: &RunOptions,
) -> BatchReport {
    run_batch_with(cfg, program, sessions, options, &BatchConfig::default())
}

/// [`run_batch`] with explicit control over sharding and transport.
///
/// Sessions are partitioned across `batch.shards` independent meshes by a
/// stable hash of their tag; each shard runs its own `m` provider
/// threads, all shards concurrently. The outcome of every session is
/// independent of the [`BatchConfig`] — the protocol cannot observe which
/// substrate carried its frames — only wall-clock throughput changes.
///
/// # Panics
///
/// Panics under the same conditions as [`run_batch`], and wherever
/// [`SessionPool::start`] fails or panics: notably if `batch.transport`
/// is [`TransportKind::Tcp`] while `options.latency` is a non-zero model
/// (real sockets impose their own latency; the two cannot compose).
pub fn run_batch_with<P: AllocatorProgram + 'static>(
    cfg: &FrameworkConfig,
    program: Arc<P>,
    sessions: Vec<BatchSession>,
    options: &RunOptions,
    batch: &BatchConfig,
) -> BatchReport {
    let mut tags = HashSet::new();
    for spec in &sessions {
        assert_eq!(spec.collected.len(), cfg.m, "one collected vector per provider per session");
        assert!(tags.insert(spec.session), "duplicate session tag {} in batch", spec.session);
    }
    let shards = batch.shards.max(1);
    let n_sessions = sessions.len();
    let session_ids: Vec<SessionId> = sessions.iter().map(|s| s.session).collect();

    // Partition sessions onto shards by tag hash, remembering where each
    // one came from so the report keeps input order.
    let mut shard_specs: Vec<Vec<BatchSession>> = (0..shards).map(|_| Vec::new()).collect();
    let mut shard_slots: Vec<Vec<usize>> = (0..shards).map(|_| Vec::new()).collect();
    for (idx, spec) in sessions.into_iter().enumerate() {
        let s = shard_for(spec.session, shards);
        shard_specs[s].push(spec);
        shard_slots[s].push(idx);
    }
    // Compact away empty shards: meshes and worker threads are built only
    // for shards that drew sessions (a socket mesh lane and m workers are
    // far too expensive to bring up for a shard that clears nothing).
    shard_slots.retain(|slots| !slots.is_empty());
    shard_specs.retain(|specs| !specs.is_empty());

    let start = Instant::now();
    // `shard_columns[s][j]` = provider j's outcomes for occupied shard
    // s's sessions, in that shard's session order.
    let (shard_columns, traffic) = if shard_specs.is_empty() {
        (Vec::new(), TrafficSnapshot::default())
    } else {
        let occupied = BatchConfig { shards: shard_specs.len(), ..batch.clone() };
        let pool =
            SessionPool::start(cfg, &program, &occupied, options.latency, options.seed, None)
                .unwrap_or_else(|err| panic!("batch mesh bring-up failed: {err}"));
        let metrics = pool.traffic_metrics();
        let columns = pool.run_epoch(shard_specs, options.deadline);
        pool.shutdown();
        let mut traffic = TrafficSnapshot::default();
        for m in &metrics {
            traffic.merge(&m.snapshot());
        }
        (columns, traffic)
    };
    let elapsed = start.elapsed();

    // Reassemble per-session reports in input order.
    let mut outcomes: Vec<Vec<Outcome>> = vec![vec![Outcome::Abort; cfg.m]; n_sessions];
    for (columns, slots) in shard_columns.iter().zip(&shard_slots) {
        for (j, column) in columns.iter().enumerate() {
            for (pos, &slot) in slots.iter().enumerate() {
                outcomes[slot][j] = column[pos].clone();
            }
        }
    }
    let sessions = session_ids
        .into_iter()
        .zip(outcomes)
        .map(|(session, outcomes)| BatchSessionReport { session, outcomes })
        .collect();
    BatchReport { sessions, elapsed, traffic }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::DoubleAuctionProgram;
    use crate::runtime::run_session;
    use dauctioneer_types::{Bw, Money, ProviderAsk, UserBid};

    fn bids(valuation: f64) -> BidVector {
        BidVector::builder(2, 1)
            .user_bid(0, UserBid::new(Money::from_f64(valuation), Bw::from_f64(0.5)))
            .user_bid(1, UserBid::new(Money::from_f64(0.9), Bw::from_f64(0.5)))
            .provider_ask(0, ProviderAsk::new(Money::from_f64(0.2), Bw::from_f64(2.0)))
            .build()
    }

    #[test]
    fn batch_of_eight_sessions_all_agree_over_one_hub() {
        let cfg = FrameworkConfig::new(3, 1, 2, 1);
        let sessions: Vec<BatchSession> = (0..8)
            .map(|s| {
                BatchSession::uniform(SessionId(s), bids(1.0 + 0.05 * s as f64), 3, 1_000 + s * 17)
            })
            .collect();
        let report = run_batch(
            &cfg,
            Arc::new(DoubleAuctionProgram::new()),
            sessions,
            &RunOptions::default(),
        );
        assert_eq!(report.sessions.len(), 8);
        assert!(report.all_agreed(), "every session must clear");
        assert!(report.sessions_per_sec() > 0.0);
        assert!(report.traffic.total_messages() > 0);
        for s in &report.sessions {
            assert_eq!(s.outcomes.len(), 3);
        }
    }

    #[test]
    fn batched_sessions_match_isolated_runs() {
        // Multiplexing must not change any session's outcome: each
        // session's unanimous pair equals the same session run alone.
        let cfg = FrameworkConfig::new(3, 1, 2, 1);
        let sessions: Vec<BatchSession> = (0..4)
            .map(|s| BatchSession::uniform(SessionId(s), bids(1.0 + 0.1 * s as f64), 3, 50 + s))
            .collect();
        let batch = run_batch(
            &cfg,
            Arc::new(DoubleAuctionProgram::new()),
            sessions.clone(),
            &RunOptions::default(),
        );
        for (s, spec) in sessions.into_iter().enumerate() {
            let alone = run_session(
                &cfg.clone().with_session(spec.session),
                Arc::new(DoubleAuctionProgram::new()),
                spec.collected,
                &RunOptions { seed: spec.seed, ..RunOptions::default() },
            );
            assert_eq!(
                batch.sessions[s].unanimous(),
                alone.unanimous(),
                "session {s} diverged under multiplexing"
            );
        }
    }

    #[test]
    fn sharded_batch_matches_single_hub_outcomes() {
        let cfg = FrameworkConfig::new(3, 1, 2, 1);
        let sessions: Vec<BatchSession> = (0..8)
            .map(|s| BatchSession::uniform(SessionId(s), bids(1.0 + 0.05 * s as f64), 3, 70 + s))
            .collect();
        let single = run_batch(
            &cfg,
            Arc::new(DoubleAuctionProgram::new()),
            sessions.clone(),
            &RunOptions::default(),
        );
        let sharded = run_batch_with(
            &cfg,
            Arc::new(DoubleAuctionProgram::new()),
            sessions,
            &RunOptions::default(),
            &BatchConfig::sharded(4),
        );
        assert!(sharded.all_agreed());
        for (a, b) in single.sessions.iter().zip(&sharded.sessions) {
            assert_eq!(a.session, b.session, "input order preserved");
            assert_eq!(a.unanimous(), b.unanimous(), "sharding changed an outcome");
        }
    }

    #[test]
    fn tcp_batch_clears_over_real_sockets() {
        let cfg = FrameworkConfig::new(3, 1, 2, 1);
        let sessions: Vec<BatchSession> = (0..4)
            .map(|s| BatchSession::uniform(SessionId(s), bids(1.0 + 0.1 * s as f64), 3, 90 + s))
            .collect();
        let inproc = run_batch(
            &cfg,
            Arc::new(DoubleAuctionProgram::new()),
            sessions.clone(),
            &RunOptions::default(),
        );
        let tcp = run_batch_with(
            &cfg,
            Arc::new(DoubleAuctionProgram::new()),
            sessions,
            &RunOptions::default(),
            &BatchConfig::tcp(2),
        );
        assert!(tcp.all_agreed(), "TCP batch must clear");
        assert!(tcp.traffic.total_messages() > 0);
        for (a, b) in inproc.sessions.iter().zip(&tcp.sessions) {
            assert_eq!(a.unanimous(), b.unanimous(), "transport changed an outcome");
        }
    }

    #[test]
    #[should_panic(expected = "modelled link latency cannot be injected")]
    fn tcp_rejects_modelled_latency() {
        let cfg = FrameworkConfig::new(3, 1, 2, 1);
        let sessions = vec![BatchSession::uniform(SessionId(0), bids(1.0), 3, 1)];
        let options = RunOptions {
            latency: dauctioneer_net::LatencyModel::ConstantMicros(100),
            ..RunOptions::default()
        };
        run_batch_with(
            &cfg,
            Arc::new(DoubleAuctionProgram::new()),
            sessions,
            &options,
            &BatchConfig::tcp(1),
        );
    }

    #[test]
    fn more_shards_than_sessions_leaves_empty_shards_harmless() {
        // 2 sessions over 8 requested shards: at least 6 shards are
        // empty and must cost nothing (no meshes, no threads) while the
        // occupied ones still clear and keep input order.
        let cfg = FrameworkConfig::new(3, 1, 2, 1);
        let sessions: Vec<BatchSession> = (0..2)
            .map(|s| BatchSession::uniform(SessionId(s), bids(1.0 + 0.1 * s as f64), 3, 40 + s))
            .collect();
        for config in [BatchConfig::sharded(8), BatchConfig::tcp(8)] {
            let report = run_batch_with(
                &cfg,
                Arc::new(DoubleAuctionProgram::new()),
                sessions.clone(),
                &RunOptions::default(),
                &config,
            );
            assert!(report.all_agreed(), "{config:?}");
            assert_eq!(report.sessions[0].session, SessionId(0));
            assert_eq!(report.sessions[1].session, SessionId(1));
        }
    }

    #[test]
    fn zero_shards_is_clamped_to_one() {
        let cfg = FrameworkConfig::new(3, 1, 2, 1);
        let sessions = vec![BatchSession::uniform(SessionId(0), bids(1.0), 3, 1)];
        let report = run_batch_with(
            &cfg,
            Arc::new(DoubleAuctionProgram::new()),
            sessions,
            &RunOptions::default(),
            &BatchConfig::sharded(0),
        );
        assert!(report.all_agreed());
    }

    #[test]
    #[should_panic(expected = "duplicate session tag")]
    fn duplicate_tags_are_rejected() {
        let cfg = FrameworkConfig::new(3, 1, 2, 1);
        let sessions = vec![
            BatchSession::uniform(SessionId(1), bids(1.0), 3, 1),
            BatchSession::uniform(SessionId(1), bids(1.1), 3, 2),
        ];
        run_batch(&cfg, Arc::new(DoubleAuctionProgram::new()), sessions, &RunOptions::default());
    }

    #[test]
    fn empty_batch_reports_nothing() {
        let cfg = FrameworkConfig::new(3, 1, 2, 1);
        let report =
            run_batch(&cfg, Arc::new(DoubleAuctionProgram::new()), vec![], &RunOptions::default());
        assert!(report.sessions.is_empty());
        assert!(!report.all_agreed());
        assert_eq!(report.sessions_per_sec(), 0.0);
    }
}
