//! Running auctions on threads: one session, or many concurrent sessions
//! multiplexed over one shared transport.
//!
//! This is the workspace's stand-in for the paper's deployment on Guifi
//! nodes (`docs/ARCHITECTURE.md`, "One engine, one threaded driver, one
//! simulator"): provider threads give real CPU parallelism for the
//! computation-bound standard auction, and injected link latency
//! reproduces the communication-bound regime of the double auction. Every
//! provider's [`SessionEngine`] runs to completion, or to a deadline,
//! which yields ⊥ (the paper's external abort mechanism).
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
//! [`run_session`] is a batch of one, reported as a [`SessionReport`].
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
//! A run that cannot start is a [`RunError`], never a panic:
//! [`BatchConfig::validate`] is the one check of a run's configuration,
//! shared by [`SessionPool::start`] and the market's own validation, and
//! [`run_batch_with`] adds the checks on the session list.
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
//! let program = Arc::new(DoubleAuctionProgram::new());
//! let report = run_batch(&cfg, program, sessions, &RunOptions::default())?;
//! assert!(report.all_agreed());
//! assert!(report.sessions_per_sec() > 0.0);
//! # Ok::<(), dauctioneer_core::RunError>(())
//! ```
//!
//! [`SessionEngine`]: crate::engine::SessionEngine
//! [`drive_multi`]: crate::engine::drive_multi

use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dauctioneer_net::{shard_for, FaultPlan, FaultPlanError, LatencyModel, TrafficSnapshot};
use dauctioneer_types::{BidVector, Outcome, ProviderId, SessionId};

use crate::adversary::{Adversary, AdversaryKind};
use crate::allocator::AllocatorProgram;
use crate::config::{ConfigError, FrameworkConfig};
use crate::engine::unanimous;
use crate::pool::SessionPool;

/// Why a run could not start.
#[derive(Debug)]
pub enum RunError {
    /// The framework configuration is invalid (`m > 2k`, `m ≥ 1`).
    Framework(ConfigError),
    /// Real TCP sockets impose their own latency; a non-zero
    /// [`LatencyModel`] cannot be injected into them.
    TcpWithModelledLatency,
    /// The fault plan is impossible (probability outside `[0, 1]`,
    /// inverted delay range).
    Chaos(FaultPlanError),
    /// An adversary names a provider index outside the mesh.
    AdversaryOutOfRange {
        /// The named provider index.
        provider: usize,
        /// Providers in the mesh.
        m: usize,
    },
    /// A session's `collected` does not hold one vector per provider.
    CollectedLength(SessionId),
    /// Two sessions of one batch share a tag.
    DuplicateSession(SessionId),
    /// The transport failed to come up (TCP listener or dial errors, or
    /// a worker thread that could not be spawned).
    Transport(io::Error),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Framework(e) => write!(f, "framework configuration: {e}"),
            RunError::TcpWithModelledLatency => f.write_str("TCP cannot take modelled latency"),
            RunError::Chaos(e) => write!(f, "chaos plan: {e}"),
            RunError::AdversaryOutOfRange { provider, m } => {
                write!(f, "adversary names provider {provider} but the mesh has {m} providers")
            }
            RunError::CollectedLength(s) => write!(f, "{s}: one collected vector per provider"),
            RunError::DuplicateSession(s) => write!(f, "duplicate session tag {s} in batch"),
            RunError::Transport(e) => write!(f, "transport bring-up failed: {e}"),
        }
    }
}

/// The message already names the cause, so no `source` repeats it.
impl Error for RunError {}

/// Options for a threaded run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Wall-clock budget; providers that haven't decided by then output ⊥.
    pub deadline: Duration,
    /// Link latency injected between providers.
    pub latency: LatencyModel,
    /// Seed for latency jitter and each provider's local randomness
    /// (provider `j` uses `seed + j + 1`).
    pub seed: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions { deadline: Duration::from_secs(60), latency: LatencyModel::Zero, seed: 0 }
    }
}

/// Which message substrate a batch runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process crossbeam channels ([`ThreadedHub`] /
    /// [`ShardedHub`]): fastest, supports injected [`LatencyModel`]
    /// link latency.
    ///
    /// [`ThreadedHub`]: dauctioneer_net::ThreadedHub
    /// [`ShardedHub`]: dauctioneer_net::ShardedHub
    #[default]
    InProc,
    /// Real loopback TCP sockets ([`MuxMesh`]): every frame crosses the
    /// kernel network stack, deployment-shaped. All shards of the batch
    /// share **one** socket mesh (one connection per provider pair, one
    /// reactor thread), with the shard id folded into the wire tag — so
    /// `shards` adds worker parallelism without multiplying connections
    /// or I/O threads. Link latency is whatever the sockets really
    /// impose, so modelled latency must be [`LatencyModel::Zero`].
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

    /// The one check of a run's configuration, made before any thread or
    /// socket exists: `cfg` itself, TCP without modelled `latency`, the
    /// chaos plan, and every adversary inside the mesh.
    ///
    /// # Errors
    ///
    /// The [`RunError`] naming the first violated constraint.
    pub fn validate(&self, cfg: &FrameworkConfig, latency: LatencyModel) -> Result<(), RunError> {
        cfg.validate().map_err(RunError::Framework)?;
        if self.transport == TransportKind::Tcp && !latency.is_zero() {
            return Err(RunError::TcpWithModelledLatency);
        }
        if let Some(plan) = &self.chaos {
            plan.validate().map_err(RunError::Chaos)?;
        }
        if let Some(a) = self.adversaries.iter().find(|a| a.provider.index() >= cfg.m) {
            return Err(RunError::AdversaryOutOfRange { provider: a.provider.index(), m: cfg.m });
        }
        Ok(())
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

/// What a single threaded session ([`run_session`]) produced.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Outcome at each provider, by provider index. A correct simulation
    /// yields the same agreed pair everywhere (or ⊥ everywhere).
    pub outcomes: Vec<Outcome>,
    /// Wall-clock duration from session start to the last provider's
    /// decision.
    pub elapsed: Duration,
    /// Traffic counters for the whole session.
    pub traffic: TrafficSnapshot,
}

impl SessionReport {
    /// The unanimous outcome of the session per Definition 1: the agreed
    /// pair if *all* providers output it, else ⊥.
    pub fn unanimous(&self) -> Outcome {
        unanimous(self.outcomes.iter().map(Some))
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
/// # Errors
///
/// [`RunError::CollectedLength`] if a session's `collected` length is not
/// `cfg.m`, [`RunError::DuplicateSession`] if two sessions share a tag,
/// and — for a non-empty batch — whatever [`SessionPool::start`] returns.
pub fn run_batch<P: AllocatorProgram + 'static>(
    cfg: &FrameworkConfig,
    program: Arc<P>,
    sessions: Vec<BatchSession>,
    options: &RunOptions,
) -> Result<BatchReport, RunError> {
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
/// # Errors
///
/// The same as [`run_batch`]; among them [`BatchConfig::validate`]'s,
/// such as [`RunError::TcpWithModelledLatency`] when `batch.transport` is
/// [`TransportKind::Tcp`] while `options.latency` is a non-zero model
/// (real sockets impose their own latency; the two cannot compose).
pub fn run_batch_with<P: AllocatorProgram + 'static>(
    cfg: &FrameworkConfig,
    program: Arc<P>,
    sessions: Vec<BatchSession>,
    options: &RunOptions,
    batch: &BatchConfig,
) -> Result<BatchReport, RunError> {
    let mut tags = HashSet::new();
    for spec in &sessions {
        if spec.collected.len() != cfg.m {
            return Err(RunError::CollectedLength(spec.session));
        }
        if !tags.insert(spec.session) {
            return Err(RunError::DuplicateSession(spec.session));
        }
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
            SessionPool::start(cfg, &program, &occupied, options.latency, options.seed, None)?;
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
    Ok(BatchReport { sessions, elapsed, traffic })
}

/// Run one full distributed-auction session on threads: a batch of one,
/// tagged `cfg.session`, with the same mesh, threads, seeding (provider
/// `j` draws from `options.seed + j + 1`) and ⊥ handling.
///
/// `collected[j]` is the bid vector provider `j` gathered from the bidders
/// (they may differ — that is exactly what bid agreement resolves).
///
/// # Errors
///
/// [`RunError::CollectedLength`] if `collected.len() != cfg.m`, and
/// whatever [`SessionPool::start`] returns.
pub fn run_session<P: AllocatorProgram + 'static>(
    cfg: &FrameworkConfig,
    program: Arc<P>,
    collected: Vec<BidVector>,
    options: &RunOptions,
) -> Result<SessionReport, RunError> {
    let spec = BatchSession { session: cfg.session, collected, seed: options.seed };
    let mut report = run_batch(cfg, program, vec![spec], options)?;
    Ok(SessionReport {
        outcomes: report.sessions.remove(0).outcomes,
        elapsed: report.elapsed,
        traffic: report.traffic,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::DoubleAuctionProgram;
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
        )
        .unwrap();
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
        )
        .unwrap();
        for (s, spec) in sessions.into_iter().enumerate() {
            let alone = run_session(
                &cfg.clone().with_session(spec.session),
                Arc::new(DoubleAuctionProgram::new()),
                spec.collected,
                &RunOptions { seed: spec.seed, ..RunOptions::default() },
            )
            .unwrap();
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
        )
        .unwrap();
        let sharded = run_batch_with(
            &cfg,
            Arc::new(DoubleAuctionProgram::new()),
            sessions,
            &RunOptions::default(),
            &BatchConfig::sharded(4),
        )
        .unwrap();
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
        )
        .unwrap();
        let tcp = run_batch_with(
            &cfg,
            Arc::new(DoubleAuctionProgram::new()),
            sessions,
            &RunOptions::default(),
            &BatchConfig::tcp(2),
        )
        .unwrap();
        assert!(tcp.all_agreed(), "TCP batch must clear");
        assert!(tcp.traffic.total_messages() > 0);
        for (a, b) in inproc.sessions.iter().zip(&tcp.sessions) {
            assert_eq!(a.unanimous(), b.unanimous(), "transport changed an outcome");
        }
    }

    #[test]
    fn tcp_rejects_modelled_latency() {
        let cfg = FrameworkConfig::new(3, 1, 2, 1);
        let sessions = vec![BatchSession::uniform(SessionId(0), bids(1.0), 3, 1)];
        let options = RunOptions {
            latency: dauctioneer_net::LatencyModel::ConstantMicros(100),
            ..RunOptions::default()
        };
        let program = Arc::new(DoubleAuctionProgram::new());
        let err = run_batch_with(&cfg, program, sessions, &options, &BatchConfig::tcp(1));
        assert!(matches!(err, Err(RunError::TcpWithModelledLatency)), "{err:?}");
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
            )
            .unwrap();
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
        )
        .unwrap();
        assert!(report.all_agreed());
    }

    #[test]
    fn duplicate_tags_are_rejected() {
        let cfg = FrameworkConfig::new(3, 1, 2, 1);
        let sessions = vec![
            BatchSession::uniform(SessionId(1), bids(1.0), 3, 1),
            BatchSession::uniform(SessionId(1), bids(1.1), 3, 2),
        ];
        let program = Arc::new(DoubleAuctionProgram::new());
        let err = run_batch(&cfg, program, sessions, &RunOptions::default());
        assert!(matches!(err, Err(RunError::DuplicateSession(SessionId(1)))), "{err:?}");
    }

    #[test]
    fn empty_batch_reports_nothing() {
        let cfg = FrameworkConfig::new(3, 1, 2, 1);
        let report =
            run_batch(&cfg, Arc::new(DoubleAuctionProgram::new()), vec![], &RunOptions::default())
                .unwrap();
        assert!(report.sessions.is_empty());
        assert!(!report.all_agreed());
        assert_eq!(report.sessions_per_sec(), 0.0);
    }

    fn spread_bids(n: usize, a: usize) -> BidVector {
        let mut b = BidVector::builder(n, a);
        for i in 0..n {
            b = b.user_bid(
                i,
                UserBid::new(Money::from_f64(1.0 + 0.01 * i as f64), Bw::from_f64(0.5)),
            );
        }
        for j in 0..a {
            b = b.provider_ask(
                j,
                ProviderAsk::new(Money::from_f64(0.1 + 0.1 * j as f64), Bw::from_f64(1.0)),
            );
        }
        b.build()
    }

    #[test]
    fn threaded_double_auction_session_agrees() {
        let cfg = FrameworkConfig::new(3, 1, 4, 2);
        let shared_bids = spread_bids(4, 2);
        let report = run_session(
            &cfg,
            Arc::new(DoubleAuctionProgram::new()),
            vec![shared_bids.clone(); 3],
            &RunOptions::default(),
        )
        .unwrap();
        let outcome = report.unanimous();
        let result = outcome.as_result().expect("honest run must agree");
        assert!(!result.allocation.is_empty());
        assert!(report.traffic.total_messages() > 0);
        // All three providers returned the identical pair.
        for o in &report.outcomes {
            assert_eq!(o, &outcome);
        }
    }

    #[test]
    fn divergent_collections_still_agree_on_something() {
        // Each provider saw a different bid from user 0 (an equivocating
        // bidder); the session must still converge to one outcome.
        let cfg = FrameworkConfig::new(3, 1, 2, 1);
        let collected: Vec<BidVector> = (0..3)
            .map(|j| {
                BidVector::builder(2, 1)
                    .user_bid(
                        0,
                        UserBid::new(Money::from_f64(1.0 + j as f64 * 0.1), Bw::from_f64(0.4)),
                    )
                    .user_bid(1, UserBid::new(Money::from_f64(0.9), Bw::from_f64(0.4)))
                    .provider_ask(0, ProviderAsk::new(Money::from_f64(0.2), Bw::from_f64(2.0)))
                    .build()
            })
            .collect();
        let report = run_session(
            &cfg,
            Arc::new(DoubleAuctionProgram::new()),
            collected,
            &RunOptions::default(),
        )
        .unwrap();
        assert!(!report.unanimous().is_abort());
        // Validity: the consistent bidder (user 1) was preserved — check
        // that each provider's outcome equals the unanimous one.
        let unanimous = report.unanimous();
        for o in &report.outcomes {
            assert_eq!(o, &unanimous);
        }
    }

    #[test]
    fn unanimous_of_empty_is_abort() {
        let report = SessionReport {
            outcomes: vec![],
            elapsed: Duration::ZERO,
            traffic: TrafficSnapshot::default(),
        };
        assert!(report.unanimous().is_abort());
    }
}
