//! The long-lived market daemon: streaming ingestion in, epoch outcomes
//! out, one persistent mesh underneath.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, ThreadId};
use std::time::{Duration, Instant};

use crossbeam_channel::{bounded, unbounded, Receiver, Sender};
use dauctioneer_core::{unanimous, AllocatorProgram, BatchSession, BidCollector, SessionPool};
use dauctioneer_net::{shard_for, ChaosMetrics, ChaosStats, TrafficMetrics, TrafficSnapshot};
use dauctioneer_telemetry::{
    AbortReason, EpochTrace, FlightLevel, FlightRecorder, Histogram, TraceRing,
};
use dauctioneer_types::{BidVector, Outcome, ProviderAsk, SealRecord, SessionId, UserBid, UserId};

use crate::config::{EpochPolicy, MarketConfig, MarketError, TelemetryConfig};
use crate::ingress::{IngressQueue, Pop, Submission, SubmitError};
use crate::journal::{Journal, JournalError};
use crate::stats::{MarketStats, StatsShared};

/// A cloneable submitter handle onto a running market.
///
/// `Ok(())` from the submit methods means *queued for the scheduler* —
/// the verdict of the §3.2 collection rules (accepted, duplicate,
/// invalid…) is applied asynchronously when the scheduler folds the
/// submission into the open epoch, and is visible in aggregate through
/// [`MarketService::stats`]. `Err` is the backpressure surface:
/// [`SubmitError::Overloaded`] under the shed policy,
/// [`SubmitError::Closed`] once the market is shutting down.
#[derive(Debug, Clone)]
pub struct MarketHandle {
    queue: Arc<IngressQueue>,
}

impl MarketHandle {
    /// Submit one user bid for the open (or next) epoch.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when the ingress queue is full under
    /// [`crate::Backpressure::Shed`]; [`SubmitError::Closed`] after
    /// shutdown began. Under [`crate::Backpressure::Block`] this call
    /// blocks instead of returning `Overloaded`.
    pub fn submit_bid(&self, user: UserId, bid: UserBid) -> Result<(), SubmitError> {
        self.queue.push(Submission::Bid { user, bid })
    }

    /// Submit a provider ask for the open (or next) epoch, overwriting
    /// the configured default for that slot.
    ///
    /// # Errors
    ///
    /// Same backpressure surface as [`MarketHandle::submit_bid`].
    pub fn submit_ask(&self, slot: usize, ask: ProviderAsk) -> Result<(), SubmitError> {
        self.queue.push(Submission::Ask { slot, ask })
    }
}

/// One closed epoch's result, delivered on the subscription channel.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    /// Zero-based epoch counter.
    pub epoch: u64,
    /// The session id the epoch cleared under
    /// (`first_session + epoch`).
    pub session: SessionId,
    /// The session seed used (before the per-provider fan-out), so an
    /// epoch can be replayed offline as a one-shot session.
    pub seed: u64,
    /// Bids accepted into this epoch.
    pub accepted_bids: usize,
    /// The closed bid vector every provider input to bid agreement
    /// (identical across providers: one collector folds the single
    /// submission stream and every provider receives a copy).
    pub bids: BidVector,
    /// Outcome at each provider, by provider index.
    pub outcomes: Vec<Outcome>,
    /// Definition 1 over `outcomes`: the agreed pair iff every provider
    /// decided it.
    pub outcome: Outcome,
    /// Why the epoch aborted (`None` when it cleared): the reason counted
    /// in [`MarketStats::epochs_aborted_by_reason`].
    pub reason: Option<AbortReason>,
    /// Epoch close → unanimous outcome latency.
    pub latency: Duration,
    /// The mechanism the epoch cleared under (the program's
    /// `AllocatorProgram::name`) — the same provenance string sealed
    /// into the journal's settlement chain.
    pub mechanism: &'static str,
}

/// What [`MarketService::start`] reconstructed from a recovered journal
/// before accepting any new submission.
///
/// Sealed epochs are restored as written; unsealed (in-flight) epochs
/// are **re-cleared** on the fresh pool with their original session ids
/// and seeds (`first_session + e`, `seed + (e+1)·7919`), so every
/// replayed [`EpochOutcome`] is byte-identical to what the crashed
/// process would have produced. Replayed outcomes are reported here
/// rather than on the subscription channel, which does not exist yet at
/// recovery time.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Epochs already sealed on the settlement chain, in chain order.
    pub sealed: Vec<SealRecord>,
    /// In-flight epochs re-cleared during recovery, in epoch order
    /// (their new seals follow the recovered chain tip).
    pub replayed: Vec<EpochOutcome>,
    /// The epoch index the resumed scheduler continues from.
    pub next_epoch: u64,
    /// Torn-tail bytes truncated from the journal file.
    pub dropped_bytes: u64,
}

/// The telemetry plumbing one market shares across its scheduler,
/// clearers, and watchers: the crash flight recorder, the epoch trace
/// ring, the chaos fault counters, and the fail-stop dump path.
#[derive(Debug, Clone)]
pub(crate) struct Telemetry {
    pub(crate) flight: Arc<FlightRecorder>,
    pub(crate) traces: Arc<TraceRing>,
    pub(crate) chaos: ChaosMetrics,
    dump_path: Option<PathBuf>,
}

impl Telemetry {
    pub(crate) fn new(config: &TelemetryConfig) -> Telemetry {
        Telemetry {
            flight: Arc::new(FlightRecorder::new(config.flight_capacity)),
            traces: Arc::new(TraceRing::new(config.trace_capacity)),
            chaos: ChaosMetrics::new(),
            dump_path: config.flight_dump_path.clone(),
        }
    }
}

/// Attribute an aborted epoch.
///
/// The classification is a structural argument, not guesswork: if every
/// provider decided a real outcome yet unanimity still failed, the abort
/// is ⊥-divergence by Definition 1. Otherwise at least one provider
/// pinned ⊥, and the backend's [`ClearBackend::blame`] names what forced
/// it; a ⊥ nothing is blamed for is a plain deadline miss.
fn classify_abort(
    outcomes: &[Outcome],
    agreed: &Outcome,
    blame: Option<AbortReason>,
) -> Option<AbortReason> {
    if !agreed.is_abort() {
        return None;
    }
    if !outcomes.is_empty() && outcomes.iter().all(|o| !o.is_abort()) {
        return Some(AbortReason::Divergence);
    }
    Some(blame.unwrap_or(AbortReason::Deadline))
}

/// The journal fail-stop path with a black box: record the error as a
/// flight event, count the abort under its own reason, write the flight
/// dump where the config asked for it, and only then die. The dump is
/// best-effort — a failing disk must not mask the original panic.
fn journal_fail_stop(
    telemetry: &Telemetry,
    stats: &StatsShared,
    what: &str,
    err: &JournalError,
) -> ! {
    stats.record_abort_reason(AbortReason::JournalFailStop);
    telemetry.flight.record(
        FlightLevel::Error,
        "journal_fail_stop",
        &[("what", what.to_string()), ("error", err.to_string())],
    );
    if let Some(path) = &telemetry.dump_path {
        let _ = std::fs::write(path, telemetry.flight.dump_json());
    }
    panic!("journal {what}: {err}");
}

/// A cloneable, read-only observation handle onto a running market: the
/// bridge between the service and a metrics registry, scrape endpoint,
/// heartbeat printer, or signal-triggered flight dump. Everything here
/// reads shared state the market updates anyway — holding a watch costs
/// the hot path nothing.
#[derive(Debug, Clone)]
pub struct MarketWatch {
    queue: Arc<IngressQueue>,
    stats: Arc<StatsShared>,
    journal: Option<Arc<Journal>>,
    metrics: Vec<TrafficMetrics>,
    telemetry: Telemetry,
}

impl MarketWatch {
    /// Live counters and latency percentiles (same as
    /// [`MarketService::stats`]).
    pub fn stats(&self) -> MarketStats {
        self.stats.snapshot(
            self.queue.shed_bids_count(),
            self.queue.shed_asks_count(),
            self.queue.enqueued_count(),
            self.queue.depth(),
            self.journal.as_deref(),
            self.telemetry.chaos.snapshot(),
        )
    }

    /// Traffic counters of the persistent mesh, merged across shards.
    pub fn traffic(&self) -> TrafficSnapshot {
        let mut total = TrafficSnapshot::default();
        for m in &self.metrics {
            total.merge(&m.snapshot());
        }
        total
    }

    /// Chaos fault-injection counters, cumulative since startup.
    pub fn chaos(&self) -> ChaosStats {
        self.telemetry.chaos.snapshot()
    }

    /// The live epoch close-latency histogram (log2 buckets, in µs).
    /// The clone shares the underlying cells — it keeps counting.
    pub fn close_latency_histogram(&self) -> Histogram {
        self.stats.close_latency_us.clone()
    }

    /// Records covered per journal fsync — the group-commit batch size —
    /// as a live histogram (empty for a market without a journal).
    pub fn journal_commit_histogram(&self) -> Histogram {
        self.journal.as_ref().map_or_else(Histogram::new, |j| j.commit_records_histogram())
    }

    /// Dump the crash flight recorder as JSON (the `dauction
    /// flight-dump` input format).
    pub fn flight_dump_json(&self) -> String {
        self.telemetry.flight.dump_json()
    }

    /// Events recorded by the flight recorder so far.
    pub fn flight_recorded(&self) -> u64 {
        self.telemetry.flight.recorded()
    }

    /// Snapshot the retained per-epoch traces, oldest first.
    pub fn recent_traces(&self) -> Vec<EpochTrace> {
        self.telemetry.traces.recent()
    }
}

/// A long-lived auction daemon: accepts streaming bid/ask submissions,
/// closes epochs under an [`EpochPolicy`], and clears each epoch as one
/// paper session over a **persistent** [`SessionPool`] — no thread or
/// transport is ever created per epoch.
///
/// ```
/// use dauctioneer_core::DoubleAuctionProgram;
/// use dauctioneer_market::{EpochPolicy, MarketConfig, MarketService};
/// use dauctioneer_types::{Bw, Money, ProviderAsk, UserBid, UserId};
/// use std::sync::Arc;
///
/// let config = MarketConfig::new(3, 1, 4, 1)
///     .with_epoch(EpochPolicy::ByCount(2))
///     .with_asks(vec![ProviderAsk::new(Money::from_f64(0.2), Bw::from_f64(2.0))]);
/// let mut market =
///     MarketService::start(config, Arc::new(DoubleAuctionProgram::new())).unwrap();
/// let outcomes = market.take_outcomes().unwrap();
/// let handle = market.handle();
/// handle.submit_bid(UserId(0), UserBid::new(Money::from_f64(1.2), Bw::from_f64(0.5))).unwrap();
/// handle.submit_bid(UserId(1), UserBid::new(Money::from_f64(0.9), Bw::from_f64(0.4))).unwrap();
/// let epoch = outcomes.recv().unwrap(); // second accepted bid closed the epoch
/// assert!(!epoch.outcome.is_abort());
/// let stats = market.shutdown();
/// assert_eq!(stats.epochs_closed, 1);
/// ```
pub struct MarketService {
    /// The shared state the scheduler and clearers update: ingress queue,
    /// stats, journal, traffic counters and telemetry.
    watch: MarketWatch,
    outcomes: Option<Receiver<EpochOutcome>>,
    subscribed: Arc<AtomicBool>,
    scheduler: Option<JoinHandle<()>>,
    worker_ids: Vec<Vec<ThreadId>>,
    recovery: Option<RecoveryReport>,
}

impl std::fmt::Debug for MarketService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MarketService")
            .field("worker_threads", &self.worker_ids.iter().map(Vec::len).sum::<usize>())
            .field("queue_depth", &self.watch.queue.depth())
            .finish()
    }
}

impl MarketService {
    /// Validate the configuration, bring up the persistent mesh and
    /// worker pool, and start the epoch scheduler.
    ///
    /// # Errors
    ///
    /// [`MarketError`] for invalid knob combinations (checked before any
    /// thread or socket exists) or transport bring-up failure.
    pub fn start<P: AllocatorProgram + 'static>(
        config: MarketConfig,
        program: Arc<P>,
    ) -> Result<MarketService, MarketError> {
        config.validate()?;
        let framework = config.framework();
        let telemetry = Telemetry::new(&config.telemetry);
        // Provenance: stamped on every outcome and sealed into the
        // journal's settlement chain.
        let mechanism = program.name();

        // Durability comes up before the mesh: a market that cannot
        // journal must not open for business at all. Recovery reads the
        // journal's longest valid prefix, truncates the torn tail, and
        // classifies every unsealed epoch — the re-clearing itself waits
        // until the pool exists.
        let (journal, recovered) = match &config.journal {
            None => (None, None),
            Some(jc) if jc.recover => {
                let (journal, log) =
                    Journal::recover(&jc.path, jc.fsync).map_err(MarketError::Journal)?;
                // A journal sealed under a different mechanism must not
                // be extended: re-clearing its in-flight epochs would
                // produce outcomes the crashed process could never have
                // sealed, forking the settlement history.
                if let Some(journaled) = &log.mechanism {
                    if journaled != mechanism {
                        return Err(MarketError::MechanismMismatch {
                            journaled: journaled.clone(),
                            configured: mechanism.to_string(),
                        });
                    }
                }
                (Some(Arc::new(journal)), Some(log))
            }
            Some(jc) => {
                let journal = Journal::create(&jc.path, jc.fsync).map_err(MarketError::Journal)?;
                (Some(Arc::new(journal)), None)
            }
        };

        // The one and only transport/thread bring-up of the service's
        // life: every epoch reuses this mesh and these workers. Over TCP
        // it is one multiplexed mesh with a lane per shard.
        let (mesh, chaos) = (config.batch(), Some(telemetry.chaos.clone()));
        let pool =
            SessionPool::start(&framework, &program, &mesh, config.latency, config.seed, chaos)
                .map_err(MarketError::Run)?;
        let metrics = pool.traffic_metrics();

        let queue = Arc::new(IngressQueue::new(config.ingress_capacity, config.backpressure));
        let stats = Arc::new(StatsShared::new(pool.threads_spawned(), mechanism));
        let worker_ids = pool.worker_ids().to_vec();
        let subscribed = Arc::new(AtomicBool::new(false));
        let (outcomes_tx, outcomes_rx) = unbounded();

        // Replay any recovered in-flight epochs on the fresh pool,
        // synchronously and in epoch order, before the scheduler (or any
        // submitter) exists. Each re-clear reuses the epoch's original
        // session and seed, so the outcome is byte-identical to what the
        // crashed process would have produced; the new seals extend the
        // recovered settlement chain. Replays go through the live
        // clearers' own `Clearer::clear`, in groups of up to MAX_GROUP.
        let (recovery, start_epoch, pending_asks) = match recovered {
            None => (None, 0, Vec::new()),
            Some(log) => {
                let clearer = Clearer {
                    backend: &pool,
                    deadline: config.session_deadline,
                    stats: &stats,
                    journal: journal.as_deref(),
                    telemetry: &telemetry,
                    mechanism,
                };
                let mut replayed = Vec::with_capacity(log.in_flight.len());
                for chunk in log.in_flight.chunks(MAX_GROUP) {
                    let jobs = chunk
                        .iter()
                        .map(|in_flight| {
                            let mut collector = fresh_collector(&config);
                            for (slot, ask) in &in_flight.asks {
                                if (*slot as usize) < config.n_asks {
                                    collector.set_ask(*slot as usize, *ask);
                                }
                            }
                            let mut accepted = 0usize;
                            for (user, bid) in &in_flight.bids {
                                // Journaled bids were accepted once, so the
                                // collector rules accept the same stream again.
                                if collector.submit(*user, *bid).is_accepted() {
                                    accepted += 1;
                                }
                            }
                            let closed_at = Instant::now();
                            ClearJob {
                                epoch: in_flight.epoch,
                                session: epoch_session(config.first_session, in_flight.epoch),
                                seed: epoch_seed(config.seed, in_flight.epoch),
                                accepted,
                                bids: collector.close(),
                                closed_at,
                                origin: closed_at,
                                trace: None,
                            }
                        })
                        .collect();
                    clearer
                        .clear(jobs, |outcome| replayed.push(outcome))
                        .map_err(MarketError::Journal)?;
                }
                telemetry.flight.record(
                    FlightLevel::Info,
                    "recovery_complete",
                    &[
                        ("sealed", log.sealed.len().to_string()),
                        ("replayed", replayed.len().to_string()),
                        ("dropped_bytes", log.dropped_bytes.to_string()),
                    ],
                );
                let report = RecoveryReport {
                    sealed: log.sealed,
                    replayed,
                    next_epoch: log.next_epoch,
                    dropped_bytes: log.dropped_bytes,
                };
                (Some(report), log.next_epoch, log.pending_asks)
            }
        };

        let scheduler = {
            let queue = Arc::clone(&queue);
            let stats = Arc::clone(&stats);
            let subscribed = Arc::clone(&subscribed);
            let journal = journal.clone();
            let telemetry = telemetry.clone();
            std::thread::Builder::new()
                .name("market-scheduler".into())
                .spawn(move || {
                    run_scheduler(
                        config,
                        queue,
                        stats,
                        pool,
                        outcomes_tx,
                        subscribed,
                        journal,
                        telemetry,
                        start_epoch,
                        pending_asks,
                        mechanism,
                    )
                })
                .expect("spawn market scheduler thread")
        };

        Ok(MarketService {
            watch: MarketWatch { queue, stats, journal, metrics, telemetry },
            outcomes: Some(outcomes_rx),
            subscribed,
            scheduler: Some(scheduler),
            worker_ids,
            recovery,
        })
    }

    /// [`MarketService::start`] with the program built from
    /// `config.mechanism` — the spec-driven entry point behind the
    /// `--mechanism` flag. The program sells [`market_capacities`](crate::market_capacities):
    /// the configured default asks' capacities, or one unit per
    /// provider when no asks are configured.
    ///
    /// # Errors
    ///
    /// Everything [`MarketService::start`] rejects, plus
    /// [`MarketError::MechanismMismatch`] when recovering a journal
    /// sealed under a different mechanism.
    pub fn start_from_spec(config: MarketConfig) -> Result<MarketService, MarketError> {
        let program = Arc::new(crate::mechanism::build_program(&config));
        MarketService::start(config, program)
    }

    /// A cloneable submitter handle. Any number of threads may hold one.
    pub fn handle(&self) -> MarketHandle {
        MarketHandle { queue: Arc::clone(&self.watch.queue) }
    }

    /// Take the epoch-outcome subscription (single consumer; `None` on
    /// the second call). Publication starts with the take: epochs closed
    /// while nobody subscribes are **not** buffered (a headless,
    /// stats-only deployment would otherwise accumulate one
    /// [`EpochOutcome`] per epoch forever). Subscribe before the first
    /// submission to see every epoch. Epochs clearing concurrently on
    /// different shards may arrive slightly out of epoch order; the
    /// [`EpochOutcome::epoch`] counter disambiguates.
    pub fn take_outcomes(&mut self) -> Option<Receiver<EpochOutcome>> {
        let taken = self.outcomes.take();
        if taken.is_some() {
            self.subscribed.store(true, Ordering::Release);
        }
        taken
    }

    /// Live counters and latency percentiles.
    pub fn stats(&self) -> MarketStats {
        self.watch.stats()
    }

    /// A cloneable, read-only observation handle: everything a metrics
    /// registry, heartbeat printer, or flight-dump trigger needs,
    /// without keeping a borrow of the service alive.
    pub fn watch(&self) -> MarketWatch {
        self.watch.clone()
    }

    /// Dump the crash flight recorder as JSON (the `dauction
    /// flight-dump` input format).
    pub fn flight_dump_json(&self) -> String {
        self.watch.flight_dump_json()
    }

    /// Snapshot the retained per-epoch traces, oldest first.
    pub fn recent_traces(&self) -> Vec<EpochTrace> {
        self.watch.recent_traces()
    }

    /// What recovery reconstructed from the journal, if this service was
    /// started with [`crate::JournalConfig::recovering`]. `None` for
    /// fresh (or journal-less) services.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The write-ahead journal, if the service runs with one.
    pub fn journal(&self) -> Option<&Journal> {
        self.watch.journal.as_deref()
    }

    /// Traffic counters of the persistent mesh, cumulative since
    /// startup and merged across shards. Strictly monotonic across
    /// epochs — the observable proof that every epoch rides the same
    /// transport.
    pub fn traffic(&self) -> TrafficSnapshot {
        self.watch.traffic()
    }

    /// Thread ids of the provider workers, recorded at spawn:
    /// `worker_ids()[s][j]` is shard `s`'s provider-`j` worker. Constant
    /// for the life of the service (and re-verified on every epoch reply
    /// by the pool).
    pub fn worker_ids(&self) -> &[Vec<ThreadId>] {
        &self.worker_ids
    }

    /// Drain, then shut down: stop accepting submissions, let the
    /// scheduler fold every already-queued submission into a final
    /// epoch, clear it, and tear the pool and mesh down. No accepted
    /// bid is lost. Returns the final stats.
    pub fn shutdown(mut self) -> MarketStats {
        self.shutdown_in_place();
        self.stats()
    }

    fn shutdown_in_place(&mut self) {
        self.watch.queue.close();
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MarketService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// The epoch scheduler: single consumer of the ingress queue, sole
/// driver of the worker pool.
#[allow(clippy::too_many_arguments)] // one call site; the args are the service's wiring
fn run_scheduler(
    config: MarketConfig,
    queue: Arc<IngressQueue>,
    stats: Arc<StatsShared>,
    pool: SessionPool,
    outcomes_tx: Sender<EpochOutcome>,
    subscribed: Arc<AtomicBool>,
    journal: Option<Arc<Journal>>,
    telemetry: Telemetry,
    start_epoch: u64,
    pending_asks: Vec<(u64, ProviderAsk)>,
    mechanism: &'static str,
) {
    // One clearer thread per shard, spawned once alongside the workers:
    // a closed epoch is handed to its session's shard-clearer, so epochs
    // hashing to different shards clear **concurrently** while the
    // scheduler keeps folding the next epoch's submissions — this is
    // what makes `shards > 1` a real throughput knob for the market, not
    // just for batches. Within one shard, the clearer takes every epoch
    // already queued when it wakes (up to MAX_GROUP) and clears them as
    // one pool drive, sealed in epoch order; a lone epoch is a group of
    // one. There is no timer: it never waits for a group to fill.
    let pool = Arc::new(pool);
    let num_shards = pool.num_shards();
    let mut clear_txs: Vec<Sender<ClearJob>> = Vec::with_capacity(num_shards);
    let mut clearers = Vec::with_capacity(num_shards);
    for shard in 0..num_shards {
        // The clear queue is bounded: when a shard's clearer falls
        // CLEAR_BACKLOG epochs behind (e.g. every epoch is waiting out
        // the session deadline under fault injection), the scheduler's
        // send blocks, it stops draining ingress, and the ingress
        // policy (shed or block) engages — overload surfaces at the
        // submitters instead of accumulating as unbounded shutdown
        // debt.
        let (tx, rx) = bounded::<ClearJob>(CLEAR_BACKLOG);
        let deadline = config.session_deadline;
        let stats = Arc::clone(&stats);
        let pool = Arc::clone(&pool);
        let outcomes_tx = outcomes_tx.clone();
        let subscribed = Arc::clone(&subscribed);
        let journal = journal.clone();
        let telemetry = telemetry.clone();
        clearers.push(
            std::thread::Builder::new()
                .name(format!("market-clearer-{shard}"))
                .spawn(move || {
                    let clearer = Clearer {
                        backend: &*pool,
                        deadline,
                        stats: &stats,
                        journal: journal.as_deref(),
                        telemetry: &telemetry,
                        mechanism,
                    };
                    while let Ok(first) = rx.recv() {
                        let mut group = vec![first];
                        while group.len() < MAX_GROUP {
                            match rx.try_recv() {
                                Ok(job) => group.push(job),
                                Err(_) => break,
                            }
                        }
                        // Publication starts with the subscription;
                        // unobserved epochs are not buffered (and a
                        // dropped receiver must not kill the market).
                        let publish = |outcome| {
                            if subscribed.load(Ordering::Acquire) {
                                let _ = outcomes_tx.send(outcome);
                            }
                        };
                        if let Err(err) = clearer.clear(group, publish) {
                            journal_fail_stop(&telemetry, &stats, "epoch seal", &err);
                        }
                    }
                })
                .expect("spawn market clearer thread"),
        );
        clear_txs.push(tx);
    }
    drop(outcomes_tx); // the clearers hold the only publishing handles

    let mut epoch_index = start_epoch;
    // Streamed asks a recovered journal attributed to the resumed
    // scheduler's first epoch: already journaled under `start_epoch`, so
    // they pre-populate the first collector without being re-journaled.
    let mut pending_asks = pending_asks;
    let mut draining = false;
    while !draining {
        let mut collector = fresh_collector(&config);
        for (slot, ask) in pending_asks.drain(..) {
            if (slot as usize) < config.n_asks {
                collector.set_ask(slot as usize, ask);
            }
        }
        let mut accepted = 0usize;
        // Folded and journal-staged, not yet committed: none of it counts
        // — in the stats or towards closing the epoch — before `settle`.
        let mut staged = Staged::default();
        // The staleness window starts at the first **accepted** bid
        // (asks and rejected bids keep the epoch unopened), as the
        // [`EpochPolicy`] contract states.
        let mut opened: Option<Instant> = None;
        // The trace origin is the queue-push instant of the epoch's
        // opening bid: the ingress span is the queue wait the epoch's
        // first bidder actually experienced.
        let mut origin: Option<Instant> = None;
        let mut ingress_wait = Duration::ZERO;

        // Fold submissions until the policy closes the epoch or the
        // queue closes (drain-then-shutdown flushes the rest). With
        // nothing accepted yet the scheduler just blocks on the queue.
        loop {
            let due = |accepted: usize| match config.epoch {
                EpochPolicy::ByCount(n) => accepted >= n,
                EpochPolicy::ByTime(d) => opened.is_some_and(|o| o.elapsed() >= d),
                EpochPolicy::Hybrid { count, max_wait } => {
                    accepted >= count || opened.is_some_and(|o| o.elapsed() >= max_wait)
                }
            };
            // Group commit: a batch ends when it would close the epoch
            // (commit first, then close), when it has drained one ingress
            // queue's worth, or — `Pop::Empty` below — when the queue runs
            // dry. No timer: a lone bid is committed the instant nothing
            // else is waiting; under load the batch is whatever arrived
            // during the previous fsync. Without a journal nothing waits.
            if staged.pending() > 0
                && (journal.is_none()
                    || due(accepted + staged.bids)
                    || staged.pending() >= config.ingress_capacity)
            {
                staged.settle(journal.as_deref(), &stats, &telemetry, &mut accepted);
            }
            if due(accepted) {
                break; // `due` implies at least one accepted bid
            }
            let pop = match (config.epoch, opened) {
                _ if staged.pending() > 0 => queue.try_pop(),
                // Count-only closure depends solely on arrivals, and no
                // window is running before the first accepted bid: block.
                (EpochPolicy::ByCount(_), _) | (_, None) => queue.pop(),
                (EpochPolicy::ByTime(d), Some(o)) => {
                    queue.pop_timeout(d.saturating_sub(o.elapsed()))
                }
                (EpochPolicy::Hybrid { max_wait, .. }, Some(o)) => {
                    queue.pop_timeout(max_wait.saturating_sub(o.elapsed()))
                }
            };
            match pop {
                Pop::Item(queued) => {
                    let pushed_at = queued.at;
                    let was_accepted = apply(
                        &config,
                        &stats,
                        journal.as_deref(),
                        &telemetry,
                        epoch_index,
                        &mut collector,
                        &mut staged,
                        queued.submission,
                    );
                    if was_accepted && opened.is_none() {
                        let now = Instant::now();
                        opened = Some(now);
                        origin = Some(pushed_at);
                        ingress_wait = now.saturating_duration_since(pushed_at);
                    }
                }
                Pop::Empty => staged.settle(journal.as_deref(), &stats, &telemetry, &mut accepted),
                Pop::Timeout => {} // re-check `due`
                Pop::Closed => {
                    staged.settle(journal.as_deref(), &stats, &telemetry, &mut accepted);
                    draining = true;
                    break;
                }
            }
        }

        if accepted > 0 {
            let session = epoch_session(config.first_session, epoch_index);
            let seed = epoch_seed(config.seed, epoch_index);
            let opened_at = opened.expect("accepted > 0 implies an opened epoch");
            let origin = origin.unwrap_or(opened_at);
            let closed_at = Instant::now();
            let trace = (config.telemetry.trace_capacity > 0).then(|| {
                let mut trace = EpochTrace::new(epoch_index, session.0, seed);
                trace.span("ingress", Duration::ZERO, ingress_wait);
                let collect = trace.span(
                    "collect",
                    opened_at.saturating_duration_since(origin),
                    closed_at.saturating_duration_since(opened_at),
                );
                if let Some(first) = staged.first_commit {
                    trace.span_under(
                        collect,
                        "journal_commit",
                        first.saturating_duration_since(origin),
                        staged.commit_time,
                    );
                }
                trace
            });
            let job = ClearJob {
                epoch: epoch_index,
                session,
                seed,
                accepted,
                bids: collector.close(),
                closed_at,
                origin,
                trace,
            };
            let shard = shard_for(session, num_shards);
            // A dead clearer (panicked shard) drops this epoch's
            // outcome; the market itself keeps running.
            let _ = clear_txs[shard].send(job);
            epoch_index += 1;
        }
    }
    // Drain-then-shutdown, stage two: the queue is closed and every
    // submission is folded; now let the clearers finish every in-flight
    // epoch before any worker or mesh goes away.
    drop(clear_txs);
    for clearer in clearers {
        let _ = clearer.join();
    }
    // A deliberate exit must leave nothing in the page cache: whatever
    // the policy deferred is synced now, once, before the process can
    // end. (Crash exits are the journal's whole point and skip this.)
    if let Some(journal) = &journal {
        if let Err(err) = journal.sync() {
            journal_fail_stop(&telemetry, &stats, "final sync", &err);
        }
    }
    // Workers joined (and their endpoints dropped) before the mesh goes.
    Arc::try_unwrap(pool).expect("all clearers joined").shutdown();
}

/// Closed epochs that may queue for a shard's clearer before the
/// scheduler blocks (and, transitively, the ingress queue starts
/// filling). On top of these, the clearer holds the group it is driving
/// (at most [`MAX_GROUP`] epochs), which it took off this queue.
const CLEAR_BACKLOG: usize = 32;

/// A closed epoch on its way to a [`Clearer`].
pub(crate) struct ClearJob {
    pub(crate) epoch: u64,
    pub(crate) session: SessionId,
    pub(crate) seed: u64,
    pub(crate) accepted: usize,
    /// The closed vector (every provider collected the same stream; m
    /// copies of this are the m per-provider `b̄ⱼ` inputs).
    pub(crate) bids: BidVector,
    /// When the epoch closed — the latency clock includes any wait for
    /// the shard's clearer, which is real backlog, not measurement slack.
    pub(crate) closed_at: Instant,
    /// The trace origin: the queue-push instant of the opening bid
    /// (equal to the open instant when no stamp was available).
    pub(crate) origin: Instant,
    /// The epoch's span tree so far (ingress + collect recorded by the
    /// scheduler); the clearer appends dispatch/session/seal and
    /// finishes it. `None` when tracing is disabled.
    pub(crate) trace: Option<EpochTrace>,
}

/// A fresh collector for a new epoch, with the configured default asks
/// attached. One collector suffices: every provider sees the identical
/// submission stream through the single ingress queue, so the m
/// per-provider `b̄ⱼ` vectors are m copies of its closed output
/// (divergence across providers is the *bidders'* move in the paper,
/// not something one service handle can express).
fn fresh_collector(config: &MarketConfig) -> BidCollector {
    let mut collector = BidCollector::new(config.n_users, config.n_asks);
    for (slot, ask) in config.asks.iter().enumerate() {
        collector.set_ask(slot, *ask);
    }
    collector
}

/// Accepted bids and applied asks the scheduler has folded (and, with a
/// journal, staged) since the last commit.
#[derive(Default)]
struct Staged {
    bids: usize,
    asks: usize,
    /// When the epoch's first journal commit began and how long all of
    /// them took — the `journal_commit` span under `collect`.
    first_commit: Option<Instant>,
    commit_time: Duration,
}

impl Staged {
    fn pending(&self) -> usize {
        self.bids + self.asks
    }

    /// The commit half of the write-ahead discipline: make everything
    /// staged durable per the fsync policy, and only then let it count —
    /// in the verdict counters and towards closing the epoch. A failed
    /// commit is fail-stop like a failed append.
    fn settle(
        &mut self,
        journal: Option<&Journal>,
        stats: &StatsShared,
        telemetry: &Telemetry,
        accepted: &mut usize,
    ) {
        if let Some(journal) = journal.filter(|_| self.pending() > 0) {
            let started = Instant::now();
            if let Err(err) = journal.commit() {
                journal_fail_stop(telemetry, stats, "commit", &err);
            }
            self.first_commit.get_or_insert(started);
            self.commit_time += started.elapsed();
        }
        stats.bids_accepted.fetch_add(self.bids as u64, Ordering::Relaxed);
        stats.asks_set.fetch_add(self.asks as u64, Ordering::Relaxed);
        *accepted += self.bids;
        (self.bids, self.asks) = (0, 0);
    }
}

/// Fold one submission into the epoch's collector. Returns `true` iff a
/// bid was accepted (the unit the epoch policies count).
///
/// Rejections are counted here. An accepted bid or applied ask is only
/// *staged* — in the journal (written, not yet durable) and in `staged`
/// — and is counted, and allowed to close the epoch, by the
/// [`Staged::settle`] that commits it. A journal append failure is
/// fail-stop by design ([`journal_fail_stop`]): a durable market must
/// not acknowledge what it cannot journal — but it does leave a flight
/// dump behind on the way down.
#[allow(clippy::too_many_arguments)] // one call site; the args are the scheduler's state
fn apply(
    config: &MarketConfig,
    stats: &StatsShared,
    journal: Option<&Journal>,
    telemetry: &Telemetry,
    epoch: u64,
    collector: &mut BidCollector,
    staged: &mut Staged,
    submission: Submission,
) -> bool {
    match submission {
        Submission::Bid { user, bid } => {
            let counter = match collector.submit(user, bid) {
                dauctioneer_core::SubmissionOutcome::Accepted => {
                    if let Some(journal) = journal {
                        if let Err(err) = journal.stage_accepted(epoch, user, bid) {
                            journal_fail_stop(telemetry, stats, "accepted bid", &err);
                        }
                    }
                    staged.bids += 1;
                    return true;
                }
                dauctioneer_core::SubmissionOutcome::RejectedInvalid => {
                    &stats.bids_rejected_invalid
                }
                dauctioneer_core::SubmissionOutcome::RejectedDuplicate => {
                    &stats.bids_rejected_duplicate
                }
                dauctioneer_core::SubmissionOutcome::RejectedUnknownBidder
                | dauctioneer_core::SubmissionOutcome::RejectedLate => &stats.bids_rejected_unknown,
            };
            counter.fetch_add(1, Ordering::Relaxed);
            false
        }
        Submission::Ask { slot, ask } => {
            if slot >= config.n_asks {
                stats.asks_rejected.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            if let Some(journal) = journal {
                if let Err(err) = journal.stage_ask(epoch, slot as u64, ask) {
                    journal_fail_stop(telemetry, stats, "ask", &err);
                }
            }
            collector.set_ask(slot, ask);
            staged.asks += 1;
            false
        }
    }
}

/// The most closed epochs a shard's clearer drives as one pool batch.
///
/// A group costs one dispatch to the m workers, one run of the 4
/// broadcast rounds (every session's messages ride the same rounds) and
/// one journal commit, where the same epochs cleared one by one pay each
/// of those once per epoch. The clearer takes only what is already
/// queued when it wakes, so a paced market, whose epochs rarely queue,
/// still clears groups of one and waits for nothing.
///
/// The cap is a `const`, not a knob, because its cost is memory: each
/// extra in-flight session holds ≈ 60 kB of live engine state at m = 5.
/// A sweep of the cap (24 s runs of the repo benchmark, 2-core x86_64
/// host with SHA extensions):
///
/// | cap | `standard_vcg` `peak_rss_mb` | `small_epochs_tcp` `sealed_bids_per_s` |
/// |---|---|---|
/// | 1 (one epoch per drive) | 6.84 (median of 7 runs, 6.50–6.98) | ≈ 9.1k |
/// | 2 | 7.16 | 16–20k |
/// | 3 | 7.28 (+6 %) | 16–19k |
/// | 4 | 7.59 (+11 %) | 21–24k |
/// | 8 | 7.82 | – |
/// | 16 | 8.65 (+26 %) | – |
///
/// At a cap of 4 each of the five worker threads grows its glibc arena
/// by one step; 3 takes most of the capacity gain inside a 10 % memory
/// budget.
const MAX_GROUP: usize = 3;

/// The session id of epoch `epoch`, for the market and the cluster alike.
pub(crate) fn epoch_session(first_session: u64, epoch: u64) -> SessionId {
    SessionId(first_session + epoch)
}

/// A distinct, reproducible seed per epoch, for the market and the
/// cluster alike (7919 = the 1000th prime, an arbitrary odd stride).
pub(crate) fn epoch_seed(seed: u64, epoch: u64) -> u64 {
    seed.wrapping_add((epoch + 1).wrapping_mul(7919))
}

/// Outcomes of one drive, `[shard][provider][session]`.
pub(crate) type Columns = Vec<Vec<Vec<Outcome>>>;

/// Decide offsets of one drive, `[shard][provider][session]`; `None`
/// where the provider never decided.
pub(crate) type DecideOffsets = Vec<Vec<Vec<Option<Duration>>>>;

/// Where a [`Clearer`]'s sessions run: the in-process [`SessionPool`] of
/// a [`MarketService`], or the remote providers of a
/// [`crate::Coordinator`].
pub(crate) trait ClearBackend {
    /// Shards the sessions spread over (by [`shard_for`]).
    fn num_shards(&self) -> usize;

    /// Drive the epochs `shard_jobs[s]` on shard `s` to decisions within
    /// `deadline`, as [`SessionPool::run_epoch_traced`] does. Every
    /// provider clears the same vector, the job's `bids`.
    fn run_epoch_traced(
        &self,
        shard_jobs: Vec<Vec<&ClearJob>>,
        deadline: Duration,
    ) -> (Columns, DecideOffsets);

    /// Whom to blame for a ⊥ of the last drive that is not a divergence;
    /// `None` reads as a deadline miss.
    fn blame(&self) -> Option<AbortReason>;
}

impl ClearBackend for SessionPool {
    fn num_shards(&self) -> usize {
        SessionPool::num_shards(self)
    }

    /// The pool's workers each take their own copy of the vector.
    fn run_epoch_traced(
        &self,
        shard_jobs: Vec<Vec<&ClearJob>>,
        deadline: Duration,
    ) -> (Columns, DecideOffsets) {
        let m = self.providers();
        let shard_specs = (shard_jobs.into_iter())
            .map(|jobs| {
                (jobs.into_iter())
                    .map(|job| BatchSession::uniform(job.session, job.bids.clone(), m, job.seed))
                    .collect()
            })
            .collect();
        SessionPool::run_epoch_traced(self, shard_specs, deadline)
    }

    /// What the pool was started with, in order of intent: adversaries
    /// are targeted (they *aim* to force ⊥), chaos is environmental.
    fn blame(&self) -> Option<AbortReason> {
        if self.runs_adversaries() {
            Some(AbortReason::Adversary)
        } else if self.injects_faults() {
            Some(AbortReason::ChaosFault)
        } else {
            None
        }
    }
}

/// The one code path from closed epochs to sealed, classified, counted
/// and published outcomes. The shard clearers, recovery's synchronous
/// re-clears and the cluster coordinator all go through
/// [`Clearer::clear`] — one code path is what makes "replayed outcomes
/// are byte-identical" structural rather than coincidental.
pub(crate) struct Clearer<'a, B> {
    pub(crate) backend: &'a B,
    /// Bounds each drive.
    pub(crate) deadline: Duration,
    pub(crate) stats: &'a StatsShared,
    pub(crate) journal: Option<&'a Journal>,
    pub(crate) telemetry: &'a Telemetry,
    pub(crate) mechanism: &'static str,
}

impl<B: ClearBackend> Clearer<'_, B> {
    /// Clear a group of closed epochs (in epoch order) as one drive of
    /// the backend — one session per epoch, on the epoch's shard — then
    /// seal them onto the settlement chain in epoch order, commit once,
    /// and only then count, trace and `publish` each outcome in epoch
    /// order. A ⊥ aborts only its own epoch; its group-mates keep their
    /// outcomes. The deadline bounds the whole drive.
    ///
    /// # Errors
    ///
    /// The journal's error if a seal could not be staged or committed;
    /// nothing of the group was counted or published.
    pub(crate) fn clear(
        &self,
        jobs: Vec<ClearJob>,
        mut publish: impl FnMut(EpochOutcome),
    ) -> Result<(), JournalError> {
        debug_assert!(jobs.windows(2).all(|pair| pair[0].epoch < pair[1].epoch), "epoch order");
        let group = jobs.len();
        let num_shards = self.backend.num_shards();
        let mut shard_jobs: Vec<Vec<&ClearJob>> = vec![Vec::new(); num_shards];
        // `(shard, index)` of each job's session in the drive.
        let slots: Vec<(usize, usize)> = jobs
            .iter()
            .map(|job| {
                let shard = shard_for(job.session, num_shards);
                shard_jobs[shard].push(job);
                (shard, shard_jobs[shard].len() - 1)
            })
            .collect();

        let drive_started = Instant::now();
        let (mut columns, decided) = self.backend.run_epoch_traced(shard_jobs, self.deadline);
        let drive_duration = drive_started.elapsed();
        let blame = self.backend.blame();
        let drive_ended = drive_started + drive_duration;
        // Each slot is read once: its outcomes move out of the drive.
        let cleared: Vec<(Vec<Outcome>, Outcome)> = slots
            .iter()
            .map(|&(s, i)| {
                let outcomes: Vec<Outcome> = (columns[s].iter_mut())
                    .map(|provider| std::mem::replace(&mut provider[i], Outcome::Abort))
                    .collect();
                let outcome = unanimous(outcomes.iter().map(Some));
                (outcomes, outcome)
            })
            .collect();

        // The seals are staged in epoch order and committed once before
        // any epoch is counted or published — the same write-ahead
        // ordering the accepted bids get. Concurrent clearers serialize
        // on the journal's append lock; the chain order is the file
        // order. The commit's fsync also covers whatever the scheduler
        // staged meanwhile.
        let seal_started = Instant::now();
        let mut commit_started = seal_started;
        if let Some(journal) = self.journal {
            for (job, (_, outcome)) in jobs.iter().zip(&cleared) {
                journal.stage_seal(
                    job.epoch,
                    job.session,
                    job.seed,
                    job.accepted as u64,
                    job.bids.clone(),
                    self.mechanism,
                    outcome.clone(),
                )?;
            }
            commit_started = Instant::now();
            journal.commit()?;
        }
        let seal_duration = seal_started.elapsed();

        self.stats.clear_groups.fetch_add(1, Ordering::Relaxed);
        for ((job, (outcomes, outcome)), &(s, i)) in jobs.into_iter().zip(cleared).zip(&slots) {
            let reason = classify_abort(&outcomes, &outcome, blame);
            let latency = drive_ended.saturating_duration_since(job.closed_at);
            self.stats.record_epoch(latency, reason);
            let (level, kind, status) = match reason {
                None => {
                    (FlightLevel::Info, "epoch_cleared", ("accepted", job.accepted.to_string()))
                }
                Some(reason) => {
                    (FlightLevel::Warn, "epoch_aborted", ("reason", reason.label().to_string()))
                }
            };
            self.telemetry.flight.record(
                level,
                kind,
                &[
                    ("epoch", job.epoch.to_string()),
                    status,
                    ("latency_us", latency.as_micros().to_string()),
                    ("group", group.to_string()),
                ],
            );
            if let Some(mut trace) = job.trace {
                // All span offsets are relative to the trace origin (the
                // opening bid's queue-push instant). The dispatch span is
                // the group's drive; any wait for the clearer is the gap
                // before it.
                let dispatch_start = drive_started.saturating_duration_since(job.origin);
                let dispatch = trace.span("dispatch", dispatch_start, drive_duration);
                for (j, provider) in decided[s].iter().enumerate() {
                    // A provider that never decided spans the whole
                    // drive: its worker held the session until the
                    // deadline pinned ⊥.
                    trace.span_under(
                        dispatch,
                        &format!("session[{j}]"),
                        dispatch_start,
                        provider[i].unwrap_or(drive_duration),
                    );
                }
                let seal = trace.span("seal", dispatch_start + drive_duration, seal_duration);
                if self.journal.is_some() {
                    let staging = commit_started.saturating_duration_since(seal_started);
                    trace.span_under(
                        seal,
                        "journal_commit",
                        dispatch_start + drive_duration + staging,
                        seal_duration.saturating_sub(staging),
                    );
                }
                trace.finish(job.origin.elapsed(), reason);
                self.telemetry.traces.push(trace);
            }
            publish(EpochOutcome {
                epoch: job.epoch,
                session: job.session,
                seed: job.seed,
                accepted_bids: job.accepted,
                bids: job.bids,
                outcomes,
                outcome,
                reason,
                latency,
                mechanism: self.mechanism,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dauctioneer_core::{
        Adversary, AdversaryKind, BatchConfig, DoubleAuctionProgram, FrameworkConfig,
    };
    use dauctioneer_net::{FaultPlan, LatencyModel};
    use dauctioneer_telemetry::AbortReason::{
        Adversary as Adv, ChaosFault, Deadline, Divergence, PeerDown,
    };
    use dauctioneer_types::{Allocation, AuctionResult, Payments, ProviderId};

    /// An agreed outcome; different `n_users` make different outcomes.
    fn agreed(n_users: usize) -> Outcome {
        Outcome::Agreed(AuctionResult::new(Allocation::new(n_users, 1), Payments::zero(n_users, 1)))
    }

    #[test]
    fn an_agreed_epoch_has_no_abort_reason() {
        let unanimous = vec![agreed(1); 3];
        assert_eq!(classify_abort(&unanimous, &agreed(1), Some(PeerDown)), None);
    }

    #[test]
    fn all_decided_but_disagreeing_is_divergence_whatever_the_blame() {
        let split = [agreed(1), agreed(1), agreed(2)];
        for blame in [None, Some(PeerDown), Some(Adv), Some(ChaosFault)] {
            assert_eq!(classify_abort(&split, &Outcome::Abort, blame), Some(Divergence));
        }
    }

    #[test]
    fn a_bottom_is_the_backends_blame() {
        let one_bottom = [agreed(1), agreed(1), Outcome::Abort];
        for blame in [PeerDown, Adv, ChaosFault] {
            assert_eq!(classify_abort(&one_bottom, &Outcome::Abort, Some(blame)), Some(blame));
        }
    }

    #[test]
    fn a_bottom_nobody_is_blamed_for_is_a_deadline_miss() {
        let bottoms = vec![Outcome::Abort; 3];
        assert_eq!(classify_abort(&bottoms, &Outcome::Abort, None), Some(Deadline));
        let one_bottom = [agreed(1), Outcome::Abort, agreed(1)];
        assert_eq!(classify_abort(&one_bottom, &Outcome::Abort, None), Some(Deadline));
        assert_eq!(classify_abort(&[], &Outcome::Abort, None), Some(Deadline));
    }

    #[test]
    fn the_pool_blames_what_it_was_started_with() {
        let cfg = FrameworkConfig::new(3, 1, 2, 1);
        let program = Arc::new(DoubleAuctionProgram::new());
        let lossy = Some(FaultPlan::none().with_drop(0.1));
        let crash = vec![Adversary::new(ProviderId(1), AdversaryKind::Silent { after: 0 })];
        for (chaos, adversaries, blame) in [
            (None, Vec::new(), None),
            (Some(FaultPlan::none()), Vec::new(), None),
            (lossy, Vec::new(), Some(ChaosFault)),
            (None, crash.clone(), Some(Adv)),
            (lossy, crash, Some(Adv)),
        ] {
            let batch = BatchConfig { chaos, adversaries, ..BatchConfig::default() };
            let pool = SessionPool::start(&cfg, &program, &batch, LatencyModel::Zero, 1, None)
                .expect("in-process pool");
            assert_eq!(ClearBackend::blame(&pool), blame, "chaos {chaos:?}");
            pool.shutdown();
        }
    }
}
