//! End-to-end chaos acceptance: every named scenario, on both
//! transports, terminates in the identical honest outcome or the
//! paper's ⊥-abort — never a hang, never a divergent clearing — and
//! seeded fault runs replay.
//!
//! This is the test-suite form of the `chaos_sweep --suite` contract
//! (the bench binary sweeps more sessions and reports survivability;
//! this suite pins the invariants into `cargo test`).

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use dauctioneer::core::{
    run_batch_with, AdversaryKind, BatchConfig, BatchReport, BatchSession, DoubleAuctionProgram,
    DynProgram, FrameworkConfig, RunOptions, TransportKind,
};
use dauctioneer::market::{AbortReason, EpochPolicy, MarketConfig, MarketService, MechanismSpec};
use dauctioneer::net::FaultPlan;
use dauctioneer::types::{Bw, Money, Outcome, ProviderAsk, ProviderId, SessionId, UserBid, UserId};
use dauctioneer::workload::{
    chaos_suite, ChaosScenario, DoubleAuctionWorkload, Expectation, StandardAuctionWorkload,
};

const M: usize = 3;
const N_USERS: usize = 4;
const SESSIONS: usize = 2;

fn cfg() -> FrameworkConfig {
    FrameworkConfig::new(M, 1, N_USERS, M)
}

fn specs(seed: u64) -> Vec<BatchSession> {
    (0..SESSIONS)
        .map(|s| {
            let bids = DoubleAuctionWorkload::new(N_USERS, M, seed + s as u64).generate();
            BatchSession::uniform(SessionId(s as u64), bids, M, seed + 977 * s as u64)
        })
        .collect()
}

fn options() -> RunOptions {
    RunOptions { deadline: Duration::from_secs(1), ..RunOptions::default() }
}

fn run_sharded(
    scenario: &ChaosScenario,
    transport: TransportKind,
    shards: usize,
    seed: u64,
) -> BatchReport {
    let (chaos, adversaries) = scenario.faults(seed, M);
    run_batch_with(
        &cfg(),
        Arc::new(DoubleAuctionProgram::new()),
        specs(seed),
        &options(),
        &BatchConfig { shards, transport, chaos, adversaries },
    )
    .unwrap()
}

fn run(scenario: &ChaosScenario, transport: TransportKind, seed: u64) -> BatchReport {
    run_sharded(scenario, transport, 1, seed)
}

/// The transport matrix every scenario must survive: in-process
/// channels, a dedicated TCP mesh, and **two shards multiplexed over
/// one TCP mesh** (`tcp-mux`) — the chaos/adversary stack wraps the mux
/// lane endpoints exactly as it wraps any other transport.
const MATRIX: [(TransportKind, usize, &str); 3] = [
    (TransportKind::InProc, 1, "inproc"),
    (TransportKind::Tcp, 1, "tcp"),
    (TransportKind::Tcp, 2, "tcp-mux"),
];

fn outcome_matrix(report: &BatchReport) -> Vec<Vec<Outcome>> {
    report.sessions.iter().map(|s| s.outcomes.clone()).collect()
}

/// The §3.2 contract of one faulty run against its honest reference:
/// per provider, the outcome is the identical honest pair or ⊥; within
/// a session, no two providers clear different trades.
fn assert_honest_or_bottom(
    scenario: &str,
    transport: &str,
    report: &BatchReport,
    honest: &[Outcome],
) {
    for (session, honest_outcome) in report.sessions.iter().zip(honest) {
        assert!(!honest_outcome.is_abort(), "reference run must clear");
        for outcome in &session.outcomes {
            if !outcome.is_abort() {
                assert_eq!(
                    outcome, honest_outcome,
                    "{scenario}/{transport} session {}: a provider cleared a non-honest trade",
                    session.session
                );
            }
        }
    }
}

#[test]
fn every_scenario_terminates_honest_or_bottom_on_both_transports() {
    let seed = 0xC4A0;
    let baseline = run(&chaos_suite()[0], TransportKind::InProc, seed);
    assert!(baseline.all_agreed(), "fault-free baseline must clear everything");
    let honest: Vec<Outcome> = baseline.sessions.iter().map(|s| s.unanimous()).collect();

    for scenario in chaos_suite() {
        for (transport, shards, label) in MATRIX {
            // Returning at all is the termination half of the contract:
            // undecided sessions read ⊥ at the deadline instead of
            // hanging.
            let report = run_sharded(&scenario, transport, shards, seed);
            assert_eq!(report.sessions.len(), SESSIONS);
            assert_honest_or_bottom(scenario.name, label, &report, &honest);
            if scenario.expect == Expectation::HonestOnly {
                assert!(
                    report.all_agreed(),
                    "{}/{label}: faults within the model's assumptions must still clear",
                    scenario.name
                );
            }
        }
    }
}

#[test]
fn tcp_mux_replays_and_matches_the_fault_free_reference() {
    // The mux column's replay half: chaos over two lanes of one socket
    // mesh is still a deterministic function of the seed (fault
    // decisions are salted per shard, so the reference is another
    // tcp-mux run, not the single-shard rows), and the benign plan over
    // the mux is outcome-identical to the unwrapped mux run.
    let seed = 0xBEEF;
    for scenario in chaos_suite().iter().filter(|s| s.replayable_outcomes()) {
        let first = outcome_matrix(&run_sharded(scenario, TransportKind::Tcp, 2, seed));
        let again = outcome_matrix(&run_sharded(scenario, TransportKind::Tcp, 2, seed));
        assert_eq!(first, again, "{}: tcp-mux must replay from its seed", scenario.name);
    }
    let unwrapped = run_batch_with(
        &cfg(),
        Arc::new(DoubleAuctionProgram::new()),
        specs(88),
        &options(),
        &BatchConfig { shards: 2, transport: TransportKind::Tcp, ..BatchConfig::default() },
    )
    .unwrap();
    let wrapped = run_batch_with(
        &cfg(),
        Arc::new(DoubleAuctionProgram::new()),
        specs(88),
        &options(),
        &BatchConfig {
            shards: 2,
            transport: TransportKind::Tcp,
            chaos: Some(FaultPlan::seeded(5)),
            ..BatchConfig::default()
        },
    )
    .unwrap();
    assert!(wrapped.all_agreed());
    assert_eq!(outcome_matrix(&unwrapped), outcome_matrix(&wrapped));
}

#[test]
fn replayable_scenarios_are_seed_deterministic_across_backends() {
    let seed = 0xD1CE;
    for scenario in chaos_suite().iter().filter(|s| s.replayable_outcomes()) {
        let inproc = outcome_matrix(&run(scenario, TransportKind::InProc, seed));
        let again = outcome_matrix(&run(scenario, TransportKind::InProc, seed));
        assert_eq!(inproc, again, "{}: same seed, same outcomes", scenario.name);
        let tcp = outcome_matrix(&run(scenario, TransportKind::Tcp, seed));
        assert_eq!(inproc, tcp, "{}: InProc and TCP must agree for one seed", scenario.name);
    }
}

#[test]
fn benign_plan_is_outcome_identical_to_the_unwrapped_transport() {
    // The drop-probability-0 plan (all knobs zero) must be outcome-
    // invisible on every backend: wrapping is free until armed.
    for transport in [TransportKind::InProc, TransportKind::Tcp] {
        let unwrapped = run_batch_with(
            &cfg(),
            Arc::new(DoubleAuctionProgram::new()),
            specs(77),
            &options(),
            &BatchConfig { shards: 1, transport, ..BatchConfig::default() },
        )
        .unwrap();
        let wrapped = run_batch_with(
            &cfg(),
            Arc::new(DoubleAuctionProgram::new()),
            specs(77),
            &options(),
            &BatchConfig {
                shards: 1,
                transport,
                chaos: Some(FaultPlan::seeded(123)),
                ..BatchConfig::default()
            },
        )
        .unwrap();
        assert!(wrapped.all_agreed());
        assert_eq!(outcome_matrix(&unwrapped), outcome_matrix(&wrapped), "{transport:?}");
    }
}

// ---------------------------------------------------------------------
// The mechanism matrix: the chaos contract is mechanism-independent.
//
// The combinatorial program replicates an NP-hard node-budgeted search
// and the divisible program runs Algorithm-1-style payment groups, yet
// under every chaos scenario both must read exactly like the double
// auction: the identical honest outcome at every provider, or ⊥ —
// never a divergent clearing, never a hang.
// ---------------------------------------------------------------------

/// The two new mechanism specs the matrix covers; the double and
/// standard auctions are exercised by the tests above and the core
/// suites.
fn mechanism_matrix() -> [MechanismSpec; 2] {
    ["combinatorial,budget=20000".parse().unwrap(), "divisible,beta=0.05".parse().unwrap()]
}

/// Sessions carrying §6.3-shaped user bids (providers hold capacity but
/// do not bid), plus the capacity vector the mechanism program is built
/// around.
fn mechanism_specs(seed: u64) -> (Vec<BatchSession>, Vec<Bw>) {
    let (_, capacities) = StandardAuctionWorkload::new(N_USERS, M, seed).generate();
    let sessions = (0..SESSIONS)
        .map(|s| {
            let (bids, _) = StandardAuctionWorkload::new(N_USERS, M, seed + s as u64).generate();
            BatchSession::uniform(SessionId(s as u64), bids, M, seed + 977 * s as u64)
        })
        .collect();
    (sessions, capacities)
}

fn run_mechanism(
    spec: MechanismSpec,
    scenario: &ChaosScenario,
    transport: TransportKind,
    seed: u64,
) -> BatchReport {
    let (sessions, capacities) = mechanism_specs(seed);
    let (chaos, adversaries) = scenario.faults(seed, M);
    // No ask slots: §6.3-style providers publish capacity out of band
    // (baked into the program) instead of bidding.
    run_batch_with(
        &FrameworkConfig::new(M, 1, N_USERS, 0),
        Arc::new(DynProgram::new(spec.build_program(capacities))),
        sessions,
        &options(),
        &BatchConfig { shards: 1, transport, chaos, adversaries },
    )
    .unwrap()
}

#[test]
fn combinatorial_and_divisible_terminate_honest_or_bottom_under_chaos() {
    let seed = 0xC0DE;
    for spec in mechanism_matrix() {
        let baseline = run_mechanism(spec, &chaos_suite()[0], TransportKind::InProc, seed);
        assert!(baseline.all_agreed(), "{spec}: fault-free baseline must clear everything");
        let honest: Vec<Outcome> = baseline.sessions.iter().map(|s| s.unanimous()).collect();

        for scenario in chaos_suite() {
            for transport in [TransportKind::InProc, TransportKind::Tcp] {
                let report = run_mechanism(spec, &scenario, transport, seed);
                assert_eq!(report.sessions.len(), SESSIONS);
                assert_honest_or_bottom(scenario.name, &format!("{spec}"), &report, &honest);
                if scenario.expect == Expectation::HonestOnly {
                    assert!(
                        report.all_agreed(),
                        "{}/{spec}: faults within the model's assumptions must still clear",
                        scenario.name
                    );
                }
            }
        }
    }
}

#[test]
fn mechanism_outcomes_replay_identically_across_backends() {
    // The budget is counted in search *nodes*, so the combinatorial
    // clearing — fallback and all — and the randomness-free divisible
    // clearing are pure functions of (seed, bids): InProc and TCP runs
    // of the same seeded scenario must agree outcome-for-outcome.
    let seed = 0xD05E;
    for spec in mechanism_matrix() {
        for scenario in chaos_suite().iter().filter(|s| s.replayable_outcomes()) {
            let inproc =
                outcome_matrix(&run_mechanism(spec, scenario, TransportKind::InProc, seed));
            let again = outcome_matrix(&run_mechanism(spec, scenario, TransportKind::InProc, seed));
            assert_eq!(inproc, again, "{}/{spec}: same seed, same outcomes", scenario.name);
            let tcp = outcome_matrix(&run_mechanism(spec, scenario, TransportKind::Tcp, seed));
            assert_eq!(
                inproc, tcp,
                "{}/{spec}: InProc and TCP must agree for one seed",
                scenario.name
            );
        }
    }
}

#[test]
fn market_survivability_counters_account_for_every_epoch() {
    // A lossy mesh under the continuous market: epochs keep closing,
    // each one reads the honest outcome or ⊥, and the cleared/aborted
    // split accounts for every epoch. Shutdown drains — no hang.
    let mut config = MarketConfig::new(M, 1, N_USERS, 1)
        .with_epoch(EpochPolicy::ByCount(2))
        .with_asks(vec![ProviderAsk::new(Money::from_f64(0.1), Bw::from_f64(4.0))])
        .with_chaos(FaultPlan::seeded(31).with_drop(0.25));
    config.session_deadline = Duration::from_millis(600);
    let mut market = MarketService::start(config, Arc::new(DoubleAuctionProgram::new())).unwrap();
    let outcomes = market.take_outcomes().unwrap();
    let handle = market.handle();
    for i in 0..8u32 {
        handle
            .submit_bid(
                UserId(i % N_USERS as u32),
                UserBid::new(Money::from_f64(1.0), Bw::from_f64(0.5)),
            )
            .unwrap();
    }
    let stats = market.shutdown();
    assert_eq!(stats.epochs_closed, 4, "8 accepted bids at 2 per epoch");
    assert_eq!(
        stats.epochs_cleared + stats.epochs_aborted,
        stats.epochs_closed,
        "every epoch is exactly one of cleared or aborted"
    );
    // Telemetry contract: every abort is classified — the per-reason
    // breakdown accounts for each aborted epoch and none reads unknown.
    assert_eq!(
        stats.epochs_aborted_by_reason.total(),
        stats.epochs_aborted,
        "every aborted epoch carries exactly one abort reason"
    );
    assert_eq!(
        stats.epochs_aborted_by_reason.get(AbortReason::Unknown),
        0,
        "no abort under a known fault plan may classify as unknown"
    );
    assert!(stats.chaos.dropped > 0, "the mesh fault counters surface in MarketStats");
    let mut seen = 0;
    while let Ok(epoch) = outcomes.try_recv() {
        seen += 1;
        assert_eq!(epoch.outcomes.len(), M);
    }
    assert_eq!(seen, stats.epochs_closed);
}

#[test]
fn market_with_crashed_provider_aborts_every_epoch_but_keeps_serving() {
    let mut config = MarketConfig::new(M, 1, N_USERS, 1)
        .with_epoch(EpochPolicy::ByCount(2))
        .with_asks(vec![ProviderAsk::new(Money::from_f64(0.1), Bw::from_f64(4.0))])
        .with_adversary(ProviderId(2), AdversaryKind::Silent { after: 0 });
    config.session_deadline = Duration::from_millis(500);
    let mut market = MarketService::start(config, Arc::new(DoubleAuctionProgram::new())).unwrap();
    let outcomes = market.take_outcomes().unwrap();
    let handle = market.handle();
    for i in 0..4u32 {
        handle
            .submit_bid(
                UserId(i % N_USERS as u32),
                UserBid::new(Money::from_f64(1.0), Bw::from_f64(0.5)),
            )
            .unwrap();
    }
    let stats = market.shutdown();
    assert_eq!(stats.epochs_closed, 2);
    assert_eq!(stats.epochs_aborted, 2, "a crashed provider ⊥s every epoch (m=3, k=1)");
    assert_eq!(stats.epochs_cleared, 0);
    assert_eq!(
        stats.epochs_aborted_by_reason.get(AbortReason::Adversary),
        2,
        "aborts caused by a configured adversary classify as adversary"
    );
    assert_eq!(stats.epochs_aborted_by_reason.get(AbortReason::Unknown), 0);
    while let Ok(epoch) = outcomes.try_recv() {
        assert!(epoch.outcome.is_abort());
    }
}

// ---------------------------------------------------------------------
// Seed-exact replay of arbitrary fault plans.
//
// The threaded runtime does not fix cross-link scheduling, so arbitrary
// fault mixes there guarantee safety (above) but not outcome identity.
// For the exactness claim — same seed ⇒ byte-identical report — the
// engines are driven *deterministically*: one thread, round-robin
// delivery, every provider's endpoint wrapped in the same
// `ChaosTransport` the real runtimes use.
// ---------------------------------------------------------------------

use bytes::Bytes;
use dauctioneer::core::{Block, OutboxCtx, SessionEngine};
use dauctioneer::net::{ChaosStats, ChaosTransport, RecvError, Transport};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

type Inboxes = Rc<RefCell<Vec<VecDeque<(ProviderId, Bytes)>>>>;

/// A single-threaded in-memory mesh endpoint: `recv` pops this
/// provider's queue or reports `Timeout` (never blocks).
struct LocalEndpoint {
    me: ProviderId,
    m: usize,
    inboxes: Inboxes,
}

impl Transport for LocalEndpoint {
    fn me(&self) -> ProviderId {
        self.me
    }

    fn num_providers(&self) -> usize {
        self.m
    }

    fn send(&mut self, to: ProviderId, payload: Bytes) {
        self.inboxes.borrow_mut()[to.index()].push_back((self.me, payload));
    }

    fn recv_timeout(&mut self, _timeout: Duration) -> Result<(ProviderId, Bytes), RecvError> {
        self.inboxes.borrow_mut()[self.me.index()].pop_front().ok_or(RecvError::Timeout)
    }
}

/// Drive one session to quiescence under `plan`, deterministically.
/// Returns the per-provider outcomes and each wrapper's fault counters.
fn deterministic_run(plan: FaultPlan, seed: u64) -> (Vec<Outcome>, Vec<ChaosStats>) {
    let cfg = cfg().with_session(SessionId(1));
    let bids = DoubleAuctionWorkload::new(N_USERS, M, seed).generate();
    let mut engines =
        SessionEngine::roster(&cfg, &Arc::new(DoubleAuctionProgram::new()), vec![bids; M], seed);
    let inboxes: Inboxes = Rc::new(RefCell::new((0..M).map(|_| VecDeque::new()).collect()));
    let mut chaos: Vec<ChaosTransport<LocalEndpoint>> = (0..M)
        .map(|j| {
            ChaosTransport::new(
                LocalEndpoint { me: ProviderId(j as u32), m: M, inboxes: Rc::clone(&inboxes) },
                plan,
            )
        })
        .collect();

    let deposit = |from: usize, ctx: &mut OutboxCtx| {
        for (to, payload) in ctx.drain() {
            inboxes.borrow_mut()[to.index()].push_back((ProviderId(from as u32), payload));
        }
    };
    for (j, engine) in engines.iter_mut().enumerate() {
        let mut ctx = OutboxCtx::new(ProviderId(j as u32), M);
        engine.start(&mut ctx);
        deposit(j, &mut ctx);
    }
    loop {
        let mut progressed = false;
        for (j, engine) in engines.iter_mut().enumerate() {
            while let Ok((from, payload)) = chaos[j].recv_timeout(Duration::ZERO) {
                let mut ctx = OutboxCtx::new(ProviderId(j as u32), M);
                engine.on_message(from, &payload, &mut ctx);
                deposit(j, &mut ctx);
                progressed = true;
            }
        }
        if !progressed {
            break; // quiescent: everything deliverable was delivered
        }
    }
    let outcomes = engines
        .iter_mut()
        .map(|engine| {
            engine.force_abort(); // undecided reads ⊥, as in the drive loops
            engine.outcome().expect("decided or aborted")
        })
        .collect();
    (outcomes, chaos.iter().map(ChaosTransport::stats).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite invariant: a session under *any* content-fault plan is
    /// a deterministic function of its seed — same seed, byte-identical
    /// report: identical per-provider outcomes AND identical injected-
    /// fault counters at every provider.
    #[test]
    fn any_fault_plan_replays_byte_identically_under_deterministic_drive(
        seed in any::<u64>(),
        drop in 0.0..0.3f64,
        dup in 0.0..0.3f64,
        corrupt in 0.0..0.3f64,
    ) {
        let plan = FaultPlan::seeded(seed).with_drop(drop).with_duplicate(dup).with_corrupt(corrupt);
        let first = deterministic_run(plan, seed);
        let second = deterministic_run(plan, seed);
        prop_assert_eq!(&first, &second);
        // And a benign plan on the same drive clears with no fault ever
        // injected — outcome-identical to an unwrapped run.
        let (clean, stats) = deterministic_run(FaultPlan::seeded(seed), seed);
        prop_assert!(clean.iter().all(|o| !o.is_abort()));
        prop_assert!(stats.iter().all(|s| s.total() == 0));
    }
}
