//! End-to-end sessions on the *threaded* runtime: real threads, real
//! channels, community-network link delay — the deployment-shaped path.

use std::sync::Arc;
use std::time::Duration;

use dauctioneer::core::{
    run_batch_with, run_session, AdversaryKind, BatchConfig, BatchReport, BatchSession,
    ConfigError, DoubleAuctionProgram, FrameworkConfig, RunError, RunOptions, SessionPool,
    StandardAuctionProgram,
};
use dauctioneer::market::{MarketConfig, MarketError};
use dauctioneer::mechanisms::props::{feasibility_violations, rationality_violations};
use dauctioneer::mechanisms::{StandardAuction, StandardAuctionConfig};
use dauctioneer::net::FaultPlan;
use dauctioneer::types::{BidVector, ProviderId, SessionId};
use dauctioneer::workload::{DoubleAuctionWorkload, StandardAuctionWorkload};

/// Runs one double-auction session of `bids` over `batch`.
fn run_double_auction(cfg: &FrameworkConfig, bids: &BidVector, batch: &BatchConfig) -> BatchReport {
    let session = BatchSession::uniform(SessionId(0), bids.clone(), cfg.m, 3);
    let options = RunOptions { deadline: Duration::from_secs(30), ..RunOptions::default() };
    let program = Arc::new(DoubleAuctionProgram::new());
    run_batch_with(cfg, program, vec![session], &options, batch).unwrap()
}

/// Community-network link delay, run as a chaos delay plan on the
/// in-process hub, decides the zero-latency outcome with the same message
/// and byte totals.
#[test]
fn double_auction_over_threads_with_latency() {
    let (m, n) = (3, 40);
    let bids = DoubleAuctionWorkload::new(n, m, 5).generate();
    let cfg = FrameworkConfig::new(m, 1, n, m);
    let batch = BatchConfig::default().with_chaos(FaultPlan::community_net(3));
    let report = run_double_auction(&cfg, &bids, &batch);
    let outcome = report.sessions[0].unanimous();
    let result = outcome.as_result().expect("threaded session must agree");
    assert!(feasibility_violations(&bids, result, None).is_empty());
    assert!(rationality_violations(&bids, result).is_empty());
    assert!(result.payments.is_budget_balanced());
    assert!(report.traffic.total_messages() > 0);
    let zero = run_double_auction(&cfg, &bids, &BatchConfig::default());
    assert_eq!(zero.sessions[0].unanimous(), outcome);
    assert_eq!(report.traffic.total_messages(), zero.traffic.total_messages());
    assert_eq!(report.traffic.total_bytes(), zero.traffic.total_bytes());
}

/// The same delay plan composes with TCP: the session decides the
/// zero-latency outcome with the same message and byte totals.
#[test]
fn tcp_with_community_latency_decides_the_zero_latency_outcome() {
    let (m, n) = (3, 40);
    let bids = DoubleAuctionWorkload::new(n, m, 5).generate();
    let cfg = FrameworkConfig::new(m, 1, n, m);
    let zero = run_double_auction(&cfg, &bids, &BatchConfig::default());
    let batch = BatchConfig::tcp(1).with_chaos(FaultPlan::community_net(3));
    let delayed = run_double_auction(&cfg, &bids, &batch);
    let outcome = delayed.sessions[0].unanimous();
    assert!(outcome.as_result().is_some(), "TCP session with delay must agree");
    assert_eq!(outcome, zero.sessions[0].unanimous());
    assert_eq!(delayed.traffic.total_messages(), zero.traffic.total_messages());
    assert_eq!(delayed.traffic.total_bytes(), zero.traffic.total_bytes());
}

#[test]
fn standard_auction_over_threads() {
    let m = 3;
    let n = 10;
    let (bids, capacities) = StandardAuctionWorkload::new(n, 2, 8).generate();
    let auction = StandardAuction::new(StandardAuctionConfig::exact(capacities.clone()));
    let cfg = FrameworkConfig::new(m, 1, n, 0);
    let report = run_session(
        &cfg,
        Arc::new(StandardAuctionProgram::new(auction)),
        vec![bids.clone(); m],
        &RunOptions::default(),
    )
    .unwrap();
    let outcome = report.unanimous();
    let result = outcome.as_result().expect("threaded session must agree");
    assert!(feasibility_violations(&bids, result, Some(&capacities)).is_empty());
    assert!(rationality_violations(&bids, result).is_empty());
}

#[test]
fn five_providers_tolerating_k2() {
    let m = 5;
    let n = 25;
    let bids = DoubleAuctionWorkload::new(n, m, 11).generate();
    let cfg = FrameworkConfig::new(m, 2, n, m);
    let report = run_session(
        &cfg,
        Arc::new(DoubleAuctionProgram::new()),
        vec![bids; m],
        &RunOptions::default(),
    )
    .unwrap();
    assert!(!report.unanimous().is_abort());
    // All five providers decided identically.
    let first = &report.outcomes[0];
    for o in &report.outcomes {
        assert_eq!(o, first);
    }
}

#[test]
fn successive_sessions_are_isolated() {
    use dauctioneer::types::SessionId;
    // Three consecutive auction rounds with distinct session ids and
    // evolving bids; each must clear independently.
    let m = 3;
    let n = 10;
    let mut last = None;
    for round in 0..3u64 {
        let bids = DoubleAuctionWorkload::new(n, m, 100 + round).generate();
        let cfg = FrameworkConfig::new(m, 1, n, m).with_session(SessionId(round));
        let report = run_session(
            &cfg,
            Arc::new(DoubleAuctionProgram::new()),
            vec![bids; m],
            &RunOptions { seed: round, ..Default::default() },
        )
        .unwrap();
        let outcome = report.unanimous();
        assert!(!outcome.is_abort(), "round {round} aborted");
        if let Some(prev) = &last {
            assert_ne!(&outcome, prev, "rounds with different bids should differ");
        }
        last = Some(outcome);
    }
}

#[test]
fn deadline_produces_abort_not_hang() {
    // One provider's collected bids are fine, but we give the session a
    // zero deadline: providers must give up with ⊥ instead of blocking.
    let m = 3;
    let n = 5;
    let bids = DoubleAuctionWorkload::new(n, m, 1).generate();
    let cfg = FrameworkConfig::new(m, 1, n, m);
    let report = run_session(
        &cfg,
        Arc::new(DoubleAuctionProgram::new()),
        vec![bids; m],
        &RunOptions { deadline: Duration::ZERO, ..Default::default() },
    )
    .unwrap();
    assert!(report.unanimous().is_abort());
}

/// A batch of `tags` over three providers (k = 1), each session with the
/// same bids, run under `options` and `batch`.
fn run_tags(
    tags: &[u64],
    options: &RunOptions,
    batch: &BatchConfig,
) -> Result<BatchReport, RunError> {
    let bids = DoubleAuctionWorkload::new(4, 3, 9).generate();
    let sessions =
        tags.iter().map(|&t| BatchSession::uniform(SessionId(t), bids.clone(), 3, t)).collect();
    let cfg = FrameworkConfig::new(3, 1, 4, 3);
    run_batch_with(&cfg, Arc::new(DoubleAuctionProgram::new()), sessions, options, batch)
}

#[test]
fn m_not_above_2k_is_a_framework_error() {
    let bids = DoubleAuctionWorkload::new(4, 2, 1).generate();
    let cfg = FrameworkConfig::new(2, 1, 4, 2);
    let program = Arc::new(DoubleAuctionProgram::new());
    let err = run_session(&cfg, program, vec![bids; 2], &RunOptions::default()).unwrap_err();
    assert!(matches!(err, RunError::Framework(ConfigError::TooFewProviders { m: 2, k: 1 })));
    assert!(err.to_string().contains("m > 2k required"), "{err}");
}

#[test]
fn an_impossible_fault_plan_is_an_error() {
    let batch = BatchConfig::default().with_chaos(FaultPlan::seeded(1).with_drop(2.0));
    let err = run_tags(&[0], &RunOptions::default(), &batch).unwrap_err();
    assert!(matches!(err, RunError::Chaos(_)), "{err}");
}

#[test]
fn an_adversary_outside_the_mesh_is_an_error() {
    let batch = BatchConfig::default().with_adversary(ProviderId(3), AdversaryKind::Replay);
    let err = run_tags(&[0], &RunOptions::default(), &batch).unwrap_err();
    assert!(matches!(err, RunError::AdversaryOutOfRange { provider: 3, m: 3 }), "{err}");
}

#[test]
fn a_collected_list_of_the_wrong_length_is_an_error() {
    let bids = DoubleAuctionWorkload::new(4, 3, 1).generate();
    let cfg = FrameworkConfig::new(3, 1, 4, 3).with_session(SessionId(7));
    let program = Arc::new(DoubleAuctionProgram::new());
    let err = run_session(&cfg, program, vec![bids; 2], &RunOptions::default()).unwrap_err();
    assert!(matches!(err, RunError::CollectedLength(SessionId(7))), "{err}");
}

#[test]
fn a_duplicate_session_tag_is_an_error() {
    let err = run_tags(&[4, 5, 4], &RunOptions::default(), &BatchConfig::default()).unwrap_err();
    assert!(matches!(err, RunError::DuplicateSession(SessionId(4))), "{err}");
}

#[test]
fn the_market_and_the_pool_refuse_a_mesh_with_the_same_error() {
    for config in [
        MarketConfig::new(2, 1, 4, 1),
        MarketConfig::new(3, 1, 4, 1).with_chaos(FaultPlan::seeded(1).with_corrupt(-0.5)),
        MarketConfig::new(3, 1, 4, 1).with_adversary(ProviderId(5), AdversaryKind::Replay),
    ] {
        let Err(MarketError::Run(market)) = config.validate() else {
            panic!("{config:?} must be refused as a run error");
        };
        let program = Arc::new(DoubleAuctionProgram::new());
        let pool =
            SessionPool::start(&config.framework(), &program, &config.batch(), None).unwrap_err();
        assert_eq!(std::mem::discriminant(&market), std::mem::discriminant(&pool));
        assert_eq!(market.to_string(), pool.to_string());
    }
}
