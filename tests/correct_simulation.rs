//! Definition 1 of the paper: the distributed simulation must produce the
//! outcome the trusted auctioneer would have produced on the agreed bids.
//!
//! These tests run the *full protocol stack* (bid agreement → validation →
//! coin, for the standard auction that reads it → task graph) in the
//! deterministic simulator and compare against centralised executions of
//! the same allocation algorithms.

use std::sync::Arc;

use dauctioneer::core::{
    Adversary, AdversaryKind, ConfigError, DoubleAuctionProgram, FrameworkConfig, RunError,
    StandardAuctionProgram,
};
use dauctioneer::mechanisms::props::{feasibility_violations, rationality_violations};
use dauctioneer::mechanisms::solver::{solve_exhaustive, Instance};
use dauctioneer::mechanisms::{
    baselines::standard_welfare, DoubleAuction, Mechanism, SharedRng, StandardAuction,
    StandardAuctionConfig,
};
use dauctioneer::sim::{run_auction_sim, SchedulePolicy};
use dauctioneer::types::{
    BidVector, Bw, Money, Outcome, ProviderAsk, ProviderId, SessionId, UserBid,
};
use dauctioneer::workload::{DoubleAuctionWorkload, StandardAuctionWorkload};

/// The double auction is deterministic, so the distributed outcome must
/// *equal* the centralised one — the strongest form of Definition 1.
#[test]
fn distributed_double_auction_equals_centralised() {
    for seed in 0..5u64 {
        let bids = DoubleAuctionWorkload::new(20, 4, seed).generate();
        let m = 3;
        let cfg = FrameworkConfig::new(m, 1, 20, 4);
        let report = run_auction_sim(
            &cfg,
            Arc::new(DoubleAuctionProgram::new()),
            vec![bids.clone(); m],
            &[],
            SchedulePolicy::SeededRandom(seed),
            seed,
        )
        .unwrap();
        let distributed = report.unanimous();
        let centralised = DoubleAuction::new().run(&bids, &SharedRng::from_material(b"anything"));
        assert_eq!(
            distributed,
            Outcome::Agreed(centralised),
            "distributed outcome must equal the trusted auctioneer's (seed {seed})"
        );
    }
}

/// With an exact solver, the distributed standard auction must find the
/// true optimum and charge VCG payments satisfying feasibility and
/// individual rationality.
#[test]
fn distributed_standard_auction_is_exact_and_rational() {
    for seed in 0..3u64 {
        let (bids, capacities) = StandardAuctionWorkload::new(8, 2, seed).generate();
        let auction = StandardAuction::new(StandardAuctionConfig::exact(capacities.clone()));
        let m = 3;
        let cfg = FrameworkConfig::new(m, 1, 8, 0);
        let report = run_auction_sim(
            &cfg,
            Arc::new(StandardAuctionProgram::new(auction)),
            vec![bids.clone(); m],
            &[],
            SchedulePolicy::Fifo,
            seed * 100,
        )
        .unwrap();
        let outcome = report.unanimous();
        let result = outcome.as_result().expect("honest run agrees");

        // Optimal welfare, verified against exhaustive enumeration.
        let optimum = solve_exhaustive(&Instance::from_bids(&bids, &capacities)).welfare;
        assert_eq!(
            standard_welfare(&bids, &result.allocation),
            optimum,
            "distributed run must find the optimum (seed {seed})"
        );
        assert!(feasibility_violations(&bids, result, Some(&capacities)).is_empty());
        assert!(rationality_violations(&bids, result).is_empty());
    }
}

/// The protocol itself is deterministic given seeds: two identical
/// sessions decide identically (replicated state machines cannot diverge).
#[test]
fn sessions_are_reproducible() {
    let bids = DoubleAuctionWorkload::new(15, 3, 9).generate();
    let m = 3;
    let cfg = FrameworkConfig::new(m, 1, 15, 3);
    let run = || {
        run_auction_sim(
            &cfg,
            Arc::new(DoubleAuctionProgram::new()),
            vec![bids.clone(); m],
            &[],
            SchedulePolicy::SeededRandom(5),
            77,
        )
        .unwrap()
        .unanimous()
    };
    assert_eq!(run(), run());
}

/// Validity (§4.1): bids submitted consistently to every provider survive
/// bid agreement verbatim, even when other bidders equivocate arbitrarily.
#[test]
fn consistent_bids_survive_equivocating_bidders() {
    let m = 3;
    let honest_bid = UserBid::new(Money::from_f64(1.2), Bw::from_f64(0.5));
    let views: Vec<BidVector> = (0..m)
        .map(|j| {
            BidVector::builder(2, 1)
                .user_bid(0, honest_bid)
                // User 1 tells every provider something different.
                .user_bid(
                    1,
                    UserBid::new(Money::from_f64(0.8 + 0.07 * j as f64), Bw::from_f64(0.3)),
                )
                .provider_ask(0, ProviderAsk::new(Money::from_f64(0.1), Bw::from_f64(9.0)))
                .build()
        })
        .collect();
    let cfg = FrameworkConfig::new(m, 1, 2, 1);
    let report = run_auction_sim(
        &cfg,
        Arc::new(DoubleAuctionProgram::new()),
        views,
        &[],
        SchedulePolicy::SeededRandom(3),
        123,
    )
    .unwrap();
    let outcome = report.unanimous();
    assert!(!outcome.is_abort(), "bidder-level misbehaviour must not abort the auction");
}

/// Paper §6: the minimum provider counts for each coalition bound are
/// 3, 5 and 7 (m > 2k); the configured parallelism matches Fig. 5's p.
#[test]
fn configuration_matches_paper_parameters() {
    assert!(FrameworkConfig::new(3, 1, 1, 0).validate().is_ok());
    assert!(FrameworkConfig::new(5, 2, 1, 0).validate().is_ok());
    assert!(FrameworkConfig::new(8, 3, 1, 0).validate().is_ok());
    assert!(FrameworkConfig::new(2, 1, 1, 0).validate().is_err());
    assert_eq!(FrameworkConfig::new(8, 1, 1, 0).parallelism(), 4);
    assert_eq!(FrameworkConfig::new(8, 3, 1, 0).parallelism(), 2);
}

/// A simulated run the threaded runtime would refuse is refused with the
/// same [`RunError`], never a panic: `cfg` with `m` providers, `views`
/// collected bid vectors and `adversaries`.
fn refused(cfg: FrameworkConfig, views: usize, adversaries: &[Adversary]) -> RunError {
    let bids = DoubleAuctionWorkload::new(4, 3, 1).generate();
    let program = Arc::new(DoubleAuctionProgram::new());
    let policy = SchedulePolicy::Fifo;
    run_auction_sim(&cfg, program, vec![bids; views], adversaries, policy, 1).unwrap_err()
}

#[test]
fn a_simulated_run_with_m_not_above_2k_is_a_framework_error() {
    let err = refused(FrameworkConfig::new(2, 1, 4, 3), 2, &[]);
    assert!(matches!(err, RunError::Framework(ConfigError::TooFewProviders { m: 2, k: 1 })));
}

#[test]
fn a_simulated_run_with_the_wrong_collected_length_is_an_error() {
    let cfg = FrameworkConfig::new(3, 1, 4, 3).with_session(SessionId(9));
    let err = refused(cfg, 2, &[]);
    assert!(matches!(err, RunError::CollectedLength(SessionId(9))), "{err}");
}

#[test]
fn a_simulated_adversary_outside_the_mesh_is_an_error() {
    let outside = [Adversary::new(ProviderId(4), AdversaryKind::Replay)];
    let err = refused(FrameworkConfig::new(3, 1, 4, 3), 3, &outside);
    assert!(matches!(err, RunError::AdversaryOutOfRange { provider: 4, m: 3 }), "{err}");
}
