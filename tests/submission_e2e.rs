//! End-to-end submission path: the §3.2 collection rules — late,
//! duplicate, invalid, and missing bids becoming ⊥ — flowing through
//! `submission::BidCollector` into a **full distributed session**, and
//! through the continuous market service, with the ⊥ substitutions
//! visible in the final unanimous outcome.
//!
//! The collector rules were previously unit-tested in isolation; these
//! tests close the gap to the paper: the substituted ⊥ entries must
//! survive bid agreement and the replicated allocator, i.e. a bidder
//! that submitted late/invalid/never can not win, and a duplicate
//! submission's *first* bid is the one the market clears.

use std::sync::Arc;
use std::time::Duration;

use dauctioneer::core::{
    run_session, BidCollector, DoubleAuctionProgram, FrameworkConfig, RunOptions, SubmissionOutcome,
};
use dauctioneer::market::{EpochPolicy, MarketConfig, MarketService};
use dauctioneer::types::{BidVector, Bw, Money, Outcome, ProviderAsk, UserBid, UserId};

fn valid(valuation: f64) -> UserBid {
    UserBid::new(Money::from_f64(valuation), Bw::from_f64(0.5))
}

fn asks() -> [ProviderAsk; 3] {
    [
        ProviderAsk::new(Money::from_f64(0.10), Bw::from_f64(1.0)),
        ProviderAsk::new(Money::from_f64(0.20), Bw::from_f64(1.0)),
        ProviderAsk::new(Money::from_f64(0.30), Bw::from_f64(1.0)),
    ]
}

/// Run the §3.2 gauntlet into one collector and return the closed
/// vector every provider will input to bid agreement.
///
/// Slots: 0 = valid, 1 = invalid (⊥), 2 = duplicate (first kept),
/// 3 = late (⊥), 4 = never submitted (⊥), 5 = valid.
fn collect_gauntlet() -> BidVector {
    let mut c = BidCollector::new(6, 3);
    assert_eq!(c.submit(UserId(0), valid(1.20)), SubmissionOutcome::Accepted);
    // Invalid: zero valuation. The slot stays ⊥ and the submission is burnt.
    assert_eq!(
        c.submit(UserId(1), UserBid::new(Money::ZERO, Bw::from_f64(0.5))),
        SubmissionOutcome::RejectedInvalid
    );
    assert_eq!(c.submit(UserId(1), valid(1.25)), SubmissionOutcome::RejectedDuplicate);
    // Duplicate: the FIRST (high) bid is kept, the second (low) discarded.
    assert_eq!(c.submit(UserId(2), valid(1.10)), SubmissionOutcome::Accepted);
    assert_eq!(c.submit(UserId(2), valid(0.01)), SubmissionOutcome::RejectedDuplicate);
    assert_eq!(c.submit(UserId(5), valid(1.00)), SubmissionOutcome::Accepted);
    for (slot, ask) in asks().into_iter().enumerate() {
        c.set_ask(slot, ask);
    }
    let bids = c.close();
    // Late: after the deadline. Slot 3 stays ⊥.
    assert_eq!(c.submit(UserId(3), valid(1.30)), SubmissionOutcome::RejectedLate);
    bids
}

#[test]
fn collector_bottoms_survive_a_full_session() {
    let bids = collect_gauntlet();
    // The closed vector carries exactly the substitutions the paper mandates.
    assert!(bids.user_bid(UserId(0)).is_valid());
    assert!(!bids.user_bid(UserId(1)).is_valid(), "invalid ⇒ ⊥");
    assert!(bids.user_bid(UserId(2)).is_valid());
    assert!(!bids.user_bid(UserId(3)).is_valid(), "late ⇒ ⊥");
    assert!(!bids.user_bid(UserId(4)).is_valid(), "missing ⇒ ⊥");
    assert_eq!(
        bids.user_bid(UserId(2)).as_bid().unwrap().valuation(),
        Money::from_f64(1.10),
        "duplicate keeps the first submission"
    );

    // Now the full distributed pipeline: 3 providers, bid agreement,
    // validation, replicated allocation.
    let cfg = FrameworkConfig::new(3, 1, 6, 3);
    let report = run_session(
        &cfg,
        Arc::new(DoubleAuctionProgram::new()),
        vec![bids; 3],
        &RunOptions::default(),
    )
    .unwrap();
    let outcome = report.unanimous();
    let result = outcome.as_result().expect("honest session clears");

    // The ⊥-substituted bidders cannot win anything…
    for u in [1u32, 3, 4] {
        assert!(
            result.allocation.user_total(UserId(u)).is_zero(),
            "user {u} was ⊥-substituted and must not win"
        );
        assert_eq!(result.payments.user_payment(UserId(u)), Money::ZERO);
    }
    // …while the surviving valid bidders trade.
    assert!(
        !result.allocation.winners().is_empty(),
        "valid bids must still clear against the asks"
    );
    for winner in result.allocation.winners() {
        assert!([UserId(0), UserId(2), UserId(5)].contains(&winner));
    }
}

#[test]
fn duplicate_first_bid_decides_the_outcome() {
    // Same gauntlet, but user 2's submissions arrive the other way
    // round: the kept FIRST bid is now the 0.01 lowball, so user 2 must
    // lose the auction it previously won.
    let mut c = BidCollector::new(6, 3);
    c.submit(UserId(0), valid(1.20));
    c.submit(UserId(2), valid(0.01)); // first: kept
    c.submit(UserId(2), valid(1.10)); // second: discarded
    c.submit(UserId(5), valid(1.00));
    for (slot, ask) in asks().into_iter().enumerate() {
        c.set_ask(slot, ask);
    }
    let bids = c.close();
    let cfg = FrameworkConfig::new(3, 1, 6, 3);
    let report = run_session(
        &cfg,
        Arc::new(DoubleAuctionProgram::new()),
        vec![bids; 3],
        &RunOptions::default(),
    )
    .unwrap();
    let result = report.unanimous().as_result().expect("clears").clone();
    assert!(result.allocation.user_total(UserId(2)).is_zero(), "the kept lowball bid must lose");
}

/// The same gauntlet streamed through the continuous market produces
/// the same unanimous outcome as the direct collector → run_session
/// path: the service's ingestion is the collector, end to end.
#[test]
fn market_service_matches_direct_collector_path() {
    let mut config = MarketConfig::new(3, 1, 6, 3)
        // Count accepted bids only: the gauntlet accepts exactly 3.
        .with_epoch(EpochPolicy::ByCount(3))
        .with_asks(asks().to_vec());
    config.seed = 4242;
    let mut market =
        MarketService::start(config, Arc::new(DoubleAuctionProgram::new())).expect("valid");
    let outcomes = market.take_outcomes().unwrap();
    let handle = market.handle();

    handle.submit_bid(UserId(0), valid(1.20)).unwrap();
    handle.submit_bid(UserId(1), UserBid::new(Money::ZERO, Bw::from_f64(0.5))).unwrap(); // invalid
    handle.submit_bid(UserId(1), valid(1.25)).unwrap(); // duplicate of a burnt slot
    handle.submit_bid(UserId(2), valid(1.10)).unwrap();
    handle.submit_bid(UserId(2), valid(0.01)).unwrap(); // duplicate, discarded
    handle.submit_bid(UserId(5), valid(1.00)).unwrap(); // 3rd accepted: closes epoch

    let epoch = outcomes.recv_timeout(Duration::from_secs(30)).expect("epoch closes");
    assert_eq!(epoch.accepted_bids, 3);

    // The epoch's closed vector equals the direct collector's (modulo
    // the late submission, which the epoch never saw).
    let direct = {
        let mut c = BidCollector::new(6, 3);
        c.submit(UserId(0), valid(1.20));
        c.submit(UserId(1), UserBid::new(Money::ZERO, Bw::from_f64(0.5)));
        c.submit(UserId(1), valid(1.25));
        c.submit(UserId(2), valid(1.10));
        c.submit(UserId(2), valid(0.01));
        c.submit(UserId(5), valid(1.00));
        for (slot, ask) in asks().into_iter().enumerate() {
            c.set_ask(slot, ask);
        }
        c.close()
    };
    assert_eq!(epoch.bids, direct, "market ingestion IS the collector");

    // And the epoch outcome equals the one-shot session over that vector.
    let cfg = FrameworkConfig::new(3, 1, 6, 3).with_session(epoch.session);
    let replay = run_session(
        &cfg,
        Arc::new(DoubleAuctionProgram::new()),
        vec![direct; 3],
        &RunOptions { seed: epoch.seed, ..RunOptions::default() },
    )
    .unwrap();
    assert_eq!(replay.unanimous(), epoch.outcome);
    assert!(!matches!(epoch.outcome, Outcome::Abort));

    let stats = market.shutdown();
    assert_eq!(stats.bids_accepted, 3);
    assert_eq!(stats.bids_rejected_invalid, 1);
    assert_eq!(stats.bids_rejected_duplicate, 2);
}
