//! Degenerate and boundary configurations of the framework.
//!
//! The most interesting one: `m = 1, k = 0` — a single provider running
//! the whole protocol *is* the trusted centralised auctioneer. Every block
//! must degenerate gracefully (no peers to exchange with), and the
//! framework's output must equal a plain mechanism run. This is both a
//! sanity check and the conceptual anchor of the paper: the framework is a
//! strict generalisation of the centralised auctioneer.

use std::sync::Arc;

use dauctioneer_core::{
    Auctioneer, BidCollector, Block, DoubleAuctionProgram, FrameworkConfig, OutboxCtx,
};
use dauctioneer_types::{Bw, Money, Outcome, ProviderAsk, ProviderId, UserBid, UserId};

#[test]
fn single_provider_framework_equals_centralised_auctioneer() {
    // Collect bids the way a provider would (§3.2 deadline semantics).
    let mut collector = BidCollector::new(3, 1);
    collector.submit(UserId(0), UserBid::new(Money::from_f64(1.2), Bw::from_f64(0.5)));
    collector.submit(UserId(1), UserBid::new(Money::from_f64(1.0), Bw::from_f64(0.5)));
    collector.submit(UserId(2), UserBid::new(Money::from_f64(0.8), Bw::from_f64(0.5)));
    collector.set_ask(0, ProviderAsk::new(Money::from_f64(0.1), Bw::from_f64(2.0)));
    let bids = collector.close();

    let cfg = FrameworkConfig::new(1, 0, 3, 1);
    assert!(cfg.validate().is_ok(), "m = 1, k = 0 is a valid configuration");
    let mut auctioneer = Auctioneer::new_seeded(
        cfg,
        ProviderId(0),
        Arc::new(DoubleAuctionProgram::new()),
        bids.clone(),
        1,
    );
    // No peers: the protocol must decide at start, without any messages.
    let mut ctx = OutboxCtx::new(ProviderId(0), 1);
    auctioneer.start(&mut ctx);
    let outcome = auctioneer.outcome().expect("single provider decides immediately");

    // It must equal the direct centralised execution of A on those bids.
    use dauctioneer_mechanisms::{DoubleAuction, Mechanism, SharedRng};
    let centralised = DoubleAuction::new().run(&bids, &SharedRng::from_material(b"any"));
    assert_eq!(outcome, Outcome::Agreed(centralised));
    // And it never needed the network.
    assert!(ctx.drain().is_empty(), "sends to peers are impossible with m = 1");
}

#[test]
fn minimum_viable_coalition_configs_run() {
    // The smallest m for each k (m = 2k + 1) completes an auction.
    use dauctioneer_core::{run_session, RunOptions};
    use dauctioneer_workload::DoubleAuctionWorkload;
    for k in 1..=2usize {
        let m = 2 * k + 1;
        let bids = DoubleAuctionWorkload::new(6, m, k as u64).generate();
        let cfg = FrameworkConfig::new(m, k, 6, m);
        let report = run_session(
            &cfg,
            Arc::new(DoubleAuctionProgram::new()),
            vec![bids; m],
            &RunOptions::default(),
        )
        .unwrap();
        assert!(!report.unanimous().is_abort(), "m = {m}, k = {k} must complete");
    }
}

#[test]
fn zero_users_auction_completes_with_empty_result() {
    use dauctioneer_core::{run_session, RunOptions};
    use dauctioneer_types::BidVector;
    let cfg = FrameworkConfig::new(3, 1, 0, 2);
    let bids = BidVector::all_neutral_with_asks(0, 2);
    let report = run_session(
        &cfg,
        Arc::new(DoubleAuctionProgram::new()),
        vec![bids; 3],
        &RunOptions::default(),
    )
    .unwrap();
    let outcome = report.unanimous();
    let result = outcome.as_result().expect("empty auction still agrees");
    assert!(result.allocation.is_empty());
    assert_eq!(result.payments.total_user_payments(), Money::ZERO);
}

#[test]
fn all_neutral_bids_clear_to_empty_allocation() {
    use dauctioneer_core::{run_session, RunOptions};
    use dauctioneer_types::BidVector;
    let cfg = FrameworkConfig::new(3, 1, 4, 2);
    let bids = BidVector::all_neutral_with_asks(4, 2);
    let report = run_session(
        &cfg,
        Arc::new(DoubleAuctionProgram::new()),
        vec![bids; 3],
        &RunOptions::default(),
    )
    .unwrap();
    let result = report.unanimous().into_result().expect("agrees");
    assert!(result.allocation.is_empty());
}
