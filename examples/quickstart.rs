//! Quickstart: run a fully distributed double auction among three
//! providers and print the outcome.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use dauctioneer::core::{run_session, DoubleAuctionProgram, FrameworkConfig, RunError, RunOptions};
use dauctioneer::types::{BidVector, Bw, Money, ProviderAsk, ProviderId, UserBid, UserId};

fn main() -> Result<(), RunError> {
    // Three gateway owners jointly simulate the auctioneer (k = 1: any
    // single provider may deviate without being able to cheat the rest).
    let m = 3;
    let cfg = FrameworkConfig::new(m, 1, 4, 2);

    // Four users bid for bandwidth at two gateways.
    let bids = BidVector::builder(4, 2)
        .user_bid(0, UserBid::new(Money::from_f64(1.20), Bw::from_f64(0.6)))
        .user_bid(1, UserBid::new(Money::from_f64(1.05), Bw::from_f64(0.4)))
        .user_bid(2, UserBid::new(Money::from_f64(0.90), Bw::from_f64(0.7)))
        .user_bid(3, UserBid::new(Money::from_f64(0.80), Bw::from_f64(0.3)))
        .provider_ask(0, ProviderAsk::new(Money::from_f64(0.15), Bw::from_f64(1.0)))
        .provider_ask(1, ProviderAsk::new(Money::from_f64(0.45), Bw::from_f64(1.0)))
        .build();

    // Every provider collected the same bids; the protocol agrees on them,
    // validates the agreement, and replicates the allocation algorithm.
    let report = run_session(
        &cfg,
        Arc::new(DoubleAuctionProgram::new()),
        vec![bids.clone(); m],
        &RunOptions::default(),
    )?;

    let outcome = report.unanimous();
    println!(
        "session finished in {:?} using {} messages",
        report.elapsed,
        report.traffic.total_messages()
    );
    let Some(result) = outcome.as_result() else {
        println!("outcome: ⊥ (aborted)");
        return Ok(());
    };
    println!("outcome: agreed allocation");
    for user in UserId::all(4) {
        let got = result.allocation.user_total(user);
        let paid = result.payments.user_payment(user);
        println!("  {user}: allocated {got} bandwidth units, pays {paid}");
    }
    for provider in ProviderId::all(2) {
        let sold = result.allocation.provider_total(provider);
        let revenue = result.payments.provider_revenue(provider);
        println!("  {provider}: serves {sold} bandwidth units, receives {revenue}");
    }
    println!("budget surplus (buyers pay − sellers receive): {}", result.payments.budget_surplus());
    assert!(result.payments.is_budget_balanced());
    Ok(())
}
