//! Misbehaving participants and what the framework does about them.
//!
//! Three scenarios on the same auction:
//!
//! 1. an **equivocating bidder** sends different bids to different
//!    providers — bid agreement still converges, and consistent bidders'
//!    bids survive verbatim (validity, §4.1);
//! 2. a **silent bidder** reaches only one provider — consensus resolves
//!    its slot one way or the other, identically everywhere;
//! 3. an **equivocating provider** tampers with its protocol messages —
//!    the deviation is detected and the outcome collapses to ⊥, so the
//!    deviator gains nothing (k-resilience, §3.3).
//!
//! ```text
//! cargo run --release --example byzantine_bidders
//! ```

use std::sync::Arc;

use dauctioneer::core::{Adversary, AdversaryKind, DoubleAuctionProgram, FrameworkConfig};
use dauctioneer::sim::{run_auction_sim, SchedulePolicy};
use dauctioneer::types::{BidVector, Bw, Money, ProviderAsk, ProviderId, UserBid, UserId};

fn base_bids(valuation_of_user0: f64) -> BidVector {
    BidVector::builder(3, 2)
        .user_bid(0, UserBid::new(Money::from_f64(valuation_of_user0), Bw::from_f64(0.5)))
        .user_bid(1, UserBid::new(Money::from_f64(1.0), Bw::from_f64(0.5)))
        .user_bid(2, UserBid::new(Money::from_f64(0.8), Bw::from_f64(0.5)))
        .provider_ask(0, ProviderAsk::new(Money::from_f64(0.1), Bw::from_f64(1.0)))
        .provider_ask(1, ProviderAsk::new(Money::from_f64(0.5), Bw::from_f64(1.0)))
        .build()
}

fn main() {
    let m = 3;
    let cfg = FrameworkConfig::new(m, 1, 3, 2);
    let program = Arc::new(DoubleAuctionProgram::new());

    // 1. Equivocating bidder: user 0 tells each provider a different
    //    valuation. Bid agreement must still converge.
    println!("— scenario 1: user 0 equivocates across providers —");
    let views: Vec<BidVector> = (0..m).map(|j| base_bids(1.1 + 0.05 * j as f64)).collect();
    let report = run_auction_sim(
        &cfg,
        Arc::clone(&program),
        views,
        &[],
        SchedulePolicy::SeededRandom(1),
        11,
    );
    let outcome = report.unanimous();
    println!("  unanimous outcome reached: {}", !outcome.is_abort());
    if let Some(result) = outcome.as_result() {
        // Users 1 and 2 were consistent; their slots survived verbatim, so
        // the auction proceeds for them regardless of user 0's games.
        println!("  consistent user 1 allocated: {}", result.allocation.user_total(UserId(1)));
    }

    // 2. Silent bidder: user 0's bid reached only provider 0.
    println!("— scenario 2: user 0's bid reached only provider 0 —");
    let mut views = vec![base_bids(1.1)];
    views.push(base_bids(1.1).with_user_entry(UserId(0), Default::default()));
    views.push(base_bids(1.1).with_user_entry(UserId(0), Default::default()));
    let report = run_auction_sim(
        &cfg,
        Arc::clone(&program),
        views,
        &[],
        SchedulePolicy::SeededRandom(2),
        22,
    );
    let outcome = report.unanimous();
    println!("  unanimous outcome reached: {}", !outcome.is_abort());

    // 3. Equivocating provider: provider 2 tampers with what it sends to
    //    provider 0. Detection ⇒ ⊥ ⇒ deviator utility 0.
    println!("— scenario 3: provider 2 equivocates at the protocol level —");
    let views: Vec<BidVector> = (0..m).map(|_| base_bids(1.1)).collect();
    let equivocator =
        Adversary::new(ProviderId(2), AdversaryKind::Equivocator { victim: ProviderId(0) });
    let report = run_auction_sim(
        &cfg,
        Arc::clone(&program),
        views,
        &[equivocator],
        SchedulePolicy::SeededRandom(3),
        33,
    );
    println!("  outcome is ⊥ (deviation detected): {}", report.unanimous().is_abort());
    println!("  ⇒ under solution preference, deviating is never profitable.");
}
