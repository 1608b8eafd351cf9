//! A full distributed auction over real TCP sockets.
//!
//! Three provider threads bring up a loopback TCP mesh — every frame
//! crosses the kernel network stack, exactly as it would between hosts
//! on a LAN — and each drives its own `SessionEngine` to a decision. The
//! engines cannot tell this transport from the in-process one; outcomes
//! match `cargo run --example quickstart` bid-for-bid.
//!
//! ```text
//! cargo run --release --example tcp_market
//! ```

use std::sync::Arc;
use std::time::Duration;

use dauctioneer::core::{drive, DoubleAuctionProgram, FrameworkConfig, SessionEngine};
use dauctioneer::net::MuxMesh;
use dauctioneer::types::{BidVector, Bw, Money, ProviderAsk, ProviderId, UserBid, UserId};

fn main() {
    // Three gateway owners jointly simulate the auctioneer (k = 1), this
    // time talking over real sockets.
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

    // Bring up the socket mesh: one TCP connection per provider pair,
    // carrying a single lane.
    let mut mesh = MuxMesh::loopback(m, 1).expect("bring up loopback TCP mesh");
    let metrics = mesh.metrics();
    let endpoints = mesh.take_lane_endpoints().remove(0);
    println!("TCP mesh up: {m} providers, {} connections", m * (m - 1) / 2);

    // One thread per provider, as on real hardware: build the engine,
    // drive it over the socket endpoint until it decides (or the
    // deadline forces ⊥). Each thread hands its endpoint back instead of
    // closing it: a closed connection would cut short a peer still
    // finishing the session.
    let engines =
        SessionEngine::roster(&cfg, &Arc::new(DoubleAuctionProgram::new()), vec![bids; m], 42);
    let handles: Vec<_> = engines
        .into_iter()
        .zip(endpoints)
        .map(|(mut engine, mut endpoint)| {
            std::thread::spawn(move || {
                let outcome = drive(&mut engine, &mut endpoint, Duration::from_secs(60));
                ((engine.me(), outcome), endpoint)
            })
        })
        .collect();

    let (outcomes, _endpoints): (Vec<_>, Vec<_>) =
        handles.into_iter().map(|h| h.join().expect("provider thread")).unzip();
    let snapshot = metrics.snapshot();
    println!(
        "session finished: {} messages, {} bytes over TCP",
        snapshot.total_messages(),
        snapshot.total_bytes()
    );

    // Definition 1: the auction stands iff every provider decided the
    // same valid pair.
    let unanimous = dauctioneer::core::unanimous(outcomes.iter().map(|(_, o)| Some(o)));
    for (who, outcome) in &outcomes {
        println!("  {who}: {}", if outcome.is_abort() { "⊥" } else { "agreed" });
    }
    let Some(result) = unanimous.as_result() else {
        println!("outcome: ⊥ (aborted)");
        return;
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
    assert!(result.payments.is_budget_balanced());
}
