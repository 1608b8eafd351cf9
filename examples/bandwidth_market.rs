//! The paper's case study (§5): gateway-bandwidth reservation in a
//! community network.
//!
//! Eight gateway owners (the community members with Internet uplinks)
//! jointly run the auctioneer for a double auction over their uplink
//! bandwidth, under the §6.2 workload, with realistic community-network
//! link latencies on the simulator's virtual clock (`SchedulePolicy::Timed`).
//!
//! ```text
//! cargo run --release --example bandwidth_market
//! ```

use std::sync::Arc;

use dauctioneer::core::{DoubleAuctionProgram, FrameworkConfig};
use dauctioneer::mechanisms::baselines::double_welfare;
use dauctioneer::sim::{run_auction_sim, LinkModel, SchedulePolicy};
use dauctioneer::types::ProviderId;
use dauctioneer::workload::DoubleAuctionWorkload;

fn main() {
    let gateways = 8; // providers: community members with Internet uplinks
    let households = 120; // users requesting bandwidth reservations
    let k = 2; // tolerate coalitions of up to 2 gateway owners
    let simulators = 5; // 2k+1 gateways run the simulation (§6.2)

    println!(
        "community network: {households} households bidding for uplink at {gateways} gateways"
    );
    println!("distributed auctioneer: {simulators} simulators, coalition bound k = {k}\n");

    let bids = DoubleAuctionWorkload::new(households, gateways, 2024).generate();
    let cfg = FrameworkConfig::new(simulators, k, households, gateways);

    let report = run_auction_sim(
        &cfg,
        Arc::new(DoubleAuctionProgram::new()),
        vec![bids.clone(); simulators],
        &[],
        SchedulePolicy::Timed(LinkModel::community_net()),
        7,
    )
    .expect("valid run");

    let outcome = report.unanimous();
    let Some(result) = outcome.as_result() else {
        println!("outcome: ⊥ — the auction is void");
        return;
    };

    let winners = result.allocation.winners();
    println!(
        "auction cleared in {:?} (virtual time over community-network links)",
        report.span.expect("all gateways decided")
    );
    println!("traffic: {} messages, {} bytes across the mesh", report.delivered, report.bytes);
    println!(
        "{} of {households} households receive bandwidth; social welfare = {}",
        winners.len(),
        double_welfare(&bids, &result.allocation)
    );
    println!("budget surplus kept by the community fund: {}\n", result.payments.budget_surplus());

    println!("per-gateway load:");
    for gw in ProviderId::all(gateways) {
        let sold = result.allocation.provider_total(gw);
        let cap = bids.provider_ask(gw).capacity();
        let revenue = result.payments.provider_revenue(gw);
        let pct = if cap.is_zero() { 0.0 } else { 100.0 * sold.as_f64() / cap.as_f64() };
        println!("  {gw}: {sold} / {cap} units ({pct:.0}% utilised), revenue {revenue}");
    }
    assert!(result.payments.is_budget_balanced());
}
