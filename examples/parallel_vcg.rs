//! Parallelising the VCG standard auction (§5.2.2 / Algorithm 1).
//!
//! Runs the same computation-heavy standard auction three ways — as a
//! centralised trusted auctioneer, and distributed with p = 2 and p = 4
//! parallel payment groups — and prints the timing comparison, the
//! miniature version of the paper's Figure 5 experiment.
//!
//! ```text
//! cargo run --release --example parallel_vcg
//! ```

use std::sync::Arc;
use std::time::Instant;

use dauctioneer::core::{FrameworkConfig, StandardAuctionProgram};
use dauctioneer::mechanisms::solver::BranchBoundConfig;
use dauctioneer::mechanisms::{Mechanism, SharedRng, StandardAuction, StandardAuctionConfig};
use dauctioneer::sim::{run_auction_sim, LinkModel, SchedulePolicy};
use dauctioneer::workload::StandardAuctionWorkload;

fn main() {
    let n = 60; // users
    let m = 8; // providers (capacity holders and simulators)
    let (bids, capacities) = StandardAuctionWorkload::new(n, m, 99).generate();
    let auction = StandardAuction::new(StandardAuctionConfig {
        capacities,
        solver: BranchBoundConfig {
            epsilon_ppm: 10_000, // ε = 1%
            max_nodes: 500_000,  // search budget per solve
            shuffle_providers: true,
        },
    });

    // Centralised run (p = 1): one machine does everything.
    let started = Instant::now();
    let central = auction.run(&bids, &SharedRng::from_material(b"example"));
    let central_time = started.elapsed();
    let winners = central.allocation.winners().len();
    println!("standard auction: n = {n} users, m = {m} providers, {winners} winners");
    println!(
        "p=1 centralised: {central_time:?} (1 allocation solve + {winners} VCG payment solves)"
    );

    // Distributed runs: the payment solves spread across provider groups.
    for (k, label) in [(3usize, "p=2 (k=3)"), (1usize, "p=4 (k=1)")] {
        let cfg = FrameworkConfig::new(m, k, n, 0);
        let report = run_auction_sim(
            &cfg,
            Arc::new(StandardAuctionProgram::new(auction.clone())),
            vec![bids.clone(); m],
            &[],
            SchedulePolicy::Timed(LinkModel::community_net()),
            42,
        );
        let outcome = report.unanimous();
        assert!(!outcome.is_abort(), "honest run must not abort");
        let span = report.span.expect("all providers decided");
        println!(
            "{label}: {span:?} (virtual wall-clock, {} groups × ≥{} replicas each)",
            cfg.parallelism(),
            k + 1
        );
        // The distributed outcome pays the same winners (same agreed bids,
        // same coin-driven solver budget — welfare may differ only within ε).
        let result = outcome.as_result().unwrap();
        assert_eq!(result.allocation.num_users(), n);
    }
    println!("\nthe distributed runs beat the centralised one because the VCG payment");
    println!("computations (one NP-hard solve per winner) run in parallel groups,");
    println!("while the framework's agreement overhead stays in the milliseconds.");
}
