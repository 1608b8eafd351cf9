//! Solver calibration helper: measures the centralised standard-auction
//! cost across `n` so the fig5 sweep can be sized sensibly. Not part of
//! the figure set.

use dauctioneer::cli::Flags;
use dauctioneer_bench::{fmt_secs, time_once};
use dauctioneer_mechanisms::solver::BranchBoundConfig;
use dauctioneer_mechanisms::{Mechanism, SharedRng, StandardAuction, StandardAuctionConfig};
use dauctioneer_workload::StandardAuctionWorkload;

fn main() {
    Flags::new("usage: calibrate   centralised standard-auction cost vs n and node budget")
        .parse(std::env::args().skip(1));
    for &n in &[25usize, 50, 75, 100, 125] {
        for &nodes in &[50_000u64, 200_000, 1_000_000] {
            let (bids, capacities) = StandardAuctionWorkload::new(n, 8, 42).generate();
            let auction = StandardAuction::new(StandardAuctionConfig {
                capacities,
                solver: BranchBoundConfig {
                    epsilon_ppm: 10_000,
                    max_nodes: nodes,
                    shuffle_providers: true,
                },
            });
            let shared = SharedRng::from_material(b"calibrate");
            let (result, elapsed) = time_once(|| auction.run(&bids, &shared));
            println!(
                "n={n:4} nodes={nodes:>9} winners={:3} time={}",
                result.allocation.winners().len(),
                fmt_secs(elapsed.as_secs_f64())
            );
        }
    }
}
