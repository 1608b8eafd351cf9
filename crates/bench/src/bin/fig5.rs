//! **Figure 5** (§6.3): standard-auction running time as a function of
//! the number of users, for p = 1 (centralised sequential execution),
//! p = 2 (m = 8, k = 3) and p = 4 (m = 8, k = 1).
//!
//! Expected shape (paper): running time grows sharply with `n` (the
//! feasible-allocation space of the welfare-maximisation problem
//! explodes; the reference algorithm is ≈ O(m·n⁹/ε²)); the distributed
//! runs *beat* the centralised one because the VCG payment computations —
//! one NP-hard solve per winner — parallelise across provider groups:
//! p = 4 is roughly 4× faster than p = 1 at the top of the sweep.
//!
//! The branch-and-bound search budget grows as `2n³` nodes per solve,
//! mirroring the polynomial search effort of the paper's (1−ε)-optimal
//! algorithm (`docs/ARCHITECTURE.md`, "Why the budget is counted in
//! nodes"). Distributed times are virtual-clock spans
//! (one CPU per provider, as on the paper's testbed). Usage:
//!
//! ```text
//! cargo run --release -p dauctioneer-bench --bin fig5 [--csv] [--quick] [--rounds N]
//! ```

use std::sync::Arc;
use std::time::Duration;

use dauctioneer_bench::{fmt_secs, time_once, CommonArgs, Stats, Table};
use dauctioneer_core::{FrameworkConfig, StandardAuctionProgram};
use dauctioneer_mechanisms::solver::BranchBoundConfig;
use dauctioneer_mechanisms::{Mechanism, SharedRng, StandardAuction, StandardAuctionConfig};
use dauctioneer_sim::{run_auction_sim, LinkModel, SchedulePolicy};
use dauctioneer_types::Bw;
use dauctioneer_workload::StandardAuctionWorkload;

/// §6.3 series: (label, k) with m = 8 ⇒ p = ⌊8/(k+1)⌋.
const SERIES: &[(&str, usize)] = &[("p=2 (k=3)", 3), ("p=4 (k=1)", 1)];
/// m = 8 providers simulate; the auction also has 8 capacity holders.
const M: usize = 8;

/// Search budget per solve: grows polynomially with n like the reference
/// algorithm's smoothed-complexity bound.
fn node_budget(n: usize) -> u64 {
    (2 * n as u64 * n as u64 * n as u64).max(50_000)
}

fn auction_for(capacities: Vec<Bw>, n: usize) -> StandardAuction {
    StandardAuction::new(StandardAuctionConfig {
        capacities,
        solver: BranchBoundConfig {
            epsilon_ppm: 10_000, // ε = 1%
            max_nodes: node_budget(n),
            shuffle_providers: true,
        },
    })
}

fn main() {
    let args = CommonArgs::parse(2);
    let ns: Vec<usize> = if args.quick { vec![25, 50, 75] } else { vec![25, 50, 75, 100, 125] };

    eprintln!(
        "fig5: standard auction (VCG, branch-and-bound with budget 2n^3), \
         centralised vs parallelised, {} rounds each",
        args.rounds
    );
    let mut table =
        Table::new(&["n", "p=1 (centralised)", "p=2 (k=3)", "p=4 (k=1)", "winners"], args.csv);

    for &n in &ns {
        let mut cells = vec![n.to_string()];
        let mut winners = 0usize;

        // p = 1: the sequential trusted-auctioneer execution.
        let central = (0..args.rounds)
            .map(|r| {
                let (bids, capacities) = StandardAuctionWorkload::new(n, M, r as u64).generate();
                let auction = auction_for(capacities, n);
                let shared = SharedRng::from_material(&(r as u64).to_le_bytes());
                let (result, d) = time_once(|| auction.run(&bids, &shared));
                winners = result.allocation.winners().len();
                d
            })
            .collect::<Vec<Duration>>();
        cells.push(render(Stats::of(&central).mean_s, args.csv));

        for &(_, k) in SERIES {
            let spans = (0..args.rounds)
                .map(|r| {
                    let (bids, capacities) =
                        StandardAuctionWorkload::new(n, M, r as u64).generate();
                    let auction = auction_for(capacities, n);
                    let cfg = FrameworkConfig::new(M, k, n, 0);
                    let report = run_auction_sim(
                        &cfg,
                        Arc::new(StandardAuctionProgram::new(auction)),
                        vec![bids; M],
                        &[],
                        SchedulePolicy::Timed(LinkModel::community_net()),
                        2000 + r as u64,
                    );
                    assert!(!report.unanimous().is_abort(), "honest run aborted (n={n}, k={k})");
                    report.span.expect("all providers decided")
                })
                .collect::<Vec<Duration>>();
            cells.push(render(Stats::of(&spans).mean_s, args.csv));
        }
        cells.push(winners.to_string());
        table.row(cells);
        eprint!(".");
    }
    eprintln!();
    println!("{}", table.render());
    println!(
        "# paper's Figure 5 shape: sharp superlinear growth in n; the parallelised runs\n\
         # beat the centralised one, p=4 by roughly 4x at the top of the sweep."
    );
}

fn render(mean_s: f64, csv: bool) -> String {
    if csv {
        format!("{mean_s:.6}")
    } else {
        fmt_secs(mean_s)
    }
}
