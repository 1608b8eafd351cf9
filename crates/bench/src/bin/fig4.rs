//! **Figure 4** (§6.2): double-auction running time as a function of the
//! number of users, for a centralised trusted auctioneer and for the
//! distributed simulation with k = 1 (3 providers), k = 2 (5 providers)
//! and k = 3 (8 providers).
//!
//! Expected shape (paper): the distributed series are dominated by
//! communication — they sit well above the centralised line, grow with
//! `n` (bid streams grow, so consensus ships more bytes) and with `k`
//! (more providers, more messages) — yet the whole auction completes in
//! well under a second even at n = 1000.
//!
//! Times for the distributed series are virtual-clock spans from the
//! simulator's `Timed` schedule over the community-network link model
//! (see `dauctioneer-sim` and `docs/ARCHITECTURE.md`, "One engine, one
//! threaded driver, one simulator", for why this substitutes the paper's Guifi
//! testbed). The distributed series run the double auction under
//! [`WithCoin`], so each epoch keeps the paper's seven broadcasts
//! (agreement, validation, common coin) although the double auction reads
//! no shared randomness and ships without the coin.
//!
//! `--help` lists the flags.

use std::sync::Arc;
use std::time::Duration;

use dauctioneer::cli::Flags;
use dauctioneer_bench::{fmt_secs, time_once, CommonArgs, Stats, Table, WithCoin};
use dauctioneer_core::{DoubleAuctionProgram, FrameworkConfig};
use dauctioneer_mechanisms::{DoubleAuction, Mechanism, SharedRng};
use dauctioneer_sim::{run_auction_sim, LinkModel, SchedulePolicy};
use dauctioneer_workload::DoubleAuctionWorkload;

/// The paper's §6.2 series: (label, k, providers simulating).
const SERIES: &[(&str, usize, usize)] = &[("k=1", 1, 3), ("k=2", 2, 5), ("k=3", 3, 8)];
/// The auction itself always has 8 providers selling bandwidth (§6).
const AUCTION_PROVIDERS: usize = 8;

fn main() {
    let mut args = CommonArgs::new(5);
    args.flags(Flags::new("usage: fig4 [FLAG]...   double-auction running time vs n (Fig. 4)"))
        .parse(std::env::args().skip(1));
    let ns: Vec<usize> =
        if args.quick { vec![100, 300, 500] } else { (1..=10).map(|i| i * 100).collect() };

    eprintln!(
        "fig4: double auction, centralised vs distributed (m simulators over \
         community-network links), {} rounds each",
        args.rounds
    );
    let mut table = Table::new(
        &["n", "centralised", "k=1 (m=3)", "k=2 (m=5)", "k=3 (m=8)", "msgs(k=3)", "bytes(k=3)"],
        args.csv,
    );

    for &n in &ns {
        let mut cells = vec![n.to_string()];
        // Centralised baseline: the trusted auctioneer runs A locally.
        let central = (0..args.rounds)
            .map(|r| {
                let bids = DoubleAuctionWorkload::new(n, AUCTION_PROVIDERS, r as u64).generate();
                let shared = SharedRng::from_material(&(r as u64).to_le_bytes());
                let (_, d) = time_once(|| DoubleAuction::new().run(&bids, &shared));
                d
            })
            .collect::<Vec<Duration>>();
        cells.push(render(Stats::of(&central).mean_s, args.csv));

        let mut last_msgs = 0u64;
        let mut last_bytes = 0u64;
        for &(_, k, m) in SERIES {
            let spans = (0..args.rounds)
                .map(|r| {
                    let bids =
                        DoubleAuctionWorkload::new(n, AUCTION_PROVIDERS, r as u64).generate();
                    let cfg = FrameworkConfig::new(m, k, n, AUCTION_PROVIDERS);
                    let report = run_auction_sim(
                        &cfg,
                        Arc::new(WithCoin(DoubleAuctionProgram::new())),
                        vec![bids; m],
                        &[],
                        SchedulePolicy::Timed(LinkModel::community_net()),
                        1000 + r as u64,
                    )
                    .expect("valid run");
                    assert!(!report.unanimous().is_abort(), "honest run aborted (n={n}, k={k})");
                    last_msgs = report.delivered;
                    last_bytes = report.bytes;
                    report.span.expect("all providers decided")
                })
                .collect::<Vec<Duration>>();
            cells.push(render(Stats::of(&spans).mean_s, args.csv));
        }
        cells.push(last_msgs.to_string());
        cells.push(last_bytes.to_string());
        table.row(cells);
        eprint!(".");
    }
    eprintln!();
    println!("{}", table.render());
    println!(
        "# paper's Figure 4 shape: distributed >> centralised; time grows with n and k;\n\
         # everything completes well under a second even at n=1000."
    );
}

fn render(mean_s: f64, csv: bool) -> String {
    if csv {
        format!("{mean_s:.6}")
    } else {
        fmt_secs(mean_s)
    }
}
