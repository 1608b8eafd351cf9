//! **Ablation A1**: where does the distributed auctioneer's time go?
//!
//! Breaks the end-to-end session span into the contribution of each
//! building block by running partial protocol stacks on the Fig. 4
//! workload:
//!
//! * bid agreement alone (consensus over the bid streams),
//! * + input validation,
//! * the common coin alone,
//! * full framework: the paper's pipeline, validation + coin + allocator
//!   (the double auction under [`WithCoin`]),
//! * framework (no coin): the pipeline as shipped — the double auction
//!   reads no shared randomness, so its allocator skips the coin.
//!
//! This quantifies the paper's claim that the emulation overhead is
//! dominated by the bid agreement's data exchange, not by the allocator
//! machinery.
//!
//! `--help` lists the flags.

use std::sync::Arc;
use std::time::Duration;

use dauctioneer::cli::Flags;
use dauctioneer_bench::{fmt_secs, CommonArgs, Stats, Table, WithCoin};
use dauctioneer_core::blocks::{encode_fixed, BidAgreement, CommonCoin, InputValidation};
use dauctioneer_core::{Block, Distribution, DoubleAuctionProgram, DynProgram, FrameworkConfig};
use dauctioneer_sim::{run_auction_sim, LinkModel, SchedulePolicy, SimRunner};
use dauctioneer_types::ProviderId;
use dauctioneer_workload::DoubleAuctionWorkload;
use rand::rngs::StdRng;
use rand::SeedableRng;

const M: usize = 8;
const K: usize = 3;

/// The Fig. 4 link model the full framework and every partial stack run over.
fn timed() -> SchedulePolicy {
    SchedulePolicy::Timed(LinkModel::community_net())
}

/// Mean over `rounds` of the virtual span `span(r)` reports for round `r`.
fn mean_span(rounds: usize, span: impl Fn(u64) -> Duration) -> f64 {
    Stats::of(&(0..rounds as u64).map(span).collect::<Vec<_>>()).mean_s
}

/// Span of one partial stack: the latest decision over its providers.
fn stack_span<B: Block>(blocks: impl Iterator<Item = B>, seed: u64) -> Duration {
    let mut sim = SimRunner::new(blocks.collect(), &[], timed(), seed);
    sim.run(u64::MAX);
    sim.span().expect("every provider decides")
}

fn main() {
    let mut args = CommonArgs::new(3);
    args.flags(Flags::new("usage: ablation_blocks [FLAG]...   per-block overhead of one session"))
        .parse(std::env::args().skip(1));
    let ns: Vec<usize> = if args.quick { vec![100, 500] } else { vec![100, 500, 1000] };

    eprintln!("ablation A1: per-block share of the distributed double auction (m={M}, k={K})");
    let mut table = Table::new(
        &[
            "n",
            "bid agreement",
            "input validation",
            "common coin",
            "full framework",
            "framework (no coin)",
        ],
        args.csv,
    );
    for &n in &ns {
        let bids = DoubleAuctionWorkload::new(n, M, 0).generate();
        let rng = |r: u64, i: usize| StdRng::seed_from_u64(r * 100 + i as u64);
        let agreement = mean_span(args.rounds, |r| {
            let blocks =
                (0..M).map(|i| BidAgreement::new(ProviderId(i as u32), M, &bids, &mut rng(r, i)));
            stack_span(blocks, r)
        });
        let validation = mean_span(args.rounds, |r| {
            let input = encode_fixed(&bids);
            let blocks =
                (0..M).map(|i| InputValidation::new(ProviderId(i as u32), M, input.clone(), false));
            stack_span(blocks, r)
        });
        let coin = mean_span(args.rounds, |r| {
            let uniform = Distribution::UniformUnit;
            let blocks =
                (0..M).map(|i| CommonCoin::new(ProviderId(i as u32), M, uniform, &mut rng(r, i)));
            stack_span(blocks, r)
        });
        let framework = |program: DynProgram| {
            mean_span(args.rounds, |r| {
                let cfg = FrameworkConfig::new(M, K, n, M);
                let program = Arc::new(program.clone());
                let report = run_auction_sim(&cfg, program, vec![bids.clone(); M], &[], timed(), r)
                    .expect("valid run");
                assert!(!report.unanimous().is_abort());
                report.span.expect("decided")
            })
        };
        let full = framework(DynProgram::new(Arc::new(WithCoin(DoubleAuctionProgram::new()))));
        let no_coin = framework(DynProgram::new(Arc::new(DoubleAuctionProgram::new())));

        table.row(vec![
            n.to_string(),
            fmt_secs(agreement),
            fmt_secs(validation),
            fmt_secs(coin),
            fmt_secs(full),
            fmt_secs(no_coin),
        ]);
        eprint!(".");
    }
    eprintln!();
    println!("{}", table.render());
    println!("# bid agreement (3 rounds over the full bid streams) dominates the overhead;");
    println!("# validation and coin are small constants; the full framework is their chain.");
    println!("# without the coin (the double auction reads no shared randomness), the allocator");
    println!("# sends 3 broadcasts fewer, 2 of them on the sequential path.");
}
