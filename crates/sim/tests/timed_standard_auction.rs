//! DES runs of the parallelised standard auction: outcome correctness and
//! the structural timing claims that are safe to assert (no absolute
//! wall-clock comparisons — those belong to the benches).

use std::sync::Arc;

use dauctioneer_core::{FrameworkConfig, StandardAuctionProgram};
use dauctioneer_mechanisms::baselines::standard_welfare;
use dauctioneer_mechanisms::props::{feasibility_violations, rationality_violations};
use dauctioneer_mechanisms::solver::{solve_exhaustive, Instance};
use dauctioneer_mechanisms::{StandardAuction, StandardAuctionConfig};
use dauctioneer_sim::{run_auction_sim, LinkModel, SchedulePolicy};
use dauctioneer_workload::StandardAuctionWorkload;

#[test]
fn timed_standard_auction_agrees_at_p2() {
    let (bids, capacities) = StandardAuctionWorkload::new(8, 2, 4).generate();
    let auction = StandardAuction::new(StandardAuctionConfig::exact(capacities.clone()));
    let cfg = FrameworkConfig::new(4, 1, 8, 0);
    let report = run_auction_sim(
        &cfg,
        Arc::new(StandardAuctionProgram::new(auction)),
        vec![bids.clone(); 4],
        &[],
        SchedulePolicy::Timed(LinkModel::community_net()),
        11,
    );
    let outcome = report.unanimous();
    let result = outcome.as_result().expect("honest timed run agrees");
    // Correct simulation: the welfare equals the exhaustive optimum.
    let optimum = solve_exhaustive(&Instance::from_bids(&bids, &capacities)).welfare;
    assert_eq!(standard_welfare(&bids, &result.allocation), optimum);
    assert!(feasibility_violations(&bids, result, Some(&capacities)).is_empty());
    assert!(rationality_violations(&bids, result).is_empty());
    // Every provider decided, and the span is the max decision time.
    let max_decision = report.decision_times.iter().flatten().max().copied();
    assert_eq!(report.span, max_decision);
}

#[test]
fn timed_outcome_equals_untimed_outcome() {
    let (bids, capacities) = StandardAuctionWorkload::new(6, 2, 2).generate();
    let auction = StandardAuction::new(StandardAuctionConfig::exact(capacities));
    let program = Arc::new(StandardAuctionProgram::new(auction));
    let cfg = FrameworkConfig::new(3, 1, 6, 0);

    let timed = run_auction_sim(
        &cfg,
        Arc::clone(&program),
        vec![bids.clone(); 3],
        &[],
        SchedulePolicy::Timed(LinkModel::community_net()),
        21,
    );
    let untimed =
        run_auction_sim(&cfg, program, vec![bids; 3], &[], SchedulePolicy::SeededRandom(5), 21);
    // The virtual clock must not influence what is decided.
    assert_eq!(timed.unanimous(), untimed.unanimous());
}

#[test]
fn traffic_accounting_is_consistent() {
    let (bids, capacities) = StandardAuctionWorkload::new(5, 2, 7).generate();
    let auction = StandardAuction::new(StandardAuctionConfig::exact(capacities));
    let cfg = FrameworkConfig::new(3, 1, 5, 0);
    let report = run_auction_sim(
        &cfg,
        Arc::new(StandardAuctionProgram::new(auction)),
        vec![bids; 3],
        &[],
        SchedulePolicy::Timed(LinkModel::instant()),
        3,
    );
    assert!(!report.unanimous().is_abort());
    assert!(report.delivered > 0);
    assert!(report.bytes > report.delivered, "messages carry payloads");
}
