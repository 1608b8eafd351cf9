//! No threads left behind: a batch over TCP and a TCP market join every
//! reactor and pool thread they start before they return.
//!
//! The pool owns its mesh and drops it only after its workers have
//! joined, so this pins the teardown order: workers, then endpoints,
//! then the reactor. Threads are counted in `/proc/self/task` by name
//! prefix (as `net/tests/thread_roster.rs` does), and the test lives in
//! its own integration-test binary (= its own process) so no concurrent
//! test's threads are counted.

use std::sync::Arc;

use dauctioneer_core::{
    run_batch_with, BatchConfig, BatchSession, DoubleAuctionProgram, FrameworkConfig, RunOptions,
    TransportKind,
};
use dauctioneer_market::{EpochPolicy, MarketConfig, MarketService};
use dauctioneer_types::{BidVector, Bw, Money, ProviderAsk, SessionId, UserBid, UserId};

/// Live OS threads of this process whose name starts with `prefix`.
fn threads_named(prefix: &str) -> usize {
    let mut n = 0;
    for entry in std::fs::read_dir("/proc/self/task").expect("procfs is available on Linux") {
        let Ok(entry) = entry else { continue };
        let Ok(comm) = std::fs::read_to_string(entry.path().join("comm")) else { continue };
        if comm.trim_end().starts_with(prefix) {
            n += 1;
        }
    }
    n
}

#[track_caller]
fn assert_no_threads_left(context: &str) {
    assert_eq!(threads_named("net-reactor"), 0, "{context}: reactor thread left running");
    assert_eq!(threads_named("market-"), 0, "{context}: pool or market thread left running");
}

fn ask() -> ProviderAsk {
    ProviderAsk::new(Money::from_f64(0.2), Bw::from_f64(2.0))
}

#[test]
fn tcp_batches_and_markets_join_every_thread_they_start() {
    assert_no_threads_left("before anything ran");

    let cfg = FrameworkConfig::new(3, 1, 2, 1);
    let bids = BidVector::builder(2, 1)
        .user_bid(0, UserBid::new(Money::from_f64(1.2), Bw::from_f64(0.5)))
        .user_bid(1, UserBid::new(Money::from_f64(0.9), Bw::from_f64(0.5)))
        .provider_ask(0, ask())
        .build();
    let sessions =
        (0..4).map(|s| BatchSession::uniform(SessionId(s), bids.clone(), 3, 10 + s)).collect();
    let report = run_batch_with(
        &cfg,
        Arc::new(DoubleAuctionProgram::new()),
        sessions,
        &RunOptions::default(),
        &BatchConfig::tcp(2),
    );
    assert!(report.all_agreed());
    assert_no_threads_left("after run_batch_with over TCP");

    let config = MarketConfig::new(3, 1, 4, 1)
        .with_epoch(EpochPolicy::ByCount(2))
        .with_asks(vec![ask()])
        .with_transport(TransportKind::Tcp, 2);
    let mut market =
        MarketService::start(config, Arc::new(DoubleAuctionProgram::new())).expect("market up");
    let outcomes = market.take_outcomes().expect("first subscription");
    let handle = market.handle();
    handle.submit_bid(UserId(0), UserBid::new(Money::from_f64(1.2), Bw::from_f64(0.5))).unwrap();
    handle.submit_bid(UserId(1), UserBid::new(Money::from_f64(0.9), Bw::from_f64(0.4))).unwrap();
    assert!(!outcomes.recv().expect("one epoch").outcome.is_abort());
    // The probe sees a running market: one reactor, 3 providers × 2 shards.
    assert_eq!(threads_named("net-reactor"), 1);
    assert_eq!(threads_named("market-worker"), 6);
    market.shutdown();
    assert_no_threads_left("after MarketService::shutdown over TCP");
}
