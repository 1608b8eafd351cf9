//! Durability under group commit, observed from outside the scheduler:
//! whatever the market has *counted* or *published* is already covered
//! by an fsync, at every instant, even while bids arrive faster than the
//! disk syncs and one fsync covers a whole batch.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use dauctioneer_core::DoubleAuctionProgram;
use dauctioneer_market::{
    scan, Backpressure, EpochPolicy, FsyncPolicy, JournalConfig, MarketConfig, MarketService,
};
use dauctioneer_types::{Bw, JournalRecord, Money, ProviderAsk, UserBid, UserId};

fn temp_journal(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dauction-groupcommit-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn journaled_market(name: &str, n_users: usize, epoch_bids: usize) -> (MarketService, PathBuf) {
    let path = temp_journal(name);
    let mut config = MarketConfig::new(3, 1, n_users, 3)
        .with_epoch(EpochPolicy::ByCount(epoch_bids))
        .with_asks(vec![ProviderAsk::new(Money::from_f64(0.2), Bw::from_f64(4.0)); 3])
        .with_journal(JournalConfig::new(&path).with_fsync(FsyncPolicy::Always));
    config.backpressure = Backpressure::Block;
    let market =
        MarketService::start(config, Arc::new(DoubleAuctionProgram::new())).expect("valid config");
    (market, path)
}

fn bid(u: u32) -> UserBid {
    UserBid::new(Money::from_f64(0.8 + 1e-5 * f64::from(u)), Bw::from_f64(0.5))
}

/// Three submitters saturate the blocking ingress queue while this
/// thread samples `(bids_accepted, records durable)`. One epoch spans
/// the whole run, so until shutdown the journal holds nothing but
/// accepted bids and the two numbers are directly comparable: a counted
/// bid that no fsync covers yet would show as accepted > durable.
#[test]
fn counted_bids_are_durable_at_every_sample() {
    const BIDS: u32 = 6_000;
    let (market, path) = journaled_market("counted", BIDS as usize, BIDS as usize + 1);
    let journal = market.journal().expect("journaled");
    let samples = std::thread::scope(|s| {
        let submitters: Vec<_> = (0..3u32)
            .map(|t| {
                let handle = market.handle();
                s.spawn(move || {
                    for u in (t..BIDS).step_by(3) {
                        handle.submit_bid(UserId(u), bid(u)).expect("blocking ingress");
                    }
                })
            })
            .collect();
        let mut samples = 0u64;
        loop {
            let submitted = submitters.iter().all(|s| s.is_finished());
            // Counter first: durable only grows, so reading it second can
            // only help the market, never hide a violation.
            let accepted = market.stats().bids_accepted;
            let durable = journal.records_durable();
            assert!(accepted <= durable, "{accepted} bids counted, only {durable} durable");
            samples += 1;
            if submitted && accepted == u64::from(BIDS) {
                return samples;
            }
            std::thread::yield_now();
        }
    });
    assert!(samples > 1);
    // Under this saturating feed one fsync covers a batch: ~1,000 bids
    // each in practice. Ten or fewer per fsync means group commit broke
    // down towards one fsync per bid.
    let fsyncs = journal.fsyncs();
    assert!(fsyncs * 10 <= u64::from(BIDS), "{fsyncs} fsyncs for {BIDS} bids: commits not batched");
    println!("{BIDS} bids, {fsyncs} fsyncs, {samples} samples");
    let stats = market.shutdown();
    assert_eq!(stats.bids_accepted, u64::from(BIDS));
    assert_eq!(stats.epochs_closed, 1, "the drain closes the one open epoch");
    std::fs::remove_file(&path).unwrap();
}

/// No `EpochOutcome` reaches the subscriber before its seal is durable:
/// at the instant each outcome is received, the journal's durable count
/// already covers the seal's position in the file (read back, exactly,
/// after the run). The submitter floods the market without waiting for
/// outcomes, so the clearer finds several epochs queued and seals them
/// as one group under one commit; the check holds for every member.
#[test]
fn outcomes_are_published_only_after_their_seal_is_durable() {
    const EPOCHS: u64 = 150;
    const EPOCH_BIDS: u32 = 16;
    let (mut market, path) = journaled_market("published", 64, EPOCH_BIDS as usize);
    let outcomes = market.take_outcomes().expect("first subscription");
    let handle = market.handle();
    // One submitter, users round-robin: no duplicate within an epoch.
    let submitter = std::thread::spawn(move || {
        for i in 0..EPOCHS * u64::from(EPOCH_BIDS) {
            let u = (i % 64) as u32;
            handle.submit_bid(UserId(u), bid(u)).expect("blocking ingress");
        }
    });
    let mut durable_at_receipt = vec![0u64; EPOCHS as usize];
    for _ in 0..EPOCHS {
        let outcome = outcomes.recv_timeout(Duration::from_secs(60)).expect("epoch seals");
        let durable = market.journal().expect("journaled").records_durable();
        durable_at_receipt[outcome.epoch as usize] = durable;
    }
    submitter.join().expect("submitter");
    let stats = market.shutdown();
    assert!(
        stats.clear_groups < stats.epochs_closed,
        "{} drives for {} epochs: the flood formed no clear group",
        stats.clear_groups,
        stats.epochs_closed
    );

    // A fresh journal: a record's sequence number is its 1-based index.
    let records = scan(&std::fs::read(&path).unwrap()).records;
    let mut seals = 0;
    for (index, record) in records.iter().enumerate() {
        if let JournalRecord::Sealed(seal) = record {
            let durable = durable_at_receipt[seal.epoch as usize];
            assert!(
                durable > index as u64,
                "epoch {} published with {durable} records durable; its seal is record {}",
                seal.epoch,
                index + 1
            );
            seals += 1;
        }
    }
    assert_eq!(seals, EPOCHS);
    std::fs::remove_file(&path).unwrap();
}
