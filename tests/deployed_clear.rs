//! The deployed clear path in the default `cargo test`: a `Coordinator`
//! and three `run_provider` threads over loopback sockets, journaled,
//! clear 12 epochs through the market's one clear path. Every outcome
//! must equal a one-shot session of the same vector, session and seed;
//! the run's stats must count every epoch and two journal commits per
//! epoch; and the journal must carry one verified seal per epoch, in
//! epoch order.

use std::net::TcpListener;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use dauctioneer::core::{run_session, DoubleAuctionProgram, FrameworkConfig, RunOptions};
use dauctioneer::market::cluster::generate_epoch_bids;
use dauctioneer::market::{
    read_journal, run_provider, verify_log, ClusterConfig, Coordinator, ProviderConfig,
};
use dauctioneer::types::{Encode, JournalRecord, SessionId};

const M: usize = 3;
const K: usize = 1;
const N_USERS: usize = 8;
const EPOCHS: u64 = 12;
const SEED: u64 = 20160627;

/// The seed of epoch `e`, as the in-process market derives it.
fn epoch_seed(e: u64) -> u64 {
    SEED.wrapping_add((e + 1).wrapping_mul(7919))
}

#[test]
fn the_coordinator_seals_counts_and_publishes_what_a_session_decides() {
    let journal =
        std::env::temp_dir().join(format!("dauction-deployed-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let mut config = ClusterConfig::new(M, K, N_USERS);
    config.epochs = EPOCHS;
    config.seed = SEED;
    config.join_timeout = Duration::from_secs(10);
    config.journal = Some(journal.clone());
    let first_session = config.first_session;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind the control listener");
    let coordinator = Coordinator::new(listener, config).expect("coordinator");
    let addr = coordinator.local_addr().to_string();
    let providers: Vec<_> = (0..M)
        .map(|id| {
            let addr = addr.clone();
            thread::spawn(move || run_provider(ProviderConfig::new(id, addr)))
        })
        .collect();
    let report = coordinator.run(|_| {}).expect("coordinator run");
    for provider in providers {
        provider.join().expect("provider thread").expect("provider run");
    }

    assert_eq!(report.epochs.len() as u64, EPOCHS);
    for (e, epoch) in (0..EPOCHS).zip(&report.epochs) {
        assert_eq!((epoch.epoch, epoch.session), (e, first_session + e));
        let bids = generate_epoch_bids(N_USERS, M, epoch_seed(e));
        assert_eq!(epoch.accepted, bids.valid_user_bids().count() as u64);
        let cfg = FrameworkConfig::new(M, K, N_USERS, M).with_session(SessionId(epoch.session));
        let options = RunOptions { seed: epoch_seed(e), ..RunOptions::default() };
        let one_shot =
            run_session(&cfg, Arc::new(DoubleAuctionProgram::new()), vec![bids; M], &options);
        assert_eq!(
            epoch.outcome.encode_to_bytes(),
            one_shot.unanimous().encode_to_bytes(),
            "epoch {e}: the cluster and a one-shot session decided differently"
        );
    }
    assert_eq!((report.stats.epochs_cleared, report.stats.epochs_aborted), (EPOCHS, 0));
    assert_eq!(report.stats.mechanism, "double-auction");
    // Each epoch commits twice, one fsync each: its bids before the drive,
    // its seal before the outcome is counted and published.
    assert_eq!(report.stats.journal_fsyncs, 2 * EPOCHS);

    let summary = verify_log(&journal).expect("the coordinator's chain verifies");
    assert_eq!(summary.seals, EPOCHS);
    assert_eq!(summary.mechanism.as_deref(), Some("double-auction"));
    let seals: Vec<(u64, u64, u64)> = read_journal(&journal)
        .expect("read the journal")
        .records
        .into_iter()
        .filter_map(|record| match record {
            JournalRecord::Sealed(seal) => Some((seal.epoch, seal.session.0, seal.seed)),
            _ => None,
        })
        .collect();
    let expected: Vec<(u64, u64, u64)> =
        (0..EPOCHS).map(|e| (e, first_session + e, epoch_seed(e))).collect();
    assert_eq!(seals, expected, "one seal per epoch, in epoch order");
    let _ = std::fs::remove_file(&journal);
}
