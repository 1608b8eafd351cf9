//! The continuous-market acceptance suite: many consecutive epochs over
//! ONE persistent mesh, each equivalent to a one-shot session, with no
//! per-epoch thread/transport churn and a lossless drain-then-shutdown —
//! plus journal replay-equivalence: a recovered market re-clears
//! unsealed epochs to **byte-identical** outcomes.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use dauctioneer_core::{
    run_session, DoubleAuctionProgram, FrameworkConfig, RunOptions, TransportKind,
};
use dauctioneer_market::{
    crc32, scan, verify_log, Backpressure, EpochOutcome, EpochPolicy, FsyncPolicy, JournalConfig,
    MarketConfig, MarketError, MarketService, MechanismSpec, SubmitError,
};
use dauctioneer_net::{shard_for, wire_encode, FaultPlan};
use dauctioneer_types::{
    Bw, Encode, JournalRecord, Money, ProviderAsk, SessionId, UserBid, UserId,
};

/// Distinct, valid §6.2-style bids: user `u` of round `round`.
fn bid(round: u64, u: u32) -> UserBid {
    UserBid::new(Money::from_f64(0.8 + 0.05 * u as f64 + 0.01 * round as f64), Bw::from_f64(0.5))
}

fn asks() -> Vec<ProviderAsk> {
    vec![
        ProviderAsk::new(Money::from_f64(0.10), Bw::from_f64(1.0)),
        ProviderAsk::new(Money::from_f64(0.20), Bw::from_f64(1.0)),
        ProviderAsk::new(Money::from_f64(0.30), Bw::from_f64(1.0)),
    ]
}

fn market_config(transport: TransportKind, shards: usize) -> MarketConfig {
    let mut config = MarketConfig::new(3, 1, 8, 3)
        .with_epoch(EpochPolicy::ByCount(4))
        .with_asks(asks())
        .with_transport(transport, shards);
    config.seed = 77;
    config
}

/// Drive `rounds` epochs of 4 distinct bids each through a running
/// market, collecting the outcome of every closed epoch.
fn drive_epochs(market: &mut MarketService, rounds: u64) -> Vec<EpochOutcome> {
    let outcomes = market.take_outcomes().expect("first subscription take");
    let handle = market.handle();
    let mut closed = Vec::new();
    for round in 0..rounds {
        for u in 0..4u32 {
            handle.submit_bid(UserId(u), bid(round, u)).expect("market accepts while open");
        }
        let epoch = outcomes.recv_timeout(Duration::from_secs(30)).expect("epoch closes");
        closed.push(epoch);
    }
    closed
}

/// Equivalence with the one-shot paper pipeline: replay the epoch's
/// collected bids as a plain `run_session` with the same session id and
/// seed — the outcome must be identical.
fn assert_matches_one_shot(epoch: &EpochOutcome) {
    let cfg = FrameworkConfig::new(3, 1, 8, 3).with_session(epoch.session);
    let replay = run_session(
        &cfg,
        Arc::new(DoubleAuctionProgram::new()),
        vec![epoch.bids.clone(); 3],
        &RunOptions { seed: epoch.seed, ..RunOptions::default() },
    )
    .unwrap();
    assert_eq!(
        replay.unanimous(),
        epoch.outcome,
        "epoch {} diverged from its one-shot replay",
        epoch.epoch
    );
}

/// The headline acceptance test: ≥3 consecutive epochs over one
/// persistent mesh, no per-epoch thread/transport churn (thread roster +
/// monotone traffic on the same counters), every epoch unanimous non-⊥
/// and **identical to a one-shot `run_session` over the same collected
/// bids**.
#[test]
fn three_epochs_one_mesh_match_one_shot_sessions() {
    let mut market = MarketService::start(
        market_config(TransportKind::InProc, 2),
        Arc::new(DoubleAuctionProgram::new()),
    )
    .expect("valid config");

    // Thread accounting: the full worker roster exists before the first
    // epoch and never changes. (The pool additionally asserts, on every
    // epoch reply, that the replying thread IS the spawned one.)
    let roster: Vec<_> = market.worker_ids().to_vec();
    assert_eq!(roster.iter().map(Vec::len).sum::<usize>(), 3 * 2, "m×shards workers at startup");
    assert_eq!(market.stats().worker_threads, 6);

    let mut traffic_points = vec![market.traffic()];
    let outcomes = market.take_outcomes().expect("subscription");
    let handle = market.handle();

    let mut closed: Vec<EpochOutcome> = Vec::new();
    for round in 0..3u64 {
        for u in 0..4u32 {
            handle.submit_bid(UserId(u), bid(round, u)).expect("accepted while open");
        }
        let epoch = outcomes.recv_timeout(Duration::from_secs(30)).expect("epoch closes");
        // Same mesh, same counters: traffic strictly grows every epoch.
        let now = market.traffic();
        let prev = traffic_points.last().unwrap();
        assert!(
            now.total_messages() > prev.total_messages(),
            "epoch {round}: traffic must accumulate on the persistent mesh"
        );
        assert_eq!(now.per_provider.len(), 3, "same m counters across the whole run");
        traffic_points.push(now);
        // No churn: the roster is byte-for-byte the startup roster.
        assert_eq!(market.worker_ids(), roster.as_slice(), "epoch {round}: worker churn");
        closed.push(epoch);
    }

    assert_eq!(closed.len(), 3);
    for (round, epoch) in closed.iter().enumerate() {
        assert_eq!(epoch.epoch, round as u64);
        assert_eq!(epoch.accepted_bids, 4);
        let unanimous = &epoch.outcome;
        assert!(!unanimous.is_abort(), "epoch {round} must clear");
        let result = unanimous.as_result().expect("agreed");
        assert!(!result.allocation.winners().is_empty(), "epoch {round} trades");

        assert_matches_one_shot(epoch);
    }

    let stats = market.shutdown();
    assert_eq!(stats.epochs_closed, 3);
    assert_eq!(stats.bids_accepted, 12);
    assert_eq!(stats.worker_threads, 6, "shutdown reports the same constant roster");
}

/// The same three epochs over a persistent loopback-TCP mesh: identical
/// outcomes to the in-process transport, proving the market daemon is
/// transport-independent like everything below it.
#[test]
fn tcp_market_epochs_match_inproc() {
    let mut inproc = MarketService::start(
        market_config(TransportKind::InProc, 1),
        Arc::new(DoubleAuctionProgram::new()),
    )
    .expect("inproc market");
    let mut tcp = MarketService::start(
        market_config(TransportKind::Tcp, 1),
        Arc::new(DoubleAuctionProgram::new()),
    )
    .expect("tcp market");

    let a = drive_epochs(&mut inproc, 3);
    let b = drive_epochs(&mut tcp, 3);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.session, y.session);
        assert!(!x.outcome.is_abort());
        assert_eq!(x.outcome, y.outcome, "transport changed epoch {}", x.epoch);
    }
    let tcp_traffic = tcp.traffic();
    assert!(tcp_traffic.total_messages() > 0, "frames really crossed the sockets");
    inproc.shutdown();
    tcp.shutdown();
}

/// Drain-then-shutdown: submissions queued when shutdown begins — even
/// a partial epoch far short of its count target — are folded into a
/// final epoch and cleared. No accepted bid is lost.
#[test]
fn drain_then_shutdown_loses_no_accepted_bid() {
    let mut market = MarketService::start(
        market_config(TransportKind::InProc, 1),
        Arc::new(DoubleAuctionProgram::new()),
    )
    .expect("valid config");
    let outcomes = market.take_outcomes().expect("subscription");
    let handle = market.handle();

    // One full epoch (4 bids) plus a partial one (2 bids, target is 4).
    for u in 0..4u32 {
        handle.submit_bid(UserId(u), bid(0, u)).unwrap();
    }
    let first = outcomes.recv_timeout(Duration::from_secs(30)).expect("first epoch");
    assert_eq!(first.accepted_bids, 4);
    for u in 0..2u32 {
        handle.submit_bid(UserId(u), bid(1, u)).unwrap();
    }

    let stats = market.shutdown();
    // The partial epoch was flushed on drain…
    assert_eq!(stats.epochs_closed, 2, "partial epoch must be flushed at shutdown");
    assert_eq!(stats.bids_accepted, 6, "no accepted bid lost");
    let flushed = outcomes.recv_timeout(Duration::from_secs(1)).expect("flushed epoch");
    assert_eq!(flushed.accepted_bids, 2);
    assert!(!flushed.outcome.is_abort(), "the flushed epoch still clears properly");
    // …and per-epoch accepted counts account for every accepted bid.
    assert_eq!(first.accepted_bids + flushed.accepted_bids, 6);

    // After shutdown every handle is closed.
    assert_eq!(handle.submit_bid(UserId(0), bid(2, 0)), Err(SubmitError::Closed));
}

/// The collector rules act per epoch: a duplicate within an epoch is
/// rejected, but the same user bids afresh in the next epoch.
#[test]
fn duplicate_rules_reset_across_epochs() {
    let mut config = market_config(TransportKind::InProc, 1);
    config.epoch = EpochPolicy::ByCount(2);
    let mut market =
        MarketService::start(config, Arc::new(DoubleAuctionProgram::new())).expect("valid");
    let outcomes = market.take_outcomes().unwrap();
    let handle = market.handle();

    // Epoch 0: user 0 twice (second rejected), user 1 once.
    handle.submit_bid(UserId(0), bid(0, 0)).unwrap();
    handle.submit_bid(UserId(0), bid(0, 1)).unwrap(); // duplicate
    handle.submit_bid(UserId(1), bid(0, 1)).unwrap();
    let e0 = outcomes.recv_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(e0.accepted_bids, 2);
    // Epoch 1: user 0 again — accepted, the collector state was fresh.
    handle.submit_bid(UserId(0), bid(1, 0)).unwrap();
    handle.submit_bid(UserId(1), bid(1, 1)).unwrap();
    let e1 = outcomes.recv_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(e1.accepted_bids, 2);

    let stats = market.shutdown();
    assert_eq!(stats.bids_accepted, 4);
    assert_eq!(stats.bids_rejected_duplicate, 1);
}

/// Streamed asks overwrite the configured defaults for the open epoch
/// only; out-of-range slots are counted, not applied.
#[test]
fn streamed_asks_apply_to_the_open_epoch() {
    let mut config = market_config(TransportKind::InProc, 1);
    config.epoch = EpochPolicy::ByCount(2);
    let mut market =
        MarketService::start(config, Arc::new(DoubleAuctionProgram::new())).expect("valid");
    let outcomes = market.take_outcomes().unwrap();
    let handle = market.handle();

    // Provider 0 floods the epoch with cheap capacity.
    let cheap = ProviderAsk::new(Money::from_f64(0.01), Bw::from_f64(5.0));
    handle.submit_ask(0, cheap).unwrap();
    handle.submit_ask(99, cheap).unwrap(); // out of range: counted, dropped
    handle.submit_bid(UserId(0), bid(0, 0)).unwrap();
    handle.submit_bid(UserId(1), bid(0, 1)).unwrap();
    let e0 = outcomes.recv_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(e0.bids.asks()[0], cheap, "streamed ask visible in the closed vector");

    // Next epoch reverts to the configured defaults.
    handle.submit_bid(UserId(0), bid(1, 0)).unwrap();
    handle.submit_bid(UserId(1), bid(1, 1)).unwrap();
    let e1 = outcomes.recv_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(e1.bids.asks()[0], asks()[0], "defaults restored after the epoch closed");

    let stats = market.shutdown();
    assert_eq!(stats.asks_set, 1);
    assert_eq!(stats.asks_rejected, 1, "out-of-range ask counted as ask, not bid");
    assert_eq!(stats.bids_rejected_unknown, 0, "ask rejections never inflate bid counters");
    assert_eq!(stats.bids_seen(), stats.bids_accepted, "only bids in bids_seen");
}

/// A time-policy market closes epochs without ever reaching a count.
#[test]
fn by_time_epochs_close_on_the_clock() {
    let mut config = market_config(TransportKind::InProc, 1);
    config.epoch = EpochPolicy::ByTime(Duration::from_millis(50));
    let mut market =
        MarketService::start(config, Arc::new(DoubleAuctionProgram::new())).expect("valid");
    let outcomes = market.take_outcomes().unwrap();
    let handle = market.handle();

    handle.submit_bid(UserId(0), bid(0, 0)).unwrap();
    handle.submit_bid(UserId(1), bid(0, 1)).unwrap();
    let epoch = outcomes.recv_timeout(Duration::from_secs(30)).expect("clock closes the epoch");
    assert_eq!(epoch.accepted_bids, 2);
    assert!(!epoch.outcome.is_abort());
    market.shutdown();
}

/// Backpressure end-to-end: a blocked submitter finishes once the
/// scheduler drains, and nothing is shed under the block policy.
#[test]
fn block_backpressure_never_sheds() {
    let mut config = market_config(TransportKind::InProc, 1);
    config.epoch = EpochPolicy::ByCount(4);
    config.ingress_capacity = 2;
    config.backpressure = Backpressure::Block;
    let mut market =
        MarketService::start(config, Arc::new(DoubleAuctionProgram::new())).expect("valid");
    let outcomes = market.take_outcomes().unwrap();
    let handle = market.handle();

    // 8 bids through a 2-deep queue: pushes block until drained.
    for round in 0..2u64 {
        for u in 0..4u32 {
            handle.submit_bid(UserId(u), bid(round, u)).expect("block, never shed");
        }
    }
    for _ in 0..2 {
        let epoch = outcomes.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(epoch.accepted_bids, 4);
    }
    let stats = market.shutdown();
    assert_eq!(stats.bids_shed, 0);
    assert_eq!(stats.bids_accepted, 8);
}

// ---------------------------------------------------------------------------
// Group clearing
// ---------------------------------------------------------------------------

/// A flood: `EPOCHS` epochs of 4 bids submitted without waiting for any
/// outcome, so each shard's clearer wakes to find several closed epochs
/// queued and clears them as one pool drive. Grouping must be invisible
/// in the outcomes: every epoch equals its one-shot session, one shard
/// publishes in epoch order, and the settlement chain seals each shard's
/// epochs in epoch order.
fn flood(transport: TransportKind, shards: usize, name: &str) {
    const EPOCHS: u64 = 30;
    let path = temp_journal(name);
    let mut config = market_config(transport, shards);
    config.backpressure = Backpressure::Block;
    config.journal = Some(JournalConfig::new(&path).with_fsync(FsyncPolicy::Never));
    let first_session = config.first_session;
    let mut market =
        MarketService::start(config, Arc::new(DoubleAuctionProgram::new())).expect("valid");
    let outcomes = market.take_outcomes().expect("subscription");
    let handle = market.handle();
    for round in 0..EPOCHS {
        for u in 0..4u32 {
            handle.submit_bid(UserId(u), bid(round, u)).expect("blocking ingress");
        }
    }
    let received: Vec<EpochOutcome> = (0..EPOCHS)
        .map(|_| outcomes.recv_timeout(Duration::from_secs(30)).expect("epoch seals"))
        .collect();
    let stats = market.shutdown();
    assert_eq!(stats.epochs_closed, EPOCHS);
    assert!(
        stats.clear_groups < stats.epochs_closed,
        "{} drives for {} epochs: no group formed under the flood",
        stats.clear_groups,
        stats.epochs_closed
    );
    if shards == 1 {
        let order: Vec<u64> = received.iter().map(|e| e.epoch).collect();
        assert_eq!(order, (0..EPOCHS).collect::<Vec<_>>(), "one shard publishes in epoch order");
    }
    for epoch in &received {
        assert_eq!(epoch.accepted_bids, 4);
        assert!(!epoch.outcome.is_abort(), "epoch {} must clear", epoch.epoch);
        assert_matches_one_shot(epoch);
    }
    let sealed = sealed_epochs(&path);
    assert_eq!(sealed.len() as u64, EPOCHS, "every epoch sealed once");
    for shard in 0..shards {
        let chain: Vec<u64> = sealed
            .iter()
            .copied()
            .filter(|&e| shard_for(SessionId(first_session + e), shards) == shard)
            .collect();
        assert!(
            chain.windows(2).all(|pair| pair[0] < pair[1]),
            "shard {shard} sealed out of epoch order: {chain:?}"
        );
    }
    assert!(verify_log(&path).is_ok());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn flooded_inproc_market_groups_epochs_invisibly() {
    flood(TransportKind::InProc, 1, "flood-inproc");
}

#[test]
fn flooded_two_shard_market_groups_epochs_invisibly() {
    flood(TransportKind::InProc, 2, "flood-shards");
}

#[test]
fn flooded_tcp_market_groups_epochs_invisibly() {
    flood(TransportKind::Tcp, 1, "flood-tcp");
}

// ---------------------------------------------------------------------------
// Journal replay equivalence
// ---------------------------------------------------------------------------

fn temp_journal(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dauction-replay-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// The epochs of the journal's seals, in chain (file) order.
fn sealed_epochs(path: &Path) -> Vec<u64> {
    scan(&std::fs::read(path).unwrap())
        .records
        .iter()
        .filter_map(|record| match record {
            JournalRecord::Sealed(seal) => Some(seal.epoch),
            _ => None,
        })
        .collect()
}

/// Rewrite the journal at `path` without the seals of `epochs` — the
/// on-disk state of a process killed after accepting those epochs' bids
/// but before (durably) sealing their outcomes.
fn strip_seals(path: &Path, epochs: &[u64]) {
    let records = scan(&std::fs::read(path).unwrap()).records;
    let mut stream = Vec::new();
    for record in &records {
        if let JournalRecord::Sealed(seal) = record {
            if epochs.contains(&seal.epoch) {
                continue;
            }
        }
        let body = record.encode_to_bytes();
        let mut payload = body.to_vec();
        payload.extend_from_slice(&crc32(&body).to_le_bytes());
        stream.extend_from_slice(&wire_encode(&payload));
    }
    std::fs::write(path, &stream).unwrap();
}

/// Assert two epoch outcomes are byte-identical, not merely equal: the
/// acceptance bar for recovery is that a re-cleared epoch is
/// indistinguishable on the wire from the live one.
fn assert_byte_identical(live: &EpochOutcome, replayed: &EpochOutcome) {
    assert_eq!(live.epoch, replayed.epoch);
    assert_eq!(live.session, replayed.session);
    assert_eq!(live.seed, replayed.seed);
    assert_eq!(live.mechanism, replayed.mechanism, "epoch {}: mechanism provenance", live.epoch);
    assert_eq!(live.accepted_bids, replayed.accepted_bids);
    assert_eq!(
        live.bids.encode_to_bytes(),
        replayed.bids.encode_to_bytes(),
        "epoch {}: recovered bid vector differs",
        live.epoch
    );
    assert_eq!(
        live.outcome.encode_to_bytes(),
        replayed.outcome.encode_to_bytes(),
        "epoch {}: recovered outcome differs",
        live.epoch
    );
}

/// Run 9 journaled epochs live, strip the last eight seals (simulating a
/// crash after the bids were journaled but before the seals were), and
/// recover in a fresh service: the replayed outcomes must be
/// byte-identical to the live ones, the sealed epoch must survive
/// verbatim, and the recovered journal must pass offline verification
/// with its seals in epoch order. Eight in-flight epochs are more than
/// two clear groups' worth (the cap is 3), so recovery re-clears them
/// in several groups.
fn replay_equivalence(transport: TransportKind, name: &str) {
    const EPOCHS: u64 = 9;
    let path = temp_journal(name);
    let mut config = market_config(transport, 1);
    config.journal = Some(JournalConfig::new(&path).with_fsync(FsyncPolicy::Never));
    let mut live =
        MarketService::start(config, Arc::new(DoubleAuctionProgram::new())).expect("live market");
    let lived = drive_epochs(&mut live, EPOCHS);
    live.shutdown();
    assert_eq!(verify_log(&path).unwrap().seals, EPOCHS, "live run sealed every epoch");

    let stripped: Vec<u64> = (1..EPOCHS).collect();
    strip_seals(&path, &stripped);

    let mut config = market_config(transport, 1);
    config.journal = Some(JournalConfig::new(&path).recovering());
    let recovered = MarketService::start(config, Arc::new(DoubleAuctionProgram::new()))
        .expect("recovered market");
    let report = recovered.recovery_report().expect("recovery happened").clone();
    assert_eq!(report.sealed.len(), 1, "epoch 0's seal survived");
    assert_eq!(report.sealed[0].epoch, 0);
    assert_eq!(
        report.sealed[0].outcome.encode_to_bytes(),
        lived[0].outcome.encode_to_bytes(),
        "sealed outcome must survive verbatim"
    );
    assert_eq!(report.replayed.len(), stripped.len(), "every stripped epoch re-cleared");
    assert_eq!(report.next_epoch, EPOCHS);
    for (live_epoch, replayed) in lived[1..].iter().zip(&report.replayed) {
        assert_byte_identical(live_epoch, replayed);
    }
    let stats = recovered.shutdown();
    assert!(
        stats.clear_groups > 1 && stats.clear_groups < stats.epochs_closed,
        "{} in-flight epochs re-cleared in {} drives",
        stats.epochs_closed,
        stats.clear_groups
    );

    // Recovery re-sealed the replayed epochs: the journal verifies
    // offline and carries every seal again, in epoch order.
    assert_eq!(verify_log(&path).unwrap().seals, EPOCHS, "replayed epochs re-sealed");
    assert_eq!(sealed_epochs(&path), (0..EPOCHS).collect::<Vec<_>>(), "chain is in epoch order");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn recovered_inproc_market_replays_byte_identical_outcomes() {
    replay_equivalence(TransportKind::InProc, "inproc");
}

#[test]
fn recovered_tcp_market_replays_byte_identical_outcomes() {
    replay_equivalence(TransportKind::Tcp, "tcp");
}

/// Replay equivalence for the NP-hard mechanism: the combinatorial
/// winner determination is budgeted in search **nodes**, not wall-clock,
/// so a recovered market re-running the same branch-and-bound (fallback
/// and all) re-clears stripped epochs byte-identically — and the journal
/// seals every epoch under the mechanism's name.
#[test]
fn recovered_combinatorial_market_replays_byte_identical_outcomes() {
    let path = temp_journal("combinatorial");
    let spec: MechanismSpec = "combinatorial,budget=5000".parse().unwrap();
    let mut config = market_config(TransportKind::InProc, 1).with_mechanism(spec);
    config.journal = Some(JournalConfig::new(&path).with_fsync(FsyncPolicy::Never));
    let mut live = MarketService::start_from_spec(config).expect("live market");
    let lived = drive_epochs(&mut live, 3);
    live.shutdown();
    let summary = verify_log(&path).expect("live journal verifies");
    assert_eq!(summary.seals, 3, "live run sealed every epoch");
    assert_eq!(
        summary.mechanism.as_deref(),
        Some("combinatorial-auction"),
        "seals carry the clearing mechanism's name"
    );

    strip_seals(&path, &[1, 2]);

    let mut config = market_config(TransportKind::InProc, 1).with_mechanism(spec);
    config.journal = Some(JournalConfig::new(&path).recovering());
    let recovered = MarketService::start_from_spec(config).expect("recovered market");
    let report = recovered.recovery_report().expect("recovery happened").clone();
    assert_eq!(report.replayed.len(), 2, "epochs 1 and 2 re-cleared");
    for (live_epoch, replayed) in lived[1..].iter().zip(&report.replayed) {
        assert_eq!(live_epoch.mechanism, "combinatorial-auction");
        assert!(!live_epoch.outcome.is_abort(), "the combinatorial epochs really cleared");
        assert_byte_identical(live_epoch, replayed);
    }
    recovered.shutdown();
    assert_eq!(verify_log(&path).unwrap().seals, 3, "replayed epochs re-sealed");

    // Mechanism provenance is load-bearing: the same journal refuses to
    // recover under any other mechanism rather than silently re-clearing
    // history with different rules.
    strip_seals(&path, &[1, 2]);
    let mut config = market_config(TransportKind::InProc, 1);
    config.journal = Some(JournalConfig::new(&path).recovering());
    match MarketService::start_from_spec(config) {
        Err(MarketError::MechanismMismatch { journaled, configured }) => {
            assert_eq!(journaled, "combinatorial-auction");
            assert_eq!(configured, "double-auction");
        }
        Err(other) => panic!("expected a mechanism mismatch, got {other}"),
        Ok(_) => panic!("recovery under a different mechanism must be refused"),
    }
    std::fs::remove_file(&path).unwrap();
}

/// Replay equivalence under chaos: a corrupt-only fault plan (faults
/// that never change the message *count*, so the per-link fault schedule
/// seen by epoch 0 on a fresh mesh is reproducible on the recovered
/// service's fresh mesh). One live epoch, seal stripped, re-cleared
/// after recovery — byte-identical outcome, ⊥ or not.
#[test]
fn recovered_chaos_epoch_replays_byte_identically() {
    let path = temp_journal("chaos");
    let mut config = market_config(TransportKind::InProc, 1);
    config.chaos = Some(FaultPlan::seeded(1234).with_corrupt(0.35));
    config.session_deadline = Duration::from_secs(5);
    config.journal = Some(JournalConfig::new(&path).with_fsync(FsyncPolicy::Never));
    let mut live = MarketService::start(config, Arc::new(DoubleAuctionProgram::new()))
        .expect("live chaos market");
    let lived = drive_epochs(&mut live, 1);
    live.shutdown();

    strip_seals(&path, &[0]);

    let mut config = market_config(TransportKind::InProc, 1);
    config.chaos = Some(FaultPlan::seeded(1234).with_corrupt(0.35));
    config.session_deadline = Duration::from_secs(5);
    config.journal = Some(JournalConfig::new(&path).recovering());
    let recovered = MarketService::start(config, Arc::new(DoubleAuctionProgram::new()))
        .expect("recovered chaos market");
    let report = recovered.recovery_report().expect("recovery happened").clone();
    assert_eq!(report.replayed.len(), 1);
    assert_byte_identical(&lived[0], &report.replayed[0]);
    recovered.shutdown();
    assert!(verify_log(&path).is_ok());
    std::fs::remove_file(&path).unwrap();
}
