//! Session-tag isolation: a straggler framed with session *t* must not
//! perturb a concurrent session *t+1* sharing the same transport — the
//! property the batch layer's multiplexing stands on.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use dauctioneer_core::{
    drive, run_batch, run_session, BatchSession, Block, DoubleAuctionProgram, FrameworkConfig,
    OutboxCtx, RunOptions, SessionEngine,
};
use dauctioneer_net::{frame, LatencyModel, ThreadedHub};
use dauctioneer_types::{BidVector, Bw, Money, ProviderAsk, ProviderId, SessionId, UserBid};

fn bids(valuation: f64) -> BidVector {
    BidVector::builder(2, 1)
        .user_bid(0, UserBid::new(Money::from_f64(valuation), Bw::from_f64(0.5)))
        .user_bid(1, UserBid::new(Money::from_f64(0.9), Bw::from_f64(0.5)))
        .provider_ask(0, ProviderAsk::new(Money::from_f64(0.2), Bw::from_f64(2.0)))
        .build()
}

fn cfg_for(session: u64) -> FrameworkConfig {
    FrameworkConfig::new(3, 1, 2, 1).with_session(SessionId(session))
}

/// Capture genuine session-`t` wire frames: what provider 0 of session
/// `t` sends on start (already session-framed by its engine).
fn stragglers_of_session(t: u64) -> Vec<(ProviderId, Bytes)> {
    let engines = SessionEngine::roster(
        &cfg_for(t),
        &Arc::new(DoubleAuctionProgram::new()),
        vec![bids(1.0); 3],
        77,
    );
    let mut engines = engines;
    let mut ctx = OutboxCtx::new(ProviderId(0), 3);
    engines[0].start(&mut ctx);
    ctx.drain()
}

/// Stragglers of a finished session `t`, pre-loaded into every inbox of
/// the shared mesh, must not change session `t+1`'s threaded outcome.
#[test]
fn threaded_session_survives_stale_frames_in_inboxes() {
    let t = 41u64;
    let clean = run_session(
        &cfg_for(t + 1),
        Arc::new(DoubleAuctionProgram::new()),
        vec![bids(1.1); 3],
        &RunOptions::default(),
    )
    .unwrap();
    let clean_outcome = clean.unanimous();
    assert!(!clean_outcome.is_abort());

    let mut hub = ThreadedHub::new(3, LatencyModel::Zero, 0);
    let endpoints = hub.take_endpoints();
    // Session-t stragglers (and outright garbage) arrive before any
    // session-(t+1) traffic: they sit first in every provider's inbox.
    for (to, payload) in stragglers_of_session(t) {
        endpoints[0].send(to, payload);
    }
    for ep in &endpoints {
        for peer in ep.peers() {
            ep.send(peer, frame(t, b"left-over round payload"));
            ep.send(peer, Bytes::from_static(b"xy")); // too short for a frame
        }
    }

    let engines = SessionEngine::roster(
        &cfg_for(t + 1),
        &Arc::new(DoubleAuctionProgram::new()),
        vec![bids(1.1); 3],
        0,
    );
    let handles: Vec<_> = endpoints
        .into_iter()
        .zip(engines)
        .map(|(mut endpoint, mut engine)| {
            std::thread::spawn(move || drive(&mut engine, &mut endpoint, Duration::from_secs(30)))
        })
        .collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    drop(hub);

    for outcome in &outcomes {
        assert_eq!(outcome, &clean_outcome, "a stale frame perturbed session t+1");
    }
}

/// Two *concurrent* sessions multiplexed over one hub — with stale
/// frames of a third, dead session pre-loaded into every inbox — each
/// reach exactly the outcome they reach alone.
#[test]
fn concurrent_sessions_are_isolated_under_injected_stragglers() {
    use dauctioneer_core::drive_multi;

    let program = Arc::new(DoubleAuctionProgram::new());
    let specs = [(SessionId(7), bids(1.05), 300u64), (SessionId(8), bids(1.2), 400u64)];

    // Reference: each session in isolation.
    let alone: Vec<_> = specs
        .iter()
        .map(|(session, bids, seed)| {
            run_session(
                &FrameworkConfig::new(3, 1, 2, 1).with_session(*session),
                Arc::clone(&program),
                vec![bids.clone(); 3],
                &RunOptions { seed: *seed, ..RunOptions::default() },
            )
            .unwrap()
            .unanimous()
        })
        .collect();

    // Shared mesh: session 6 never runs, but its frames were "left over"
    // in every inbox before sessions 7 and 8 start.
    let mut hub = ThreadedHub::new(3, LatencyModel::Zero, 0);
    let endpoints = hub.take_endpoints();
    for ep in &endpoints {
        for peer in ep.peers() {
            ep.send(peer, frame(6, b"dead session straggler"));
        }
    }

    let handles: Vec<_> = endpoints
        .into_iter()
        .enumerate()
        .map(|(j, mut endpoint)| {
            let program = Arc::clone(&program);
            let specs = specs.clone();
            std::thread::spawn(move || {
                let mut engines: Vec<_> = specs
                    .into_iter()
                    .map(|(session, bids, seed)| {
                        SessionEngine::new(
                            FrameworkConfig::new(3, 1, 2, 1).with_session(session),
                            ProviderId(j as u32),
                            Arc::clone(&program),
                            bids,
                            seed + j as u64 + 1,
                        )
                    })
                    .collect();
                drive_multi(&mut engines, &mut endpoint, Duration::from_secs(30)).0
            })
        })
        .collect();
    let per_provider: Vec<Vec<_>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    drop(hub);

    for (s, expected) in alone.iter().enumerate() {
        assert!(!expected.is_abort());
        for (j, outcomes) in per_provider.iter().enumerate() {
            assert_eq!(
                &outcomes[s], expected,
                "session {s} at provider {j} perturbed by multiplexing with stragglers"
            );
        }
    }
}

/// The batch layer end to end: `run_batch` multiplexes distinct-tag
/// sessions over one hub and every session's unanimous outcome matches
/// its isolated run (`run_batch`'s own unit tests cover ≥ 8 sessions).
#[test]
fn batch_sessions_match_isolated_outcomes() {
    let program = Arc::new(DoubleAuctionProgram::new());
    let specs: Vec<BatchSession> = (0..3)
        .map(|s| BatchSession::uniform(SessionId(20 + s), bids(1.0 + 0.07 * s as f64), 3, 900 + s))
        .collect();
    let batch = run_batch(
        &FrameworkConfig::new(3, 1, 2, 1),
        Arc::clone(&program),
        specs.clone(),
        &RunOptions::default(),
    )
    .unwrap();
    assert!(batch.all_agreed());
    for (s, spec) in specs.into_iter().enumerate() {
        let expected = run_session(
            &FrameworkConfig::new(3, 1, 2, 1).with_session(spec.session),
            Arc::clone(&program),
            spec.collected,
            &RunOptions { seed: spec.seed, ..RunOptions::default() },
        )
        .unwrap()
        .unanimous();
        assert_eq!(batch.sessions[s].unanimous(), expected);
    }
}
