//! End-to-end sessions over the real TCP transport: the engines decide
//! the same outcomes as in-process runs, and concurrent sessions sharing
//! one socket mesh stay isolated by their session tags.

use std::sync::Arc;
use std::time::Duration;

use dauctioneer_core::{
    drive, drive_multi, run_batch_with, run_session, unanimous, BatchConfig, BatchSession,
    DoubleAuctionProgram, FrameworkConfig, RunOptions, SessionEngine, SessionPool,
};
use dauctioneer_net::{shard_for, MuxEndpoint, MuxMesh};
use dauctioneer_types::{BidVector, Bw, Money, Outcome, ProviderAsk, SessionId, UserBid};

const DEADLINE: Duration = Duration::from_secs(30);

fn bids(valuation: f64) -> BidVector {
    BidVector::builder(2, 1)
        .user_bid(0, UserBid::new(Money::from_f64(valuation), Bw::from_f64(0.5)))
        .user_bid(1, UserBid::new(Money::from_f64(0.9), Bw::from_f64(0.5)))
        .provider_ask(0, ProviderAsk::new(Money::from_f64(0.2), Bw::from_f64(2.0)))
        .build()
}

/// The endpoints of a fresh single-lane loopback mesh, in provider order.
fn one_lane(m: usize) -> Vec<MuxEndpoint> {
    MuxMesh::loopback(m, 1).unwrap().take_lane_endpoints().remove(0)
}

/// Run one session with every provider on its own thread over a TCP
/// mesh, returning each provider's outcome. Every provider keeps its
/// endpoint until all have decided: a closed peer connection reads as
/// `Disconnected` to a session still running.
fn run_over_tcp(cfg: &FrameworkConfig, valuation: f64, seed: u64) -> Vec<Outcome> {
    let endpoints = one_lane(cfg.m);
    let engines = SessionEngine::roster(
        cfg,
        &Arc::new(DoubleAuctionProgram::new()),
        vec![bids(valuation); cfg.m],
        seed,
    );
    let handles: Vec<_> = engines
        .into_iter()
        .zip(endpoints)
        .map(|(mut engine, mut endpoint)| {
            std::thread::spawn(move || (drive(&mut engine, &mut endpoint, DEADLINE), endpoint))
        })
        .collect();
    let decided: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    decided.into_iter().map(|(outcome, _)| outcome).collect()
}

#[test]
fn tcp_session_agrees_and_matches_inproc() {
    let cfg = FrameworkConfig::new(3, 1, 2, 1).with_session(SessionId(5));
    let over_tcp = run_over_tcp(&cfg, 1.2, 42);
    let tcp_outcome = unanimous(over_tcp.iter().map(Some));
    assert!(!tcp_outcome.is_abort(), "TCP session must clear");

    // The protocol cannot observe the transport: same seeds, same pair.
    let inproc = run_session(
        &cfg,
        Arc::new(DoubleAuctionProgram::new()),
        vec![bids(1.2); 3],
        &RunOptions { seed: 42, ..RunOptions::default() },
    );
    assert_eq!(tcp_outcome, inproc.unanimous());
}

#[test]
fn concurrent_sessions_stay_isolated_on_a_shared_socket_mesh() {
    // Two sessions multiplexed over ONE TCP mesh: every frame of both
    // sessions crosses the same three sockets, and only the session tag
    // routes it. Outcomes must match each session run alone.
    let cfg = FrameworkConfig::new(3, 1, 2, 1);
    let sessions = [(SessionId(11), 1.1, 7u64), (SessionId(12), 1.3, 19u64)];

    let endpoints = one_lane(cfg.m);
    let program = Arc::new(DoubleAuctionProgram::new());
    let handles: Vec<_> = endpoints
        .into_iter()
        .enumerate()
        .map(|(j, mut endpoint)| {
            let cfg = cfg.clone();
            let program = Arc::clone(&program);
            std::thread::spawn(move || {
                let mut engines: Vec<_> = sessions
                    .iter()
                    .map(|&(session, valuation, seed)| {
                        SessionEngine::new(
                            cfg.clone().with_session(session),
                            dauctioneer_types::ProviderId(j as u32),
                            Arc::clone(&program),
                            bids(valuation),
                            seed + j as u64 + 1,
                        )
                    })
                    .collect();
                (drive_multi(&mut engines, &mut endpoint, DEADLINE).0, endpoint)
            })
        })
        .collect();
    // Endpoints close only once every provider is done (as in `run_over_tcp`).
    let decided: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let per_provider: Vec<Vec<Outcome>> =
        decided.into_iter().map(|(outcomes, _)| outcomes).collect();

    for (s, &(session, valuation, seed)) in sessions.iter().enumerate() {
        let multiplexed = unanimous(per_provider.iter().map(|outcomes| Some(&outcomes[s])));
        assert!(!multiplexed.is_abort(), "session {session} aborted under multiplexing");
        let alone = run_session(
            &cfg.clone().with_session(session),
            Arc::new(DoubleAuctionProgram::new()),
            vec![bids(valuation); 3],
            &RunOptions { seed, ..RunOptions::default() },
        );
        assert_eq!(multiplexed, alone.unanimous(), "session {session} perturbed by its neighbour");
    }
}

/// Clear `sessions` through a [`SessionPool`] over the given shard
/// endpoints and return each session's unanimous outcome keyed by tag.
fn pool_outcomes<T>(
    cfg: &FrameworkConfig,
    shard_endpoints: Vec<Vec<T>>,
    sessions: &[BatchSession],
) -> Vec<(SessionId, Outcome)>
where
    T: dauctioneer_core::Transport + Send + 'static,
{
    let shards = shard_endpoints.len();
    let pool = SessionPool::new(cfg, &Arc::new(DoubleAuctionProgram::new()), shard_endpoints);
    let mut shard_specs: Vec<Vec<BatchSession>> = (0..shards).map(|_| Vec::new()).collect();
    for spec in sessions {
        shard_specs[shard_for(spec.session, shards)].push(spec.clone());
    }
    let order: Vec<Vec<SessionId>> =
        shard_specs.iter().map(|specs| specs.iter().map(|s| s.session).collect()).collect();
    let columns = pool.run_epoch(shard_specs, DEADLINE);
    pool.shutdown();
    let mut out = Vec::new();
    for (s, tags) in order.iter().enumerate() {
        for (i, &tag) in tags.iter().enumerate() {
            out.push((tag, unanimous(columns[s].iter().map(|provider| Some(&provider[i])))));
        }
    }
    out.sort_by_key(|(tag, _)| *tag);
    out
}

#[test]
fn two_lanes_of_one_mux_mesh_match_two_independent_meshes_and_inproc() {
    // The tentpole equivalence: the same two shards of sessions cleared
    // (a) over two lanes sharing ONE multiplexed socket mesh, (b) over
    // two fully independent TCP meshes, and (c) in process — identical
    // outcomes everywhere. The mux is pure wiring, invisible to the
    // protocol.
    let cfg = FrameworkConfig::new(3, 1, 2, 1);
    let sessions: Vec<BatchSession> = (0..6)
        .map(|s| BatchSession::uniform(SessionId(s), bids(1.0 + 0.07 * s as f64), 3, 400 + s))
        .collect();

    let mut mux = MuxMesh::loopback(cfg.m, 2).unwrap();
    let over_mux = pool_outcomes(&cfg, mux.take_lane_endpoints(), &sessions);

    let endpoints = (0..2).map(|_| one_lane(cfg.m)).collect();
    let over_independent = pool_outcomes(&cfg, endpoints, &sessions);

    let mut hub =
        dauctioneer_net::ShardedHub::new(cfg.m, 2, dauctioneer_net::LatencyModel::Zero, 0);
    let over_inproc = pool_outcomes(&cfg, hub.take_endpoints(), &sessions);

    assert_eq!(over_mux, over_independent, "mux lanes diverged from independent meshes");
    assert_eq!(over_mux, over_inproc, "socket path diverged from in-process");
    for (tag, outcome) in &over_mux {
        assert!(!outcome.is_abort(), "session {tag} aborted");
    }
}

#[test]
fn mux_mesh_thread_roster_is_o_1_while_pool_workers_scale_with_shards() {
    // The scaling claim, pinned as an accounting identity: the pool's
    // worker roster grows with shards (that is the parallelism knob),
    // but the TCP mesh underneath runs ONE reactor thread however many
    // shards share it — previously the mesh paid 2·m·(m−1) blocking
    // reader/writer threads, and before that each shard paid its own
    // mesh, i.e. O(m²·shards) threads total.
    let cfg = FrameworkConfig::new(3, 1, 2, 1);
    let m = cfg.m;
    for shards in [1usize, 4] {
        let mut mesh = MuxMesh::loopback(m, shards).unwrap();
        assert_eq!(mesh.io_threads(), 1, "{shards} lanes changed the mesh's I/O thread count");
        let pool = SessionPool::new(
            &cfg,
            &Arc::new(DoubleAuctionProgram::new()),
            mesh.take_lane_endpoints(),
        );
        assert_eq!(pool.threads_spawned(), m * shards, "worker roster is per shard by design");
        assert_eq!(pool.num_shards(), shards);
        pool.shutdown();
    }
}

#[test]
fn sharded_tcp_batch_matches_inproc_batch() {
    let cfg = FrameworkConfig::new(3, 1, 2, 1);
    let sessions: Vec<BatchSession> = (0..6)
        .map(|s| BatchSession::uniform(SessionId(s), bids(1.0 + 0.07 * s as f64), 3, 300 + s))
        .collect();
    let inproc = run_batch_with(
        &cfg,
        Arc::new(DoubleAuctionProgram::new()),
        sessions.clone(),
        &RunOptions::default(),
        &BatchConfig::default(),
    );
    let tcp = run_batch_with(
        &cfg,
        Arc::new(DoubleAuctionProgram::new()),
        sessions,
        &RunOptions::default(),
        &BatchConfig::tcp(3),
    );
    assert!(tcp.all_agreed());
    for (a, b) in inproc.sessions.iter().zip(&tcp.sessions) {
        assert_eq!(a.session, b.session);
        assert_eq!(a.unanimous(), b.unanimous(), "transport changed session {}", a.session);
    }
}
