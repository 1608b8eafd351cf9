//! Layer replay: the epochs a workload actually cleared, fed through each
//! layer's public functions on one thread, every call inside a benchmark
//! span under a per-epoch parent. Nothing here runs during a timed phase.
//!
//! A block's time is the single-threaded cost of driving all `m` instances
//! to decision with instant delivery — the protocol's total processor work,
//! not its critical path; `pool.epoch` is the same session on real worker
//! threads over the workload's transport.

use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use dauctioneer_core::blocks::{
    encode_fixed, BidAgreement, CommonCoin, DataTransfer, InputValidation,
};
use dauctioneer_core::{
    BatchSession, Block, Distribution, DynProgram, FrameworkConfig, OutboxCtx, ParallelAllocator,
    SessionPool, TransportKind,
};
use dauctioneer_crypto::{chain_genesis, chain_link, sha256, Commitment};
use dauctioneer_market::cluster::{read_frame, write_frame, ControlMsg, PeerInfo};
use dauctioneer_market::{
    build_program, market_capacities, FsyncPolicy, Journal, TelemetryConfig, DEFAULT_EPSILON_PPM,
};
use dauctioneer_mechanisms::combinatorial::DEFAULT_NODE_BUDGET;
use dauctioneer_mechanisms::solver::BranchBoundConfig;
use dauctioneer_mechanisms::{DoubleAuction, SharedRng, StandardAuction, StandardAuctionConfig};
use dauctioneer_net::{
    frame_wire_into, LatencyModel, MeshOptions, MuxEndpoint, MuxMesh, ShardedHub, ThreadedHub,
    TrafficMetrics, Transport,
};
use dauctioneer_types::{BidVector, Decode, Encode, Outcome, ProviderId, SessionId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Report;
use crate::spans::Recorder;
use crate::stats::{median, quantile};
use crate::workloads::{Mechanism, Workload};

/// Epochs fed through the journal layer (each costs `epoch_bids` fsyncs).
const JOURNAL_REPLAY_EPOCHS: usize = 40;

/// One epoch to replay: the vector the program cleared and, for market
/// workloads, the outcome it sealed (the replay must reproduce it).
pub struct ReplayEpoch {
    pub epoch: u64,
    pub session: u64,
    pub seed: u64,
    pub bids: BidVector,
    pub outcome: Option<Bytes>,
}

/// Drive `blocks` (one per provider) to decision on this thread, delivering
/// every message at once in FIFO order. Returns the messages and bytes sent.
fn pump<B: Block>(blocks: &mut [B]) -> (u64, u64) {
    let m = blocks.len();
    let mut pending: VecDeque<(usize, ProviderId, Bytes)> = VecDeque::new();
    let (mut msgs, mut bytes) = (0u64, 0u64);
    let mut collect = |ctx: &mut OutboxCtx, from: usize, pending: &mut VecDeque<_>| {
        for (to, payload) in ctx.drain() {
            msgs += 1;
            bytes += payload.len() as u64;
            pending.push_back((to.index(), ProviderId(from as u32), payload));
        }
    };
    for (i, block) in blocks.iter_mut().enumerate() {
        let mut ctx = OutboxCtx::new(ProviderId(i as u32), m);
        block.start(&mut ctx);
        collect(&mut ctx, i, &mut pending);
    }
    while let Some((to, from, payload)) = pending.pop_front() {
        let mut ctx = OutboxCtx::new(ProviderId(to as u32), m);
        blocks[to].on_message(from, &payload, &mut ctx);
        collect(&mut ctx, to, &mut pending);
    }
    assert!(blocks.iter().all(|b| b.result().is_some()), "a replayed block did not decide");
    (msgs, bytes)
}

fn provider_rng(seed: u64, provider: usize) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_add(provider as u64 + 1))
}

/// The persistent pool a replay clears on, over the workload's transport.
/// The mesh object only has to outlive the pool's workers.
enum Mesh {
    InProc(#[allow(dead_code)] ShardedHub),
    Tcp(#[allow(dead_code)] MuxMesh),
}

fn replay_pool(
    w: &Workload,
    framework: &FrameworkConfig,
    program: &Arc<DynProgram>,
    seed: u64,
) -> Result<(Mesh, Vec<TrafficMetrics>, SessionPool), String> {
    Ok(match w.transport {
        TransportKind::InProc => {
            let mut hub = ShardedHub::new(w.m, 1, LatencyModel::Zero, seed);
            let metrics = hub.shard_metrics();
            let pool = SessionPool::new(framework, program, hub.take_endpoints());
            (Mesh::InProc(hub), metrics, pool)
        }
        TransportKind::Tcp => {
            let mut mesh = MuxMesh::loopback(w.m, 1).map_err(|e| e.to_string())?;
            let metrics = vec![mesh.metrics()];
            let pool = SessionPool::new(framework, program, mesh.take_lane_endpoints());
            (Mesh::Tcp(mesh), metrics, pool)
        }
    })
}

fn traffic_totals(metrics: &[TrafficMetrics]) -> (u64, u64) {
    metrics.iter().fold((0, 0), |(msgs, bytes), m| {
        let snap = m.snapshot();
        (msgs + snap.total_messages(), bytes + snap.total_bytes())
    })
}

fn p50(report: &mut Report, name: &str, samples: &mut [f64], unit: &'static str) -> Option<f64> {
    let value = median(samples)?;
    report.layer(name, value, unit);
    Some(value)
}

/// What the rest of the traced run needs from the replay.
pub struct Replayed {
    /// The blocking path of one epoch in ms (journal append of the closing
    /// bid + pool epoch + journal seal): what `service.unattributed_ms` is
    /// measured against.
    pub blocking_ms: f64,
    /// Mean size of a protocol frame on the pool's transport, bytes.
    pub frame_bytes: usize,
}

/// Replay `epochs` through every layer and report the per-layer metrics
/// that come from it.
pub fn replay(
    w: &Workload,
    epochs: &[ReplayEpoch],
    market_seed: u64,
    out_dir: &Path,
    rec: &mut Recorder,
    report: &mut Report,
) -> Result<Replayed, String> {
    let config = w.market_config(market_seed, None, TelemetryConfig::default());
    let framework = config.framework();
    let program = Arc::new(build_program(&config));
    let central: Box<dyn dauctioneer_mechanisms::Mechanism> = match w.mechanism {
        Mechanism::Double => Box::new(DoubleAuction::new()),
        // What `MechanismSpec::Standard` builds, run centrally.
        Mechanism::Standard => Box::new(StandardAuction::new(StandardAuctionConfig {
            capacities: market_capacities(&config),
            solver: BranchBoundConfig {
                epsilon_ppm: DEFAULT_EPSILON_PPM,
                max_nodes: DEFAULT_NODE_BUDGET,
                shuffle_providers: true,
            },
        })),
    };
    let (mesh, metrics, pool) = replay_pool(w, &framework, &program, market_seed)?;
    let journal_path = out_dir.join(format!("replay_{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&journal_path);
    let journal = w
        .journaled
        .then(|| Journal::create(&journal_path, FsyncPolicy::Always).map_err(|e| e.to_string()))
        .transpose()?;

    let m = w.m;
    let (mut pool_msgs, mut pool_bytes) = (Vec::new(), Vec::new());
    let (mut accept_us, mut seal_us) = (Vec::new(), Vec::<f64>::new());
    let (mut agreement_msgs, mut winners, mut vector_bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut chain_tip = chain_genesis();
    let mut mismatches = 0usize;

    for (n, ep) in epochs.iter().enumerate() {
        let id = ep.epoch;
        rec.span("epoch", None, id, |rec, root| {
            let root = Some(root);
            // types.codec
            let encoded = rec.span("codec.encode", root, id, |_, _| ep.bids.encode_to_bytes());
            rec.span("codec.decode", root, id, |_, _| {
                std::hint::black_box(BidVector::decode_all(&encoded).expect("own encoding"))
            });
            vector_bytes.push(encoded.len() as f64);
            // crypto
            rec.span("crypto.commit", root, id, |_, _| {
                std::hint::black_box(Commitment::commit(&encoded, [7u8; 32]))
            });
            chain_tip =
                rec.span("crypto.chain_link", root, id, |_, _| chain_link(&chain_tip, &encoded));

            // market.journal: the write-ahead appends of the epoch's bids…
            let journal = journal.as_ref().filter(|_| n < JOURNAL_REPLAY_EPOCHS);
            if let Some(journal) = journal {
                rec.span("journal.append_accepted", root, id, |_, _| {
                    for (user, bid) in ep.bids.valid_user_bids() {
                        let called = Instant::now();
                        journal.append_accepted(id, user, *bid).expect("replay journal append");
                        accept_us.push(called.elapsed().as_secs_f64() * 1e6);
                    }
                });
            }

            // core.pool: the same session on a persistent pool, no market
            // around it.
            let before = traffic_totals(&metrics);
            let columns = rec.span("pool.epoch", root, id, |_, _| {
                let session = BatchSession {
                    session: SessionId(ep.session),
                    collected: vec![ep.bids.clone(); m],
                    seed: ep.seed,
                };
                pool.run_epoch(vec![vec![session]], Duration::from_secs(60))
            });
            let after = traffic_totals(&metrics);
            pool_msgs.push((after.0 - before.0) as f64);
            pool_bytes.push((after.1 - before.1) as f64);
            let outcome: &Outcome = &columns[0][0][0];
            let unanimous = columns[0].iter().all(|provider| provider[0] == *outcome);
            let reproduced =
                ep.outcome.as_ref().map_or(true, |live| outcome.encode_to_bytes() == *live);
            if outcome.is_abort() || !unanimous || !reproduced {
                mismatches += 1;
            }

            // …and the seal.
            if let Some(journal) = journal {
                rec.span("journal.append_seal", root, id, |_, _| {
                    journal
                        .append_seal(
                            id,
                            SessionId(ep.session),
                            ep.seed,
                            ep.bids.num_valid_users() as u64,
                            ep.bids.clone(),
                            central.name(),
                            outcome.clone(),
                        )
                        .expect("replay journal seal");
                });
            }

            // core.blocks, each driven alone.
            let cfg = framework.clone().with_session(SessionId(ep.session));
            rec.span("blocks.bid_agreement", root, id, |_, _| {
                let mut blocks: Vec<BidAgreement> = (0..m)
                    .map(|i| {
                        BidAgreement::new(
                            ProviderId(i as u32),
                            m,
                            &ep.bids,
                            &mut provider_rng(ep.seed, i),
                        )
                    })
                    .collect();
                agreement_msgs.push(pump(&mut blocks).0 as f64);
            });
            rec.span("blocks.input_validation", root, id, |_, _| {
                let input = encode_fixed(&ep.bids);
                let mut blocks: Vec<InputValidation> = (0..m)
                    .map(|i| {
                        InputValidation::new(
                            ProviderId(i as u32),
                            m,
                            input.clone(),
                            cfg.validation_hash_only,
                        )
                    })
                    .collect();
                pump(&mut blocks);
            });
            rec.span("blocks.common_coin", root, id, |_, _| {
                let mut blocks: Vec<CommonCoin> = (0..m)
                    .map(|i| {
                        CommonCoin::new(
                            ProviderId(i as u32),
                            m,
                            Distribution::UniformUnit,
                            &mut provider_rng(ep.seed, i),
                        )
                    })
                    .collect();
                pump(&mut blocks);
            });
            rec.span("blocks.data_transfer", root, id, |_, _| {
                // One task-graph edge: k+1 replicas ship the epoch's result
                // to everyone else.
                let value = outcome.encode_to_bytes();
                let senders: Vec<ProviderId> = ProviderId::all(w.k + 1).collect();
                let receivers: Vec<ProviderId> = ProviderId::all(m).skip(w.k + 1).collect();
                let mut blocks: Vec<DataTransfer> = (0..m)
                    .map(|i| {
                        let me = ProviderId(i as u32);
                        let input = (i <= w.k).then(|| value.clone());
                        DataTransfer::new(me, senders.clone(), receivers.clone(), input)
                    })
                    .collect();
                pump(&mut blocks);
            });
            rec.span("blocks.allocator", root, id, |_, _| {
                let mut blocks: Vec<ParallelAllocator<DynProgram>> = (0..m)
                    .map(|i| {
                        ParallelAllocator::new(
                            cfg.clone(),
                            ProviderId(i as u32),
                            Arc::clone(&program),
                            ep.bids.clone(),
                            &mut provider_rng(ep.seed, i),
                        )
                    })
                    .collect();
                pump(&mut blocks);
            });

            // mechanisms: the paper's centralised baseline on this vector.
            let result = rec.span("mechanisms.clear", root, id, |_, _| {
                central.run(&ep.bids, &SharedRng::from_material(&ep.seed.to_le_bytes()))
            });
            winners.push(result.allocation.winners().len() as f64);
        });
    }
    if journal.is_some() {
        seal_us = rec.durations_us("journal.append_seal");
    }
    drop(journal);
    let _ = std::fs::remove_file(&journal_path);
    pool.shutdown();
    drop(mesh);
    if mismatches > 0 {
        report.fail(format!(
            "{mismatches} replayed epochs did not reproduce the live unanimous outcome"
        ));
    }

    let mut pool_ms: Vec<f64> = rec.durations_us("pool.epoch").iter().map(|d| d / 1e3).collect();
    let pool_p50 = p50(report, "pool.epoch_p50_ms", &mut pool_ms, "ms").unwrap_or(0.0);
    let msgs = p50(report, "pool.msgs_per_epoch", &mut pool_msgs, "count").unwrap_or(1.0);
    let bytes = p50(report, "pool.bytes_per_epoch", &mut pool_bytes, "B").unwrap_or(1.0);
    let accept = p50(report, "journal.append_accepted_p50_us", &mut accept_us, "us").unwrap_or(0.0);
    let seal = p50(report, "journal.append_seal_p50_us", &mut seal_us, "us").unwrap_or(0.0);
    for (metric, span) in [
        ("blocks.bid_agreement_us", "blocks.bid_agreement"),
        ("blocks.input_validation_us", "blocks.input_validation"),
        ("blocks.common_coin_us", "blocks.common_coin"),
        ("blocks.data_transfer_us", "blocks.data_transfer"),
        ("blocks.allocator_us", "blocks.allocator"),
        ("mechanisms.clear_p50_us", "mechanisms.clear"),
        ("codec.bidvector_encode_us", "codec.encode"),
        ("codec.bidvector_decode_us", "codec.decode"),
        ("crypto.commit_us", "crypto.commit"),
        ("crypto.chain_link_us", "crypto.chain_link"),
    ] {
        p50(report, metric, &mut rec.durations_us(span), "us");
    }
    if let Some(p95) = quantile(&mut rec.durations_us("mechanisms.clear"), 0.95) {
        report.layer("mechanisms.clear_p95_us", p95, "us");
    }
    p50(report, "blocks.bid_agreement_msgs", &mut agreement_msgs, "count");
    p50(report, "mechanisms.winners_per_epoch", &mut winners, "count");
    p50(report, "codec.bidvector_bytes", &mut vector_bytes, "B");
    // The benchmark's bookkeeping between the layer calls of one epoch:
    // what the per-epoch parent span does not pass on to a child.
    let mut parent_self = rec.self_us("epoch");
    if let Some(own) = median(&mut parent_self) {
        report.note("replay.parent_self_p50_us", format!("{own:.2}"));
    }
    Ok(Replayed {
        blocking_ms: pool_p50 + (accept + seal) / 1e3,
        frame_bytes: (bytes / msgs.max(1.0)).max(1.0) as usize,
    })
}

/// Ping-pong `rounds` payloads between two endpoints on two threads; the
/// median round trip in µs.
fn roundtrip_us<T: Transport + Send>(
    mut a: T,
    mut b: T,
    payload: &Bytes,
    rounds: usize,
) -> Option<f64> {
    let (peer_a, peer_b) = (a.me(), b.me());
    let mut samples = Vec::with_capacity(rounds);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for _ in 0..rounds {
                let Ok((_, payload)) = b.recv_timeout(Duration::from_secs(5)) else { return };
                b.send(peer_a, payload);
            }
        });
        for _ in 0..rounds {
            let sent = Instant::now();
            a.send(peer_b, payload.clone());
            if a.recv_timeout(Duration::from_secs(5)).is_err() {
                return;
            }
            samples.push(sent.elapsed().as_secs_f64() * 1e6);
        }
    });
    median(&mut samples)
}

/// The `net` layer with this workload's `m` and its mean protocol frame.
pub fn net_layer(w: &Workload, frame_bytes: usize, report: &mut Report) -> Result<(), String> {
    let payload = Bytes::from(vec![0xA5u8; frame_bytes.max(1)]);

    let mut hub = ThreadedHub::new(2, LatencyModel::Zero, 1);
    let mut ends = hub.take_endpoints();
    let (b, a) = (ends.pop().expect("two endpoints"), ends.pop().expect("two endpoints"));
    if let Some(rtt) = roundtrip_us(a, b, &payload, 2_000) {
        report.layer("net.hub_roundtrip_us", rtt, "us");
    }

    let mut bringup_ms = Vec::new();
    for _ in 0..7 {
        let started = Instant::now();
        let mesh = MuxMesh::loopback(w.m, 1).map_err(|e| e.to_string())?;
        bringup_ms.push(started.elapsed().as_secs_f64() * 1e3);
        drop(mesh);
    }
    if let Some(v) = median(&mut bringup_ms) {
        report.layer("net.mux_bringup_ms", v, "ms");
    }

    let mut mesh = MuxMesh::loopback(w.m, 1).map_err(|e| e.to_string())?;
    report.layer("net.io_threads", mesh.io_threads() as f64, "count");
    let mut lane = mesh.take_lane_endpoints().pop().expect("one lane");
    let b = lane.remove(1);
    let a = lane.remove(0);
    let peer_b = b.me();
    const FRAMES: usize = 50_000;
    let started = Instant::now();
    // The endpoint is `Send`, not `Sync`: it moves to the reader and back.
    let (received, b) = std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut got = 0usize;
            while got < FRAMES && b.recv_timeout(Duration::from_secs(5)).is_ok() {
                got += 1;
            }
            (got, b)
        });
        for _ in 0..FRAMES {
            a.send(peer_b, payload.clone());
        }
        reader.join().expect("frame reader")
    });
    let elapsed = started.elapsed().as_secs_f64();
    if received == FRAMES {
        report.layer("net.mux_frames_per_s", FRAMES as f64 / elapsed, "1/s");
    }
    if let Some(rtt) = roundtrip_us(a, b, &payload, 2_000) {
        report.layer("net.mux_roundtrip_us", rtt, "us");
    }
    drop(lane);
    drop(mesh);

    const ENCODES: u32 = 200_000;
    let mut buf = BytesMut::with_capacity(frame_bytes + 64);
    let started = Instant::now();
    for tag in 0..ENCODES {
        buf.clear();
        frame_wire_into(u64::from(tag), std::hint::black_box(&payload), &mut buf);
        std::hint::black_box(&buf);
    }
    report.layer(
        "net.frame_encode_ns",
        started.elapsed().as_secs_f64() * 1e9 / f64::from(ENCODES),
        "ns",
    );
    Ok(())
}

/// SHA-256 throughput over a buffer far larger than any one message.
pub fn crypto_throughput(report: &mut Report) {
    let buffer = vec![0x5Au8; 1 << 20];
    let started = Instant::now();
    for _ in 0..8 {
        std::hint::black_box(sha256(std::hint::black_box(&buffer)));
    }
    let mb = 8.0 * buffer.len() as f64 / 1e6;
    report.layer("crypto.sha256_mb_per_s", mb / started.elapsed().as_secs_f64(), "MB/s");
}

/// The `market.cluster` layer's pieces, each alone over loopback: a mesh
/// bring-up as `run_provider` does one per epoch, and one control round trip
/// of this workload's work order.
pub fn cluster_layer(w: &Workload, bids: &BidVector, report: &mut Report) -> Result<(), String> {
    let m = w.m;
    let mut bringup_ms = Vec::new();
    for round in 0..30u32 {
        let listeners: Vec<TcpListener> = (0..m)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let addrs: Vec<_> = listeners
            .iter()
            .map(|l| l.local_addr())
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let options = MeshOptions {
            incarnation: round + 1,
            min_incarnations: vec![round + 1; m],
            budget: Duration::from_secs(2),
        };
        let started = Instant::now();
        let joined = std::thread::scope(|scope| {
            let handles: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(i, listener)| {
                    let (addrs, options) = (&addrs, &options);
                    scope.spawn(move || {
                        MuxEndpoint::establish_with_options(
                            ProviderId(i as u32),
                            1,
                            listener,
                            addrs,
                            options,
                        )
                    })
                })
                .collect();
            let endpoints: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            let up = started.elapsed();
            endpoints.iter().all(|e| matches!(e, Ok(Ok(_)))).then_some(up)
        });
        match joined {
            Some(up) => bringup_ms.push(up.as_secs_f64() * 1e3),
            None => return Err("mesh bring-up failed during the cluster layer replay".to_string()),
        }
    }
    if let Some(v) = median(&mut bringup_ms) {
        report.layer("cluster.mesh_bringup_p50_ms", v, "ms");
    }

    let order = ControlMsg::WorkOrder {
        epoch: 1,
        session: 2,
        seed: 3,
        bids: bids.clone(),
        peers: (0..m)
            .map(|id| PeerInfo {
                id: id as u32,
                mesh_addr: "127.0.0.1:65535".to_string(),
                incarnation: 1,
            })
            .collect(),
    };
    report.layer("cluster.workorder_bytes", order.encode_to_bytes().len() as f64, "B");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    const ROUNDS: usize = 500;
    let mut samples = Vec::with_capacity(ROUNDS);
    std::thread::scope(|scope| -> Result<(), String> {
        scope.spawn(move || {
            let Ok((mut stream, _)) = listener.accept() else { return };
            let _ = stream.set_nodelay(true);
            while let Ok(ControlMsg::WorkOrder { epoch, .. }) = read_frame(&mut stream) {
                let reply = ControlMsg::OutcomeReport { epoch, id: 0, outcome: Outcome::Abort };
                if write_frame(&mut stream, &reply).is_err() {
                    return;
                }
            }
        });
        let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        for _ in 0..ROUNDS {
            let sent = Instant::now();
            write_frame(&mut stream, &order).map_err(|e| e.to_string())?;
            read_frame(&mut stream).map_err(|e| e.to_string())?;
            samples.push(sent.elapsed().as_secs_f64() * 1e6);
        }
        write_frame(&mut stream, &ControlMsg::Shutdown).map_err(|e| e.to_string())
    })?;
    if let Some(v) = median(&mut samples) {
        report.layer("cluster.control_roundtrip_p50_us", v, "us");
    }
    Ok(())
}
