//! Integration tests for the TCP mesh: FIFO per link, frame integrity
//! across the byte stream, shutdown semantics, traffic accounting, lane
//! isolation over shared sockets, raw-frame transparency, coalesced
//! flush on shutdown, the `TCP_NODELAY` loopback-latency contract, and
//! the O(1) reactor I/O-thread accounting that replaces the old per-peer
//! O(m) roster (which itself replaced the mesh-per-shard O(m·shards)).

use std::time::{Duration, Instant};

use bytes::Bytes;
use dauctioneer_net::{frame, unframe, MuxEndpoint, MuxMesh, RecvError};
use dauctioneer_types::ProviderId;

const RECV: Duration = Duration::from_secs(5);

/// The endpoints of a single-lane loopback mesh of `m` providers, in id
/// order.
fn one_lane(m: usize) -> Vec<MuxEndpoint> {
    MuxMesh::loopback(m, 1).unwrap().take_lane_endpoints().remove(0)
}

#[test]
fn fifo_per_link() {
    let eps = one_lane(2);
    for i in 0..100u8 {
        eps[0].send(ProviderId(1), Bytes::copy_from_slice(&[i]));
    }
    for i in 0..100u8 {
        let (_, payload) = eps[1].recv_timeout(RECV).unwrap();
        assert_eq!(payload[0], i, "out-of-order TCP delivery");
    }
}

#[test]
fn message_boundaries_survive_the_byte_stream() {
    // Frames of very different sizes back-to-back on one socket: the
    // wire layer must re-delimit them exactly.
    let eps = one_lane(2);
    let sizes = [0usize, 1, 7, 8, 9, 1024, 65_537];
    for &len in &sizes {
        eps[0].send(ProviderId(1), Bytes::from(vec![len as u8; len]));
    }
    for &len in &sizes {
        let (_, payload) = eps[1].recv_timeout(RECV).unwrap();
        assert_eq!(payload.len(), len);
        assert!(payload.iter().all(|b| *b == len as u8));
    }
}

#[test]
fn session_tags_survive_a_shared_lane() {
    // Two sessions' frames interleaved over the same lane: the receiver
    // can attribute every frame to its session by tag alone.
    let eps = one_lane(2);
    for round in 0..10u64 {
        for session in [7u64, 9] {
            let body = format!("s{session}-r{round}");
            eps[0].send(ProviderId(1), frame(session, body.as_bytes()));
        }
    }
    let mut seen = std::collections::HashMap::<u64, u64>::new();
    for _ in 0..20 {
        let (_, payload) = eps[1].recv_timeout(RECV).unwrap();
        let (tag, body) = unframe(&payload).unwrap();
        let round = seen.entry(tag).or_insert(0);
        assert_eq!(
            std::str::from_utf8(body).unwrap(),
            format!("s{tag}-r{round}"),
            "frame attributed to the wrong session"
        );
        *round += 1;
    }
    assert_eq!(seen[&7], 10);
    assert_eq!(seen[&9], 10);
}

#[test]
fn dropping_an_endpoint_disconnects_its_peers() {
    let mut eps = one_lane(2);
    let e1 = eps.remove(1);
    let e0 = eps.remove(0);
    // Queued messages still arrive before the disconnect is observed.
    e0.send(ProviderId(1), Bytes::from_static(b"last words"));
    drop(e0);
    let (_, payload) = e1.recv_timeout(RECV).unwrap();
    assert_eq!(&payload[..], b"last words");
    let err = loop {
        match e1.recv_timeout(RECV) {
            Ok(_) => continue,
            Err(err) => break err,
        }
    };
    assert_eq!(err, RecvError::Disconnected);
}

#[test]
fn recv_timeout_expires_without_traffic() {
    let eps = one_lane(2);
    assert_eq!(eps[0].recv_timeout(Duration::from_millis(20)), Err(RecvError::Timeout));
}

#[test]
fn broadcast_reaches_all_peers_but_not_self() {
    let eps = one_lane(3);
    eps[1].broadcast(&Bytes::from_static(b"b"));
    assert!(eps[0].recv_timeout(RECV).is_ok());
    assert!(eps[2].recv_timeout(RECV).is_ok());
    std::thread::sleep(Duration::from_millis(30));
    assert!(eps[1].try_recv().is_none());
}

#[test]
fn concurrent_threads_exchange_over_sockets() {
    let handles: Vec<_> = one_lane(4)
        .into_iter()
        .map(|ep| {
            std::thread::spawn(move || {
                ep.broadcast(&Bytes::from_static(b"ping"));
                let mut got = 0;
                while got < 3 {
                    if ep.recv_timeout(RECV).is_ok() {
                        got += 1;
                    }
                }
                got
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), 3);
    }
}

#[test]
fn metrics_count_tcp_traffic() {
    let mut mesh = MuxMesh::loopback(2, 1).unwrap();
    let metrics = mesh.metrics();
    let eps = mesh.take_lane_endpoints().remove(0);
    eps[0].send(ProviderId(1), Bytes::from_static(b"12345"));
    eps[1].recv_timeout(RECV).unwrap();
    let snap = metrics.snapshot();
    assert_eq!(snap.per_provider[0].sent_bytes, 5);
    assert_eq!(snap.per_provider[1].received_bytes, 5);
}

#[test]
fn lanes_are_isolated_namespaces_over_one_socket() {
    let mut mesh = MuxMesh::loopback(2, 3).unwrap();
    let lanes = mesh.take_lane_endpoints();
    // Interleave traffic on all three lanes of the same provider pair.
    for round in 0..5u64 {
        for (lane, row) in lanes.iter().enumerate() {
            let body = format!("lane{lane}-r{round}");
            row[0].send(ProviderId(1), frame(100 + lane as u64, body.as_bytes()));
        }
    }
    // Each lane receives exactly its own frames, in its own FIFO order.
    for (lane, row) in lanes.iter().enumerate() {
        for round in 0..5u64 {
            let (from, payload) = row[1].recv_timeout(RECV).unwrap();
            assert_eq!(from, ProviderId(0));
            let (tag, body) = unframe(&payload).unwrap();
            assert_eq!(tag, 100 + lane as u64, "frame crossed lanes");
            assert_eq!(std::str::from_utf8(body).unwrap(), format!("lane{lane}-r{round}"));
        }
        assert!(row[1].try_recv().is_none(), "lane {lane} got a foreign frame");
    }
}

#[test]
fn full_mesh_delivers_between_all_pairs_on_every_lane() {
    let m = 3;
    let lanes_n = 2;
    let mut mesh = MuxMesh::loopback(m, lanes_n).unwrap();
    let lanes = mesh.take_lane_endpoints();
    for (lane, row) in lanes.iter().enumerate() {
        for from in 0..m as u32 {
            for to in 0..m as u32 {
                if from == to {
                    continue;
                }
                let body = frame(7, &[lane as u8, from as u8, to as u8]);
                row[from as usize].send(ProviderId(to), body.clone());
                let (who, payload) = row[to as usize].recv_timeout(RECV).unwrap();
                assert_eq!(who, ProviderId(from));
                assert_eq!(&payload[..], &body[..]);
            }
        }
    }
}

#[test]
fn raw_payloads_cross_the_mux_verbatim() {
    // Garbage that is not a session frame (what the GarbageFrames
    // adversary emits), a payload whose leading u64 cannot fold, and an
    // empty message: all must arrive byte-identical.
    let mut mesh = MuxMesh::loopback(2, 1).unwrap();
    let lanes = mesh.take_lane_endpoints();
    let payloads: Vec<Bytes> = vec![
        Bytes::from_static(b"\xde\xad\xbe"),
        Bytes::from_static(b""),
        Bytes::copy_from_slice(&u64::MAX.to_le_bytes()),
        frame(u64::MAX, b"unfoldable tag"),
    ];
    for p in &payloads {
        lanes[0][0].send(ProviderId(1), p.clone());
    }
    for p in &payloads {
        let (_, got) = lanes[0][1].recv_timeout(RECV).unwrap();
        assert_eq!(&got[..], &p[..], "payload mangled by the mux");
    }
}

#[test]
fn io_threads_are_o_1_regardless_of_mesh_size_and_lanes() {
    // The whole point of the reactor: one I/O thread per mesh, no
    // matter how many providers or lanes — where the old design paid
    // 2m(m−1) blocking reader/writer threads per mesh. (The matching
    // OS-level /proc accounting lives in `thread_roster.rs`, which
    // needs a process of its own to count exactly.)
    for (m, lanes) in [(2, 1), (3, 4), (4, 1), (4, 4)] {
        let mesh = MuxMesh::loopback(m, lanes).unwrap();
        assert_eq!(
            mesh.io_threads(),
            1,
            "m={m} lanes={lanes}: mesh size or lane count leaked into the I/O thread roster"
        );
        // The gauge agrees through the traffic snapshot.
        assert_eq!(mesh.metrics().snapshot().io_threads, 1);
    }
    // Endpoints report the same constant.
    let mut mesh = MuxMesh::loopback(3, 2).unwrap();
    let lanes = mesh.take_lane_endpoints();
    assert_eq!(lanes[0][0].io_threads(), 1);
    assert_eq!(lanes[1][2].io_threads(), 1);
}

#[test]
fn queued_frames_flush_on_shutdown() {
    // Drop a provider's every lane endpoint with frames still queued:
    // the coalescing writers must drain and flush before the sockets
    // close, so nothing is lost (a decided engine's final sends must
    // reach the peers).
    let mut mesh = MuxMesh::loopback(2, 2).unwrap();
    let mut lanes = mesh.take_lane_endpoints();
    let receiver_l0 = lanes[0].remove(1);
    let receiver_l1 = lanes[1].remove(1);
    let sender_l0 = lanes[0].remove(0);
    let sender_l1 = lanes[1].remove(0);
    for i in 0..200u64 {
        sender_l0.send(ProviderId(1), frame(i, b"lane zero"));
        sender_l1.send(ProviderId(1), frame(i, b"lane one"));
    }
    drop(sender_l0);
    drop(sender_l1); // last endpoint: joins writers (drain + flush)
    for _ in 0..200 {
        let (_, p0) = receiver_l0.recv_timeout(RECV).expect("lane-0 frame lost in shutdown");
        let (_, p1) = receiver_l1.recv_timeout(RECV).expect("lane-1 frame lost in shutdown");
        assert_eq!(&p0[8..], b"lane zero");
        assert_eq!(&p1[8..], b"lane one");
    }
    // After the flush the peers observe a clean disconnect.
    let err = loop {
        match receiver_l0.recv_timeout(RECV) {
            Ok(_) => continue,
            Err(err) => break err,
        }
    };
    assert_eq!(err, RecvError::Disconnected);
}

#[test]
fn nodelay_keeps_small_frame_latency_below_the_nagle_floor() {
    // The Nagle contract: a lone small frame (nothing to coalesce with)
    // must cross loopback promptly. With TCP_NODELAY unset, Nagle +
    // delayed ACK would park exactly this pattern for tens of
    // milliseconds; the bound below fails loudly in that world while
    // leaving ample slack for scheduler noise.
    let mut mesh = MuxMesh::loopback(2, 1).unwrap();
    let lanes = mesh.take_lane_endpoints();
    let mut samples = Vec::with_capacity(40);
    for i in 0..20u64 {
        let start = Instant::now();
        lanes[0][0].send(ProviderId(1), frame(i, b"ping"));
        lanes[0][1].recv_timeout(RECV).expect("ping lost");
        samples.push(start.elapsed());
        // Round trips alternate direction so both streams are exercised.
        let start = Instant::now();
        lanes[0][1].send(ProviderId(0), frame(i, b"pong"));
        lanes[0][0].recv_timeout(RECV).expect("pong lost");
        samples.push(start.elapsed());
    }
    // Median, not worst case: a single scheduler stall on a loaded CI
    // runner must not flake the test, while Nagle + delayed ACK would
    // push essentially EVERY sample past the bound.
    samples.sort();
    let median = samples[samples.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median small-frame loopback latency {median:?} smells like Nagle (NODELAY unset?)"
    );
}

#[test]
fn shared_metrics_span_all_lanes() {
    let mut mesh = MuxMesh::loopback(2, 2).unwrap();
    let metrics = mesh.metrics();
    let lanes = mesh.take_lane_endpoints();
    lanes[0][0].send(ProviderId(1), frame(1, b"abc"));
    lanes[1][0].send(ProviderId(1), frame(2, b"de"));
    lanes[0][1].recv_timeout(RECV).unwrap();
    lanes[1][1].recv_timeout(RECV).unwrap();
    let snap = metrics.snapshot();
    assert_eq!(snap.per_provider[0].sent_messages, 2);
    assert_eq!(snap.per_provider[1].received_messages, 2);
}

#[test]
fn dropping_one_lane_leaves_the_others_running() {
    let mut mesh = MuxMesh::loopback(2, 2).unwrap();
    let mut lanes = mesh.take_lane_endpoints();
    let dead_lane = lanes.remove(1);
    drop(dead_lane); // both endpoints of lane 1 gone
    let live = lanes.remove(0);
    // Lane 0 still works over the same (shared) sockets.
    live[0].send(ProviderId(1), frame(3, b"still here"));
    let (_, payload) = live[1].recv_timeout(RECV).unwrap();
    assert_eq!(&payload[8..], b"still here");
}

#[test]
fn one_lost_peer_clears_all_peers_open_before_lanes_disconnect() {
    let mut mesh = MuxMesh::loopback(3, 1).unwrap();
    let mut row = mesh.take_lane_endpoints().remove(0);
    assert!(row.iter().all(|e| e.all_peers_open()), "a fresh mesh is whole");

    // Provider 2 says one last thing and leaves; its drop returns only
    // after the frame and the FIN have reached the kernel.
    let leaver = row.remove(2);
    leaver.send(ProviderId(0), frame(9, b"last words"));
    drop(leaver);

    let survivor = &row[0];
    let started = Instant::now();
    while survivor.all_peers_open() {
        assert!(started.elapsed() < RECV, "the loss of provider 2 was never observed");
        std::thread::sleep(Duration::from_millis(1));
    }
    // What the leaver sent before closing is already queued...
    let (from, payload) = survivor.try_recv().expect("frame precedes the closed signal");
    assert_eq!(from, ProviderId(2));
    assert_eq!(&payload[8..], b"last words");
    // ...and the lane is not Disconnected: provider 1 is still there.
    assert_eq!(survivor.recv_timeout(Duration::from_millis(20)), Err(RecvError::Timeout));
    row[1].send(ProviderId(0), frame(9, b"still here"));
    let (from, _) = survivor.recv_timeout(RECV).unwrap();
    assert_eq!(from, ProviderId(1));
}
