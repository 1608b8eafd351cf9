//! Integration tests for the multiplexed TCP mesh: lane isolation over
//! shared sockets, raw-frame transparency, coalesced flush on shutdown,
//! the `TCP_NODELAY` loopback-latency contract, and the O(1) reactor
//! I/O-thread accounting that replaces the old per-peer O(m) roster
//! (which itself replaced the mesh-per-shard O(m·shards)).

use std::time::{Duration, Instant};

use bytes::Bytes;
use dauctioneer_net::{frame, MuxMesh, RecvError};
use dauctioneer_types::ProviderId;

const RECV: Duration = Duration::from_secs(5);

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
            let (tag, body) = dauctioneer_net::unframe(&payload).unwrap();
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
