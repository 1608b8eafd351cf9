//! `mesh_sweep` — the reactor mesh across provider counts: real
//! `MuxMesh::loopback` meshes at m = 4/8/16/32 (override with
//! `--mesh-size M` for a single size) at a fixed lane count, measuring
//! bring-up time, steady-state frames/s through the reactor, and the
//! I/O-thread gauge. Under the old design each mesh paid `2m(m−1)`
//! blocking threads, so bring-up and steady-state cost grew with m; on
//! the reactor both must stay flat-to-sublinear and `io_threads` must
//! read 1 at every m.
//!
//! ```text
//! mesh_sweep [--csv] [--json] [--mesh-size M]
//! ```
//!
//! `--json` writes `BENCH_wire.json` (`mesh_sweep` rows) into the
//! current directory — run it from the workspace root —
//! which `ci/compare_bench.py` gates against `BENCH_baseline/`, so a
//! thread-per-peer relapse fails CI as data, not as a prose claim.

use std::time::{Duration, Instant};

use dauctioneer::cli::Flags;
use dauctioneer_bench::json::{provenance, write_bench_file, JsonArray, JsonObject};
use dauctioneer_bench::Table;
use dauctioneer_net::{frame, MuxMesh};
use dauctioneer_types::ProviderId;

/// A typical protocol message body (commit messages with a 32-byte
/// digest plus encoded bids land in this range).
const BODY: &[u8] = &[0xA5; 200];

/// Lane count held fixed across the mesh m-sweep (the shard axis is
/// `batch_throughput`'s job; here only m varies).
const MESH_LANES: usize = 2;

/// Frames pushed through each mesh for the steady-state rate.
const MESH_FRAMES: usize = 20_000;

/// One m-sweep measurement: bring up a real loopback mesh of `m`
/// providers, then stream [`MESH_FRAMES`] frames corner-to-corner
/// (node 0 → node m−1) through the reactor.
fn mesh_point(m: usize) -> (f64, f64, usize) {
    let start = Instant::now();
    let mut mesh = MuxMesh::loopback(m, MESH_LANES).expect("loopback mesh bring-up");
    let bring_up_s = start.elapsed().as_secs_f64();
    let io_threads = mesh.io_threads();
    let mut lanes = mesh.take_lane_endpoints();
    // Move node 0's lane-0 endpoint out (it crosses into the sender
    // thread below); node m−1 shifts down one slot.
    let sender = lanes[0].remove(0);
    let receiver = &lanes[0][m - 2];
    let to = ProviderId((m - 1) as u32);
    let payload = frame(42, BODY);
    let recv_timeout = Duration::from_secs(30);
    // Warm both directions of the path (connect-time lazies, first-frame
    // page faults) before the clock starts.
    for _ in 0..64 {
        sender.send(to, payload.clone());
        receiver.recv_timeout(recv_timeout).expect("warm-up frame lost");
    }
    // Sender and receiver on separate threads: the bounded per-connection
    // ring is meant to backpressure a fast producer, so a single-threaded
    // send-all-then-receive loop would deadlock by design.
    let start = Instant::now();
    std::thread::scope(|s| {
        let payload = payload.clone();
        s.spawn(move || {
            for _ in 0..MESH_FRAMES {
                sender.send(to, payload.clone());
            }
        });
        for _ in 0..MESH_FRAMES {
            receiver.recv_timeout(recv_timeout).expect("steady-state frame lost");
        }
    });
    let frames_per_s = MESH_FRAMES as f64 / start.elapsed().as_secs_f64();
    (bring_up_s, frames_per_s, io_threads)
}

fn main() {
    let (mut csv, mut emit_json, mut mesh_size) = (false, false, None::<usize>);
    Flags::new("usage: mesh_sweep [FLAG]...   the loopback MuxMesh at m = 4..32")
        .switch("--csv", "emit CSV instead of an aligned table", &mut csv)
        .switch("--json", "also write BENCH_wire.json", &mut emit_json)
        .optional("--mesh-size M", "one mesh size (default: 4, 8, 16, 32)", &mut mesh_size)
        .parse(std::env::args().skip(1));
    let mesh_sizes = mesh_size.map_or(vec![4, 8, 16, 32], |m| vec![m.max(2)]);

    let mut mesh_rows = JsonArray::new();
    let mut table = Table::new(&["mesh m", "lanes", "bring-up", "frames/s", "io threads"], csv);
    for &m in &mesh_sizes {
        let (bring_up_s, frames_per_s, io_threads) = mesh_point(m);
        table.row(vec![
            m.to_string(),
            MESH_LANES.to_string(),
            format!("{:.1}ms", bring_up_s * 1e3),
            format!("{frames_per_s:.0}"),
            io_threads.to_string(),
        ]);
        let mut row = JsonObject::new();
        row.int("m", m as u64)
            .int("lanes", MESH_LANES as u64)
            .num("bring_up_s", bring_up_s)
            .num("frames_per_s", frames_per_s)
            .int("io_threads", io_threads as u64);
        mesh_rows.push(row.finish());
    }
    println!("mesh m-sweep ({MESH_LANES} lanes, {MESH_FRAMES} frames corner-to-corner):");
    print!("{}", table.render());

    if !emit_json {
        return;
    }
    let mut config = JsonObject::new();
    config
        .int("body_bytes", BODY.len() as u64)
        .int("mesh_lanes", MESH_LANES as u64)
        .int("mesh_frames", MESH_FRAMES as u64);
    let mut top = JsonObject::new();
    top.str("bench", "mesh_sweep")
        .raw("provenance", &provenance())
        .raw("config", &config.finish())
        .raw("mesh_sweep", &mesh_rows.finish());
    match write_bench_file("wire", &top.finish()) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write BENCH_wire.json: {e}"),
    }
}
