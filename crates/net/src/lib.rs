//! Message-passing substrate for the distributed auctioneer.
//!
//! The paper evaluates its prototype on Guifi.net community-network nodes
//! with ØMQ as the messaging layer. This crate is the workspace's
//! substitute substrate (see `docs/ARCHITECTURE.md`, "One engine, one
//! threaded driver, one simulator"): an abstraction for reliable point-to-point
//! messaging between the `m` providers, with the transport
//! concern pulled out so the rest of the system is transport-agnostic:
//!
//! * [`ThreadedHub`] / [`Endpoint`] — the in-process transport (one
//!   OS thread per provider, crossbeam channels). This is what the
//!   wall-clock benchmarks run on: computation parallelises across
//!   threads (Fig. 5's regime).
//! * [`MuxMesh`] / [`MuxEndpoint`] — the real-socket transport: a full
//!   TCP mesh over loopback or LAN, one connection per provider pair
//!   shared by any number of lanes, carrying the same session-tagged
//!   frames delimited by length-prefixed wire frames
//!   ([`mux_frame_into`] / [`wire_decode`]). This is the
//!   deployment-shaped backend, standing in for the paper's ØMQ
//!   prototype on Guifi nodes.
//! * [`ShardedHub`] — `N` independent in-process meshes with sessions
//!   partitioned across them by a stable hash of the session tag
//!   ([`shard_for`]), lifting the one-thread-per-provider ceiling on
//!   multi-session batch throughput.
//! * [`ChaosTransport`] / [`FaultPlan`] — seeded, deterministic fault
//!   injection (drop / duplicate / reorder / delay / corrupt per link)
//!   wrapping any [`Transport`], so every test and bench can run under
//!   adversarial network conditions replayable from a seed. It is also
//!   the one way to add real-time link latency:
//!   [`FaultPlan::community_net`] delays every message by the paper's
//!   community-network profile, where injected latency dominates cheap
//!   computations (Fig. 4's regime), over either transport.
//! * [`LatencyModel`] — per-link delay distributions for the simulator's
//!   virtual clocks.
//! * [`Transport`] — the minimal blocking point-to-point interface all of
//!   the above present to the protocol layer.
//! * [`frame()`] / [`unframe`] — tag-framing used by the protocol layer to
//!   multiplex many building-block instances over one link.
//! * [`TrafficMetrics`] — per-provider message/byte counters, reported by
//!   the benchmark harness as the communication-overhead breakdown.
//!
//! Channels are reliable and FIFO per sender–receiver pair, matching the
//! paper's model assumption of reliable channels (§3.3); the TCP backend
//! inherits both properties from TCP itself.
//!
//! # Example
//!
//! ```
//! use dauctioneer_net::{ThreadedHub, LatencyModel};
//! use bytes::Bytes;
//! use std::time::Duration;
//!
//! let mut hub = ThreadedHub::new(2, LatencyModel::Zero, 42);
//! let mut endpoints = hub.take_endpoints();
//! let e1 = endpoints.remove(1);
//! let e0 = endpoints.remove(0);
//! e0.send(e1.me(), Bytes::from_static(b"hello"));
//! let (from, payload) = e1.recv_timeout(Duration::from_secs(1)).unwrap();
//! assert_eq!(from, e0.me());
//! assert_eq!(&payload[..], b"hello");
//! ```

#![deny(missing_docs)]

pub mod chaos;
pub mod frame;
pub mod hello;
pub mod hub;
pub mod latency;
pub mod liveness;
pub mod metrics;
mod reactor;
pub mod shard;
pub mod tcp;
pub mod transport;

pub use chaos::{
    ChaosMetrics, ChaosStats, ChaosTransport, FaultDecision, FaultPlan, FaultPlanError,
};
pub use frame::{
    frame, frame_wire_into, mux_frame_into, mux_pack, mux_unframe, mux_unpack, unframe,
    wire_decode, wire_encode, wire_encode_into, FrameAssembler, FrameError, WireError,
    MAX_WIRE_FRAME, MUX_LANE_BITS, MUX_MAX_LANES, MUX_RAW_TAG, MUX_SESSION_BITS,
};
pub use hello::{Hello, HELLO_LEN, HELLO_MAGIC};
pub use hub::{Endpoint, RecvError, ThreadedHub};
pub use latency::LatencyModel;
pub use liveness::{Backoff, LivenessConfig, LivenessMetrics, LivenessTracker, PeerState};
pub use metrics::{ProviderTraffic, TrafficMetrics, TrafficSnapshot};
pub use shard::{shard_for, ShardedHub};
pub use tcp::{MeshOptions, MuxEndpoint, MuxMesh};
pub use transport::Transport;
