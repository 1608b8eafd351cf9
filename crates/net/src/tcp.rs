//! Real-socket transport: a full, multiplexed TCP mesh of providers.
//!
//! The paper deploys its prototype on physical community-network nodes
//! with ØMQ sockets between them; [`crate::hub`] substitutes in-process
//! channels for speed. This module closes the realism gap: a
//! [`MuxEndpoint`] is one provider's handle onto **one lane** of a full
//! mesh of TCP connections (loopback or LAN), carrying exactly the same
//! session-tagged frames the in-process transport carries, delimited on
//! the byte stream by the wire frames of the [`frame`][mod@crate::frame]
//! module.
//!
//! Each provider pair shares one connection across any number of
//! logical lanes (= hub shards): the lane id is folded into the u64 tag
//! slot of every wire frame ([`mux_pack`][crate::frame::mux_pack]), so
//! `N` shards cost the connection count and thread count of *one* mesh
//! instead of `N`. A single-lane mesh (`MuxMesh::loopback(m, 1)`) gives
//! each provider exactly one endpoint. Entry points:
//!
//! * [`MuxEndpoint::establish_with_options`] — one provider process
//!   joins a multi-host mesh (dial / accept / hello bring-up);
//! * [`MuxMesh::loopback`] — every provider in one process, over
//!   loopback sockets.
//!
//! Topology and threads:
//!
//! * **one TCP connection per provider pair**, used bidirectionally.
//!   Provider `i` dials every peer `j < i` and accepts from every
//!   `j > i`; a 12-byte [`Hello`] (magic, peer id, incarnation number)
//!   identifies the dialler — and which *life* of it, so a restarted
//!   provider's previous incarnation is rejected at admission — and the
//!   mesh comes up regardless of start order. Bring-up is fully
//!   event-driven:
//!   nonblocking `connect` completion, accept readiness and hello bytes
//!   are all observed through an epoll poller — no dial-retry or
//!   accept-poll sleep loops — under one bounded budget
//!   ([`MeshOptions::budget`]) whose expiry reports
//!   a [`WireError::BringUpExpired`] naming each missing peer.
//!   [`MuxMesh::loopback`] skips the hello dance entirely and wires the
//!   pairs up through one ephemeral listener. `TCP_NODELAY` is set on
//!   every stream, dialled or accepted — the protocol's frames are small
//!   and latency-critical, the worst case for Nagle's algorithm.
//! * **one reactor thread per mesh** (per node, for a multi-host
//!   deployment) drives *every* connection: nonblocking sockets on an
//!   epoll event loop (`reactor`), per-connection
//!   [`FrameAssembler`][crate::FrameAssembler] reassembly on the read
//!   side, and the coalescing-batch discipline on the write side —
//!   frames queue into a **bounded per-connection ring**
//!   (`OUTBOUND_QUEUE_FRAMES`) and leave in one kernel write per batch
//!   (up to `WRITE_COALESCE_BYTES`), exactly the syscall profile of
//!   the old per-peer writer threads. What used to be `2m(m−1)` blocking
//!   threads per mesh is now **one thread, independent of both `m`
//!   and the lane count** — the property the thread-accounting tests and
//!   the [`TrafficMetrics::io_threads`][crate::TrafficMetrics::io_threads]
//!   gauge pin down.
//!
//! Shutdown is clean on either a decided session or a ⊥-abort: dropping
//! a provider's last lane endpoint blocks until the reactor has flushed
//! every queued frame of the node to the kernel and half-closed its
//! sockets (FIN *after* the data). Peers observe EOF, and their own
//! [`MuxEndpoint::recv_timeout`] reports [`RecvError::Disconnected`] as
//! soon as that one connection is gone and the frames it delivered are
//! drained — a session needs all `m` providers, so the engine's drive
//! loops map the first loss to the external ⊥ of §3.2.
//!
//! # Example
//!
//! ```
//! use dauctioneer_net::MuxMesh;
//! use bytes::Bytes;
//! use std::time::Duration;
//!
//! let mut mesh = MuxMesh::loopback(2, 1).unwrap();
//! let mut endpoints = mesh.take_lane_endpoints().remove(0);
//! let e1 = endpoints.remove(1);
//! let e0 = endpoints.remove(0);
//! e0.send(e1.me(), Bytes::from_static(b"over real sockets"));
//! let (from, payload) = e1.recv_timeout(Duration::from_secs(5)).unwrap();
//! assert_eq!(from, e0.me());
//! assert_eq!(&payload[..], b"over real sockets");
//! ```

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use polling::{connect_nonblocking, Events, Interest, PollMode, Poller};

use dauctioneer_types::ProviderId;

use crate::frame::{WireError, MAX_WIRE_FRAME, MUX_MAX_LANES};
use crate::hello::{Hello, HELLO_LEN};
use crate::hub::RecvError;
use crate::metrics::TrafficMetrics;
use crate::reactor::{self, ConnTx, NodeCloser, NodeIo, NodeSpec, ReactorHandle};

/// Default bring-up budget ([`MeshOptions::budget`]): how long dial
/// completion, accept readiness and hello exchange may take before the
/// mesh is reported down ([`WireError::BringUpExpired`]).
const DIAL_TIMEOUT: Duration = Duration::from_secs(10);

/// Pacing between redial attempts while a peer's listener comes up.
/// This is an epoll-wait timeout, not a sleep: any other readiness
/// (accepts, other dials) is still processed while a redial is pending.
const DIAL_RETRY: Duration = Duration::from_millis(5);

/// How long an accepted connection gets to present its hello before it
/// is dropped as a stray.
const HELLO_TIMEOUT: Duration = Duration::from_secs(2);

/// Knobs for one mesh bring-up ([`MuxEndpoint::establish_with_options`]).
///
/// The defaults reproduce the classic single-deployment behaviour:
/// incarnation 0 (a process that never died), no per-peer incarnation
/// floor (anything is admissible), and the standard `DIAL_TIMEOUT`
/// budget.
#[derive(Debug, Clone)]
pub struct MeshOptions {
    /// The incarnation number this provider presents in its hellos.
    pub incarnation: u32,
    /// Per-peer minimum incarnation this node honours on accept
    /// (`min_incarnations[j]` for peer `j`); hellos below the floor are
    /// dropped as a previous life. Missing entries default to 0.
    pub min_incarnations: Vec<u32>,
    /// Total bring-up budget (dials, accepts and hellos together).
    pub budget: Duration,
}

impl Default for MeshOptions {
    fn default() -> MeshOptions {
        MeshOptions { incarnation: 0, min_incarnations: Vec::new(), budget: DIAL_TIMEOUT }
    }
}

/// High-water mark for the coalescing write batches: the reactor refills
/// a connection's write buffer from its ring up to this size and issues
/// one kernel write per batch, so a loaded link pays one syscall per
/// *batch*, not per frame — unchanged from the writer-thread design.
pub(crate) const WRITE_COALESCE_BYTES: usize = 256 * 1024;

/// Bound on a peer connection's outbound ring (frames). Comfortably
/// above what protocol rounds burst; it exists so a peer that stops
/// reading cannot make the sender's memory grow without bound. A full
/// ring briefly blocks the sender until the reactor's batch drain
/// catches up — pure backpressure, never deadlock, since the reactor
/// always keeps draining read sides.
pub(crate) const OUTBOUND_QUEUE_FRAMES: usize = 1024;

/// In-flight state of one outgoing (dialling) connection during
/// event-driven bring-up.
#[derive(Debug)]
enum Dial {
    /// Nonblocking connect in flight; writability delivers the verdict.
    Connecting(TcpStream),
    /// Connected; the hello is partially written.
    Hello { stream: TcpStream, sent: usize },
    /// Last attempt failed (listener not up yet); redial at `retry_at`.
    Backoff { retry_at: Instant },
    /// Established and handed to `streams`.
    Done,
}

/// One accepted connection waiting to present its hello.
#[derive(Debug)]
struct PendingHello {
    stream: TcpStream,
    buf: [u8; HELLO_LEN],
    got: usize,
    deadline: Instant,
}

/// The mesh bring-up: one connected, [`TCP_NODELAY`]-enabled stream per
/// peer (`None` at our own index), regardless of start order.
///
/// Fully event-driven on a temporary poller: every dial is a nonblocking
/// connect whose completion (or refusal) arrives as writability, redials
/// are paced by the poll timeout instead of sleeps, accepts arrive as
/// listener readability, and hello bytes as connection readability — so
/// a whole mesh's bring-up burns no busy-wait cycles anywhere. Dials
/// present a [`HELLO_LEN`]-byte hello carrying `options.incarnation`;
/// accepted connections must present one within [`HELLO_TIMEOUT`], at
/// or above the peer's `options.min_incarnations` floor (port scanners,
/// misdirected clients and previous lives are dropped, not fatal). The
/// whole bring-up shares one `options.budget`: expiry reports
/// [`WireError::BringUpExpired`] naming each peer still missing.
/// Returned streams are nonblocking — their next stop is the reactor's
/// poller.
///
/// [`TCP_NODELAY`]: TcpStream::set_nodelay
fn establish_streams(
    me: ProviderId,
    listener: TcpListener,
    addrs: &[SocketAddr],
    options: &MeshOptions,
) -> io::Result<Vec<Option<TcpStream>>> {
    let m = addrs.len();
    assert!(me.index() < m, "provider {me} outside address table of {m}");

    let mut streams: Vec<Option<TcpStream>> = (0..m).map(|_| None).collect();
    let dial_count = me.index();
    let mut expected_accepts = m - 1 - me.index();
    if dial_count == 0 && expected_accepts == 0 {
        return Ok(streams);
    }

    // Poller keys: `0..dial_count` are dials (by peer id), `m` is the
    // listener, `m + 1 ..` are accepted connections awaiting hellos.
    let poller = Poller::new()?;
    let listener_key = m;
    let mut next_pending_key = m + 1;
    let mut pending: HashMap<usize, PendingHello> = HashMap::new();
    let mut events = Events::new();
    let deadline = Instant::now() + options.budget;
    let hello = Hello { peer: me.index() as u32, incarnation: options.incarnation }.encode();

    listener.set_nonblocking(true)?;
    if expected_accepts > 0 {
        poller.add(&listener, listener_key, Interest::READABLE, PollMode::Level)?;
    }
    let mut dials: Vec<Dial> = Vec::with_capacity(dial_count);
    let mut dials_done = 0;
    for (peer, &addr) in addrs.iter().enumerate().take(dial_count) {
        dials.push(start_dial(&poller, peer, addr)?);
    }

    while dials_done < dial_count || expected_accepts > 0 {
        let now = Instant::now();
        if now >= deadline {
            let missing = (0..m)
                .filter(|&peer| peer != me.index() && streams[peer].is_none())
                .map(|peer| format!("provider {peer} @ {}", addrs[peer]))
                .collect();
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                WireError::BringUpExpired { missing },
            ));
        }
        // Sleep until the next scheduled redial, hello expiry, or the
        // budget's end — or any readiness, whichever is first.
        let mut wake_at = deadline;
        for dial in &dials {
            if let Dial::Backoff { retry_at } = dial {
                wake_at = wake_at.min(*retry_at);
            }
        }
        for p in pending.values() {
            wake_at = wake_at.min(p.deadline);
        }
        poller.wait(&mut events, Some(wake_at.saturating_duration_since(now)))?;
        let now = Instant::now();

        for ev in events.iter() {
            if ev.key < dial_count {
                advance_dial(&poller, &mut dials[ev.key], &hello, now, &mut |stream| {
                    streams[ev.key] = Some(stream);
                    dials_done += 1;
                });
            } else if ev.key == listener_key {
                // Drain the accept queue; strays join `pending` too and
                // get weeded out by their hello (or its timeout).
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            let key = next_pending_key;
                            next_pending_key += 1;
                            if poller.add(&stream, key, Interest::READABLE, PollMode::Level).is_ok()
                            {
                                let deadline = now + HELLO_TIMEOUT;
                                pending.insert(
                                    key,
                                    PendingHello { stream, buf: [0; HELLO_LEN], got: 0, deadline },
                                );
                            }
                        }
                        Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                        Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                        Err(err) => return Err(err),
                    }
                }
            } else if let Some(p) = pending.remove(&ev.key) {
                if let Some((hello, stream)) = advance_hello(&poller, p, ev.key, &mut pending) {
                    // A well-formed hello from a peer we are actually
                    // waiting for, at an admissible incarnation; strays
                    // and previous lives of restarted peers are dropped.
                    let peer = hello.peer as usize;
                    if peer > me.index()
                        && hello.admissible(m, &options.min_incarnations)
                        && streams[peer].is_none()
                    {
                        let _ = stream.set_nodelay(true);
                        streams[peer] = Some(stream);
                        expected_accepts -= 1;
                    }
                }
            }
        }

        // Fire due redials and expire stale hellos.
        for (peer, dial) in dials.iter_mut().enumerate() {
            if matches!(dial, Dial::Backoff { retry_at } if *retry_at <= now) {
                *dial = start_dial(&poller, peer, addrs[peer])?;
            }
        }
        pending.retain(|_, p| {
            if p.deadline <= now {
                let _ = poller.delete(&p.stream);
                false
            } else {
                true
            }
        });
    }
    Ok(streams)
}

/// Begin (or re-begin) one nonblocking dial, registering it for
/// writability. A synchronous failure (no route, etc.) becomes a paced
/// backoff, exactly like a refused connect — the peer may simply not be
/// up yet, and the budget in [`establish_streams`] bounds the retrying.
fn start_dial(poller: &Poller, peer: usize, addr: SocketAddr) -> io::Result<Dial> {
    match connect_nonblocking(addr) {
        Ok(stream) => {
            poller.add(&stream, peer, Interest::WRITABLE, PollMode::Level)?;
            Ok(Dial::Connecting(stream))
        }
        Err(_) => Ok(Dial::Backoff { retry_at: Instant::now() + DIAL_RETRY }),
    }
}

/// Writability on a dialling connection: resolve the connect verdict
/// (`SO_ERROR`), then push hello bytes until done or `WouldBlock`.
/// Calls `complete` with the established stream on success.
fn advance_dial(
    poller: &Poller,
    dial: &mut Dial,
    hello: &[u8; HELLO_LEN],
    now: Instant,
    complete: &mut dyn FnMut(TcpStream),
) {
    let state = std::mem::replace(dial, Dial::Backoff { retry_at: now + DIAL_RETRY });
    let (stream, mut sent) = match state {
        Dial::Connecting(stream) => match stream.take_error() {
            Ok(None) => (stream, 0),
            Ok(Some(_)) | Err(_) => {
                // Refused (listener not up yet) or failed: redial later.
                let _ = poller.delete(&stream);
                return;
            }
        },
        Dial::Hello { stream, sent } => (stream, sent),
        done_or_backoff => {
            *dial = done_or_backoff; // stale event: nothing to advance
            return;
        }
    };
    loop {
        match (&stream).write(&hello[sent..]) {
            Ok(n) => {
                sent += n;
                if sent == hello.len() {
                    let _ = poller.delete(&stream);
                    let _ = stream.set_nodelay(true);
                    complete(stream);
                    *dial = Dial::Done;
                    return;
                }
            }
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                *dial = Dial::Hello { stream, sent };
                return;
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                let _ = poller.delete(&stream);
                return; // connection died mid-hello: redial later
            }
        }
    }
}

/// Readability on an accepted connection: read hello bytes. Returns the
/// decoded `(hello, stream)` once the hello is complete; re-inserts
/// into `pending` on `WouldBlock`; drops torn or silent strays and
/// connections whose magic does not decode as a [`Hello`].
fn advance_hello(
    poller: &Poller,
    mut p: PendingHello,
    key: usize,
    pending: &mut HashMap<usize, PendingHello>,
) -> Option<(Hello, TcpStream)> {
    loop {
        match (&p.stream).read(&mut p.buf[p.got..]) {
            Ok(0) => {
                let _ = poller.delete(&p.stream);
                return None; // torn before the hello finished: drop
            }
            Ok(n) => {
                p.got += n;
                if p.got == p.buf.len() {
                    let _ = poller.delete(&p.stream);
                    return Hello::decode(&p.buf).map(|hello| (hello, p.stream));
                }
            }
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                pending.insert(key, p);
                return None;
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                let _ = poller.delete(&p.stream);
                return None;
            }
        }
    }
}

/// One provider's share of the reactor wiring that **every lane
/// shares**. Lane endpoints hold it behind an [`Arc`]; when the last one
/// drops, the node's rings are flushed and its sockets half-closed —
/// drain-then-shutdown.
#[derive(Debug)]
struct MuxNodeCore {
    closer: Option<NodeCloser>,
    /// The reactor's whole-mesh signal ([`MuxEndpoint::all_peers_open`]).
    peers_open: Arc<AtomicBool>,
    /// Keeps the event loop alive while any lane endpoint lives.
    reactor: Arc<ReactorHandle>,
}

impl Drop for MuxNodeCore {
    fn drop(&mut self) {
        // Reached only after every lane endpoint of this provider is
        // gone; the reactor drains every lane's final frames to the
        // kernel before half-closing and acking.
        if let Some(closer) = self.closer.take() {
            closer.close();
        }
    }
}

/// One provider's handle onto **one lane** of a multiplexed TCP mesh.
///
/// All lanes of a provider share the same physical sockets and the
/// mesh's single reactor thread ([`MuxMesh`]); a lane is purely a
/// routing namespace — the lane id is folded into the u64 tag slot of
/// every wire frame ([`mux_pack`][crate::frame::mux_pack]) and incoming
/// frames are demultiplexed to the lane's own inbox. The API mirrors the
/// in-process [`Endpoint`][crate::Endpoint], so the protocol layer
/// cannot tell the two apart.
#[derive(Debug)]
pub struct MuxEndpoint {
    me: ProviderId,
    m: usize,
    lane: usize,
    /// Per-peer shared outbound rings (`None` at our own index).
    outbound: Vec<Option<ConnTx>>,
    inbox: Receiver<(ProviderId, Bytes)>,
    metrics: TrafficMetrics,
    core: Arc<MuxNodeCore>,
}

impl MuxEndpoint {
    /// Join a multiplexed mesh as provider `me`, returning one endpoint
    /// per lane — the multi-process deployment's entry point (in-process
    /// callers use [`MuxMesh::loopback`]). `addrs[j]` is provider `j`'s
    /// listening address; `listener` must be bound to `addrs[me]`'s
    /// port. All providers must agree on `lanes`.
    ///
    /// The call dials every peer with a smaller id (redialling,
    /// event-paced, until its listener is up) and accepts a connection
    /// from every peer with a larger id, so the `m` providers may start
    /// in any order. The provider presents `options.incarnation` in every
    /// hello, refuses hellos below each peer's incarnation floor (stale
    /// dials from a killed peer's previous life), and bounds bring-up by
    /// `options.budget`.
    ///
    /// # Errors
    ///
    /// Any socket-level failure, or peers that cannot be reached (dial)
    /// or do not connect (accept) within the budget — the timeout error
    /// wraps [`WireError::BringUpExpired`] naming each peer still
    /// outstanding, so a peer whose own bring-up failed leaves this call
    /// with a diagnosis, never blocked forever.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or exceeds [`MUX_MAX_LANES`].
    pub fn establish_with_options(
        me: ProviderId,
        lanes: usize,
        listener: TcpListener,
        addrs: &[SocketAddr],
        options: &MeshOptions,
    ) -> io::Result<Vec<MuxEndpoint>> {
        let m = addrs.len();
        let streams = establish_streams(me, listener, addrs, options)?;
        let metrics = TrafficMetrics::new(m);
        let (lane_txs, lane_rxs) = make_lane_channels(lanes);
        let spec = NodeSpec { me, streams, lanes: lane_txs, metrics: metrics.clone() };
        let (reactor, mut ios) = reactor::spawn(vec![spec])?;
        let io = ios.pop().expect("one node spec yields one node io");
        Ok(build_lane_endpoints(me, m, io, lane_rxs, metrics, &reactor))
    }

    /// This endpoint's provider id.
    pub fn me(&self) -> ProviderId {
        self.me
    }

    /// Number of providers in the mesh.
    pub fn num_providers(&self) -> usize {
        self.m
    }

    /// The lane this endpoint sends and receives on.
    pub fn lane(&self) -> usize {
        self.lane
    }

    /// All provider ids except this endpoint's own.
    pub fn peers(&self) -> impl Iterator<Item = ProviderId> + '_ {
        ProviderId::all(self.m).filter(move |p| *p != self.me)
    }

    /// The endpoint's traffic counters (shared across the whole mesh).
    pub fn metrics(&self) -> TrafficMetrics {
        self.metrics.clone()
    }

    /// OS threads doing I/O for this provider's node: the reactor's
    /// constant roster (one), shared by **all** of its lanes and — for a
    /// loopback mesh — all of its fellow providers, no matter how many
    /// peers or lanes are multiplexed.
    pub fn io_threads(&self) -> usize {
        self.core.reactor.io_threads()
    }

    /// `true` while every peer connection of this node is still open in
    /// both directions; `false` from the moment any peer's EOF, reset or
    /// dead write side is observed, and for good — a mesh never heals, it
    /// is replaced. From that moment every lane reads
    /// [`RecvError::Disconnected`] once its inbox is drained; frames read
    /// off a connection before its loss was observed are already in the
    /// lane inboxes when this turns `false`.
    pub fn all_peers_open(&self) -> bool {
        self.core.peers_open.load(Ordering::Acquire)
    }

    /// Queue `payload` for `to` on this lane. The reactor folds the lane
    /// into the wire tag and performs the socket write; sends to self or
    /// to departed peers are dropped silently (the run is over at that
    /// point).
    ///
    /// Payloads too large for even the raw-escape wire frame (within 8
    /// header bytes of [`MAX_WIRE_FRAME`])
    /// are dropped and counted rather than queued: protocol messages are
    /// orders of magnitude smaller, and a panic inside the shared
    /// reactor thread would take down **every** lane's traffic to every
    /// peer.
    pub fn send(&self, to: ProviderId, payload: Bytes) {
        let Some(Some(conn)) = self.outbound.get(to.index()) else { return };
        self.metrics.record_send(self.me, payload.len());
        if payload.len() > MAX_WIRE_FRAME - 8 {
            self.metrics.record_drop(self.me, payload.len());
            return;
        }
        conn.send(self.lane, payload);
    }

    /// Send `payload` to every other provider on this lane, sharing the
    /// same frozen buffer across all peers.
    pub fn broadcast(&self, payload: &Bytes) {
        for peer in ProviderId::all(self.m) {
            if peer != self.me {
                self.send(peer, payload.clone());
            }
        }
    }

    /// Receive the next message on this lane, waiting up to `timeout`.
    ///
    /// # Errors
    ///
    /// [`RecvError::Timeout`] if nothing arrived in time,
    /// [`RecvError::Disconnected`] once any peer connection is lost and
    /// the lane inbox is drained: the mesh is no longer whole, so no
    /// session on it can decide. The frames a lost peer sent before it
    /// went are delivered first; frames other peers send afterwards are
    /// dropped.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<(ProviderId, Bytes), RecvError> {
        match self.inbox.recv_timeout(timeout) {
            Ok((from, payload)) => {
                self.metrics.record_recv(self.me, payload.len());
                Ok((from, payload))
            }
            Err(RecvTimeoutError::Timeout) => Err(RecvError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(RecvError::Disconnected),
        }
    }

    /// Receive without blocking.
    pub fn try_recv(&self) -> Option<(ProviderId, Bytes)> {
        self.inbox.try_recv().ok().inspect(|(_, payload)| {
            self.metrics.record_recv(self.me, payload.len());
        })
    }
}

/// Per-lane inbox channels for one node.
///
/// # Panics
///
/// Panics if `lanes` is zero or exceeds [`MUX_MAX_LANES`].
#[allow(clippy::type_complexity)]
fn make_lane_channels(
    lanes: usize,
) -> (Vec<Sender<(ProviderId, Bytes)>>, Vec<Receiver<(ProviderId, Bytes)>>) {
    assert!(lanes > 0, "a mux mesh has at least one lane");
    assert!(lanes <= MUX_MAX_LANES, "{lanes} lanes exceed the {MUX_MAX_LANES}-lane tag space");
    (0..lanes).map(|_| unbounded()).unzip()
}

/// Wrap one node's reactor wiring into its per-lane endpoints.
fn build_lane_endpoints(
    me: ProviderId,
    m: usize,
    io: NodeIo,
    lane_rxs: Vec<Receiver<(ProviderId, Bytes)>>,
    metrics: TrafficMetrics,
    reactor: &Arc<ReactorHandle>,
) -> Vec<MuxEndpoint> {
    let core = Arc::new(MuxNodeCore {
        closer: Some(io.closer),
        peers_open: io.peers_open,
        reactor: Arc::clone(reactor),
    });
    lane_rxs
        .into_iter()
        .enumerate()
        .map(|(lane, inbox)| MuxEndpoint {
            me,
            m,
            lane,
            outbound: io.outbound.clone(),
            inbox,
            metrics: metrics.clone(),
            core: Arc::clone(&core),
        })
        .collect()
}

/// A full multiplexed TCP mesh over loopback sockets: **one connection
/// per provider pair, shared by every lane**, with `lanes` logical
/// endpoint sets demultiplexed over it — all driven by **one reactor
/// thread**.
///
/// This is what [`ShardedHub`][crate::ShardedHub]'s socket flavour rides
/// on: `N` shards become `N` lanes over one physical mesh, so the
/// connection count is `m(m−1)/2` and the I/O thread count **one** —
/// both independent of the shard count, where the previous design paid
/// `2m(m−1)` blocking reader/writer threads (and, before that, a whole
/// mesh per shard).
///
/// # Example
///
/// ```
/// use dauctioneer_net::MuxMesh;
/// use bytes::Bytes;
/// use std::time::Duration;
///
/// let mut mesh = MuxMesh::loopback(2, 2).unwrap();
/// assert_eq!(mesh.io_threads(), 1);
/// let lanes = mesh.take_lane_endpoints();
/// // lanes[lane][provider]: two isolated namespaces, one socket.
/// lanes[1][0].send(lanes[1][1].me(), Bytes::from_static(b"lane one"));
/// let (from, payload) = lanes[1][1].recv_timeout(Duration::from_secs(5)).unwrap();
/// assert_eq!(from, lanes[0][0].me());
/// assert_eq!(&payload[..], b"lane one");
/// assert!(lanes[0][1].try_recv().is_none(), "lane 0 saw nothing");
/// ```
#[derive(Debug)]
pub struct MuxMesh {
    /// `endpoints[lane][provider]`.
    endpoints: Vec<Vec<MuxEndpoint>>,
    metrics: TrafficMetrics,
    io_threads: usize,
}

impl MuxMesh {
    /// Bring up a full mesh of `m` providers over `127.0.0.1` with
    /// `lanes` multiplexed lanes, one TCP connection per provider pair,
    /// one reactor thread for the whole mesh.
    ///
    /// Connections are created pairwise through one ephemeral listener —
    /// no per-provider listeners, hello exchanges, or retry sleeps — so
    /// in-process bring-up is cheap enough to pay per batch.
    ///
    /// # Errors
    ///
    /// Any socket-level failure while binding or connecting.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or exceeds
    /// [`MUX_MAX_LANES`].
    pub fn loopback(m: usize, lanes: usize) -> io::Result<MuxMesh> {
        let metrics = TrafficMetrics::new(m);
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let mut rows: Vec<Vec<Option<TcpStream>>> =
            (0..m).map(|_| (0..m).map(|_| None).collect()).collect();
        let pairs = (0..m).flat_map(|i| ((i + 1)..m).map(move |j| (i, j)));
        for (i, j) in pairs {
            // Connect, then immediately accept our own connection. The
            // accepted stream's peer address must be the one we just
            // dialled from — anything else is a stray (port scanner,
            // misdirected client) that must not be wired into the mesh;
            // drop it and keep accepting for our own connection.
            let ours = TcpStream::connect(addr)?;
            let ours_addr = ours.local_addr()?;
            let theirs = loop {
                let (candidate, peer) = listener.accept()?;
                if peer == ours_addr {
                    break candidate;
                }
            };
            ours.set_nodelay(true)?;
            theirs.set_nodelay(true)?;
            rows[i][j] = Some(ours);
            rows[j][i] = Some(theirs);
        }
        // One reactor serves all m nodes × all lanes.
        let mut specs = Vec::with_capacity(m);
        let mut rx_rows = Vec::with_capacity(m);
        for (i, row) in rows.into_iter().enumerate() {
            let (lane_txs, lane_rxs) = make_lane_channels(lanes);
            specs.push(NodeSpec {
                me: ProviderId(i as u32),
                streams: row,
                lanes: lane_txs,
                metrics: metrics.clone(),
            });
            rx_rows.push(lane_rxs);
        }
        let (reactor, ios) = reactor::spawn(specs)?;
        let io_threads = reactor.io_threads();
        let per_provider: Vec<Vec<MuxEndpoint>> = ios
            .into_iter()
            .zip(rx_rows)
            .enumerate()
            .map(|(i, (io, lane_rxs))| {
                build_lane_endpoints(
                    ProviderId(i as u32),
                    m,
                    io,
                    lane_rxs,
                    metrics.clone(),
                    &reactor,
                )
            })
            .collect();
        // Transpose [provider][lane] → [lane][provider].
        let mut endpoints: Vec<Vec<MuxEndpoint>> = (0..lanes).map(|_| Vec::new()).collect();
        for provider_lanes in per_provider {
            for (lane, endpoint) in provider_lanes.into_iter().enumerate() {
                endpoints[lane].push(endpoint);
            }
        }
        Ok(MuxMesh { endpoints, metrics, io_threads })
    }

    /// Take ownership of the endpoints: `result[lane][provider]`.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn take_lane_endpoints(&mut self) -> Vec<Vec<MuxEndpoint>> {
        assert!(!self.endpoints.is_empty(), "endpoints already taken");
        std::mem::take(&mut self.endpoints)
    }

    /// The mesh's shared traffic counters (all lanes, all providers).
    pub fn metrics(&self) -> TrafficMetrics {
        self.metrics.clone()
    }

    /// Total I/O threads serving the mesh: **one reactor**, independent
    /// of both the provider count and the lane count — the accounting
    /// the thread-roster tests pin down against the old per-peer
    /// `2m(m−1)` reader/writer design.
    pub fn io_threads(&self) -> usize {
        self.io_threads
    }
}
