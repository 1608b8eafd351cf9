//! # Multi-process deployment: coordinator and provider roles
//!
//! Everything else in this repo runs an m-provider market inside one OS
//! process (threads over in-process channels, or TCP over loopback
//! within a single address space). This module is the real deployment
//! shape the paper assumes: **m + 1 processes** — one coordinator and
//! m providers — over real sockets, surviving the death of any
//! provider process.
//!
//! ## Topology
//!
//! ```text
//!                 control plane (this module)
//!          ┌───────────── coordinator ────────────┐
//!          │ Join/JoinAck · Ping · WorkOrder ·    │
//!          │ ResetMesh · OutcomeReport · Shutdown │
//!      ┌───┴───┐         ┌───────┐            ┌───┴───┐
//!      │ prov 0│━━━━━━━━━│ prov 1│━━━━━━━━━━━━│ prov 2│
//!      └───────┘         └───────┘            └───────┘
//!       provider mesh (MuxEndpoint, kept across clean epochs)
//! ```
//!
//! The coordinator is **not** part of the provider mesh — it owns epoch
//! identity, bid generation, the journal and one control TCP connection
//! per provider. The providers run the paper's protocol among themselves
//! over a [`MuxEndpoint`] mesh, brought up with the incarnation hello so
//! frames from a killed provider's previous life are rejected at
//! admission.
//!
//! ## One clear path, two backends
//!
//! A coordinator epoch is sealed, classified, counted and published by
//! the same `Clearer` that clears a [`crate::MarketService`] epoch. Only
//! where the sessions run differs: the service's backend is its
//! in-process `SessionPool`, the coordinator is itself the backend here —
//! one shard of `m` remote providers, reached by one `WorkOrder` write
//! each and answered by one `OutcomeReport` each. So the seal order, the
//! one commit before anything counts, the Definition-1 fold, the abort
//! classification and the [`MarketStats`] in [`ClusterReport::stats`] are
//! the service's, by construction. Epoch sessions and seeds derive from
//! [`ClusterConfig`] by the service's own formulas.
//!
//! ## Mesh lifetime
//!
//! The mesh is dialled once and **kept across epochs**: every clean
//! epoch drives a new [`SessionEngine`] over the same connections, and
//! the engine's session-tag filter drops stragglers of epoch *e* that
//! surface during *e+1*. What a per-epoch bring-up gave for free, and a
//! kept mesh does not, is a **barrier**: nobody could send an *e+1*
//! frame before everybody had left *e*. An engine drops frames of a
//! session it is not running, so a provider still inside *e* would lose
//! its peers' first *e+1* frames, time out, finish late again, and
//! drag the cluster from ⊥ to ⊥. Hence the reuse rule:
//!
//! * **The mesh is reused only after an epoch every provider decided,
//!   under an unchanged roster.** `m` non-⊥ reports mean all `m`
//!   providers have left the previous session — the barrier is implied.
//!   Only the coordinator's backend sees every report: after any other
//!   epoch, or when the roster differs from the last one it dispatched,
//!   it sends [`ControlMsg::ResetMesh`] ahead of the next work order,
//!   in the same write. Providers
//!   drop their mesh on receipt and dial a fresh one — incarnation
//!   hello, `min_incarnations` floor, mesh budget — which is the
//!   barrier again. Steady state sends nothing extra.
//! * **Providers also drop the mesh on their own evidence**: the work
//!   order's roster differs from the one the mesh was built under, they
//!   rejoined the coordinator, or their own last outcome was ⊥ — which
//!   covers a failed bring-up and a closed peer connection (next
//!   point). A stale mesh never yields an outcome even if the
//!   `ResetMesh` died with a control link.
//! * Nobody closes a connection between clean epochs, so a closed one
//!   always means a death or a discard: a session whose mesh has lost a
//!   peer — before it started or while it runs — resolves ⊥ when that
//!   is observed, not at the session deadline, and not after a bring-up
//!   nobody would answer.
//!
//! A killed provider can only come back through a rejoin, which changes
//! the roster, which forces a rebuild under the new incarnation floor.
//!
//! ## Liveness and rejoin
//!
//! A [`LivenessTracker`] on the coordinator drives the
//! `Up → Suspect → Down → Reconnecting` machine from control-plane
//! heartbeats ([`ControlMsg::Ping`]) and connection resets. The backend
//! stops waiting **immediately** when a peer is not up at dispatch, a
//! dispatch write fails, or every report still owed is owed by a `Down`
//! peer — the close latency during an outage is bounded by detection,
//! not by the session deadline — and at `deadline + mesh budget +` one
//! second of grace for a live-looking peer that stays silent. Missing
//! reports read as ⊥. The one classifier then names the abort: every
//! provider decided but they disagree is `Divergence`; otherwise it is
//! the backend's blame, `PeerDown` when it gave up on a peer or a peer
//! is down or reconnecting, else `Deadline`. A restarted provider
//! redials the coordinator under a jittered-exponential [`Backoff`]
//! with a bounded budget, is handed a fresh incarnation number in its
//! [`ControlMsg::JoinAck`], and rejoins at the next epoch boundary:
//! the next [`ControlMsg::WorkOrder`] names its new life, and every
//! provider rebuilds the mesh around it.
//!
//! Every epoch — cleared or aborted — is sealed onto the journal's
//! hash-chained settlement log, so `dauction verify-log` certifies the
//! coordinator's history across any number of provider deaths.

use std::cell::{Cell, RefCell};
use std::io::{self, Read, Write as IoWrite};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dauctioneer_core::{
    drive, AllocatorProgram, BatchSession, DoubleAuctionProgram, FrameworkConfig, SessionEngine,
};
use dauctioneer_net::{
    Backoff, LivenessConfig, LivenessMetrics, LivenessTracker, MeshOptions, MuxEndpoint, PeerState,
};
use dauctioneer_telemetry::AbortReason;
use dauctioneer_types::{
    BidVector, Bw, CodecError, Decode, Encode, Money, Outcome, ProviderAsk, ProviderId, Reader,
    SessionId, UserBid, Writer, MICRO,
};

use crate::config::TelemetryConfig;
use crate::journal::{FsyncPolicy, Journal, JournalError};
use crate::service::{
    epoch_seed, epoch_session, ClearBackend, ClearJob, Clearer, Columns, DecideOffsets, Telemetry,
};
use crate::stats::{MarketStats, StatsShared};

/// Hard ceiling on a control-plane frame (a [`ControlMsg::WorkOrder`]
/// carries a whole bid vector; 16 MiB is orders of magnitude above any
/// real epoch).
pub const MAX_CONTROL_FRAME: usize = 16 << 20;

/// The program every cluster epoch clears with: each provider runs it
/// ([`run_provider`]) and the coordinator's journal seals its name.
type ClusterProgram = DoubleAuctionProgram;

/// A peer as named in a [`ControlMsg::WorkOrder`]: identity, where its
/// mesh listener lives *this* life, and the incarnation the mesh hello
/// must present/honour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerInfo {
    /// Provider id in `0..m`.
    pub id: u32,
    /// The peer's mesh listener address for its current life.
    pub mesh_addr: String,
    /// The peer's current incarnation (the admission floor for hellos
    /// from it).
    pub incarnation: u32,
}

impl Encode for PeerInfo {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.id);
        self.mesh_addr.encode(w);
        w.put_u32(self.incarnation);
    }
}

impl Decode for PeerInfo {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(PeerInfo { id: r.get_u32()?, mesh_addr: String::decode(r)?, incarnation: r.get_u32()? })
    }
}

/// The control-plane protocol between coordinator and providers, sent
/// as `[len: u32 LE][types-codec payload]` frames over one TCP
/// connection per provider.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlMsg {
    /// Provider → coordinator, first frame of a connection: "provider
    /// `id` is alive; my mesh listener for this life is `mesh_addr`".
    Join {
        /// The provider's id in `0..m`.
        id: u32,
        /// The mesh listener address this life of the provider bound.
        mesh_addr: String,
    },
    /// Coordinator → provider, answer to [`ControlMsg::Join`]: the
    /// incarnation number of this life plus the cluster parameters, so
    /// the provider CLI needs nothing beyond `--id` and `--join`.
    JoinAck {
        /// The strictly-increasing incarnation assigned to this life.
        incarnation: u32,
        /// Providers in the market.
        m: u32,
        /// Tolerated coalition size.
        k: u32,
        /// User slots per epoch.
        n_users: u32,
        /// Per-session drive deadline, milliseconds.
        deadline_ms: u64,
        /// Budget of one mesh bring-up, milliseconds.
        mesh_budget_ms: u64,
    },
    /// Provider → coordinator heartbeat; feeds the failure detector.
    Ping,
    /// Coordinator → provider: clear one epoch. Carries everything the
    /// session needs — identity, the full bid vector, and the current
    /// life (address + incarnation) of every peer.
    WorkOrder {
        /// Epoch number.
        epoch: u64,
        /// The session id this epoch clears under.
        session: u64,
        /// Epoch seed (providers fan it out per the engine's rule).
        seed: u64,
        /// The collected bid vector every provider clears.
        bids: BidVector,
        /// Current life of every provider, in id order.
        peers: Vec<PeerInfo>,
    },
    /// Provider → coordinator: this provider's decided outcome for
    /// `epoch` (⊥ included).
    OutcomeReport {
        /// Epoch the outcome belongs to.
        epoch: u64,
        /// Reporting provider.
        id: u32,
        /// The decided outcome.
        outcome: Outcome,
    },
    /// Coordinator → provider: the run is over; exit cleanly.
    Shutdown,
    /// Coordinator → provider, ahead of a [`ControlMsg::WorkOrder`]:
    /// drop the mesh you kept, clear the next epoch over a fresh one.
    /// Sent after every epoch some provider did not decide (report
    /// non-⊥) and whenever the roster changed — the cases where some
    /// provider may still be inside the previous session.
    ResetMesh,
}

/// The one encoding of [`ControlMsg::WorkOrder`], over borrowed parts so
/// the coordinator can frame an epoch's order without owning a copy of
/// its bid vector.
fn encode_work_order(
    w: &mut Writer,
    epoch: u64,
    session: u64,
    seed: u64,
    bids: &BidVector,
    peers: &[PeerInfo],
) {
    w.put_u8(3);
    w.put_u64(epoch);
    w.put_u64(session);
    w.put_u64(seed);
    bids.encode(w);
    peers.encode(w);
}

impl Encode for ControlMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            ControlMsg::Join { id, mesh_addr } => {
                w.put_u8(0);
                w.put_u32(*id);
                mesh_addr.encode(w);
            }
            ControlMsg::JoinAck { incarnation, m, k, n_users, deadline_ms, mesh_budget_ms } => {
                w.put_u8(1);
                w.put_u32(*incarnation);
                w.put_u32(*m);
                w.put_u32(*k);
                w.put_u32(*n_users);
                w.put_u64(*deadline_ms);
                w.put_u64(*mesh_budget_ms);
            }
            ControlMsg::Ping => w.put_u8(2),
            ControlMsg::WorkOrder { epoch, session, seed, bids, peers } => {
                encode_work_order(w, *epoch, *session, *seed, bids, peers);
            }
            ControlMsg::OutcomeReport { epoch, id, outcome } => {
                w.put_u8(4);
                w.put_u64(*epoch);
                w.put_u32(*id);
                outcome.encode(w);
            }
            ControlMsg::Shutdown => w.put_u8(5),
            ControlMsg::ResetMesh => w.put_u8(6),
        }
    }
}

impl Decode for ControlMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(ControlMsg::Join { id: r.get_u32()?, mesh_addr: String::decode(r)? }),
            1 => Ok(ControlMsg::JoinAck {
                incarnation: r.get_u32()?,
                m: r.get_u32()?,
                k: r.get_u32()?,
                n_users: r.get_u32()?,
                deadline_ms: r.get_u64()?,
                mesh_budget_ms: r.get_u64()?,
            }),
            2 => Ok(ControlMsg::Ping),
            3 => Ok(ControlMsg::WorkOrder {
                epoch: r.get_u64()?,
                session: r.get_u64()?,
                seed: r.get_u64()?,
                bids: BidVector::decode(r)?,
                peers: Vec::decode(r)?,
            }),
            4 => Ok(ControlMsg::OutcomeReport {
                epoch: r.get_u64()?,
                id: r.get_u32()?,
                outcome: Outcome::decode(r)?,
            }),
            5 => Ok(ControlMsg::Shutdown),
            6 => Ok(ControlMsg::ResetMesh),
            tag => Err(CodecError::InvalidTag { what: "ControlMsg", tag }),
        }
    }
}

/// Append one control frame — `[len: u32 LE]` then whatever `encode`
/// writes — to `w`, so a frame (or several) leaves in one socket write.
fn push_frame(w: &mut Writer, encode: impl FnOnce(&mut Writer)) -> io::Result<()> {
    let header = w.len();
    w.put_u32(0);
    encode(w);
    let len = u32::try_from(w.len() - header - 4)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "control frame too large"))?;
    w.patch_u32(header, len);
    Ok(())
}

/// Write one length-prefixed control frame, header and payload in a
/// single write (one segment on a `TCP_NODELAY` socket).
///
/// # Errors
///
/// Any socket write error (the connection is considered lost).
pub fn write_frame(stream: &mut TcpStream, msg: &ControlMsg) -> io::Result<()> {
    let mut w = Writer::new();
    push_frame(&mut w, |w| msg.encode(w))?;
    stream.write_all(w.as_slice())
}

/// Read one length-prefixed control frame (blocking, honours the
/// stream's read timeout).
///
/// # Errors
///
/// Socket errors, oversized frames, or undecodable payloads — in every
/// case the connection is considered lost.
pub fn read_frame(stream: &mut TcpStream) -> io::Result<ControlMsg> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_CONTROL_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("control frame of {len} bytes exceeds the {MAX_CONTROL_FRAME} cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    ControlMsg::decode_all(&payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad control frame: {e}")))
}

/// Errors of the coordinator and provider roles.
#[derive(Debug)]
pub enum ClusterError {
    /// The cluster configuration is invalid.
    Config(String),
    /// A socket operation failed.
    Io(io::Error),
    /// The coordinator's journal failed.
    Journal(JournalError),
    /// Not every provider joined within the bring-up budget; names the
    /// providers that never arrived.
    BringUp {
        /// `"provider <id>"` per missing peer.
        missing: Vec<String>,
    },
    /// A provider exhausted its reconnect budget without reaching the
    /// coordinator.
    ReconnectExhausted {
        /// Dial attempts consumed.
        attempts: u32,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Config(msg) => write!(f, "invalid cluster config: {msg}"),
            ClusterError::Io(e) => write!(f, "cluster i/o error: {e}"),
            ClusterError::Journal(e) => write!(f, "coordinator journal error: {e}"),
            ClusterError::BringUp { missing } => write!(
                f,
                "cluster bring-up expired with {} provider(s) missing: {}",
                missing.len(),
                missing.join(", ")
            ),
            ClusterError::ReconnectExhausted { attempts } => {
                write!(f, "reconnect budget exhausted after {attempts} dial attempt(s)")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<io::Error> for ClusterError {
    fn from(e: io::Error) -> ClusterError {
        ClusterError::Io(e)
    }
}

impl From<JournalError> for ClusterError {
    fn from(e: JournalError) -> ClusterError {
        ClusterError::Journal(e)
    }
}

/// Configuration of a coordinator run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Providers in the market (`m > 2k`).
    pub m: usize,
    /// Tolerated coalition size.
    pub k: usize,
    /// User slots per epoch.
    pub n_users: usize,
    /// Epochs to clear before shutting the cluster down.
    pub epochs: u64,
    /// Base seed; epoch seeds derive from it exactly as the in-process
    /// market's do.
    pub seed: u64,
    /// Session id of epoch 0 (epoch `e` clears session
    /// `first_session + e`).
    pub first_session: u64,
    /// Per-session drive deadline handed to providers.
    pub session_deadline: Duration,
    /// Budget of one mesh bring-up, handed to providers (spent on the
    /// first epoch and on every rebuild, not on epochs that reuse the
    /// mesh).
    pub mesh_budget: Duration,
    /// How long the coordinator waits for all `m` providers to join
    /// before the first epoch.
    pub join_timeout: Duration,
    /// Minimum spacing between epoch starts (zero = clear
    /// back-to-back). Pacing keeps epoch boundaries — the rejoin
    /// points — spread out in real time, the open-world cadence of a
    /// deployed market.
    pub epoch_period: Duration,
    /// Heartbeat failure-detector timeouts.
    pub liveness: LivenessConfig,
    /// Write-ahead journal path (`None` = no journal).
    pub journal: Option<PathBuf>,
    /// Journal fsync policy.
    pub fsync: FsyncPolicy,
}

impl ClusterConfig {
    /// A config with the cluster defaults: 8 epochs, seed 42, 5 s
    /// session deadline, 2 s mesh budget, 30 s join timeout, default
    /// liveness timeouts, no journal.
    pub fn new(m: usize, k: usize, n_users: usize) -> ClusterConfig {
        ClusterConfig {
            m,
            k,
            n_users,
            epochs: 8,
            seed: 42,
            first_session: 1,
            session_deadline: Duration::from_secs(5),
            mesh_budget: Duration::from_secs(2),
            join_timeout: Duration::from_secs(30),
            epoch_period: Duration::ZERO,
            liveness: LivenessConfig::default(),
            journal: None,
            fsync: FsyncPolicy::Always,
        }
    }

    /// Check the paper's `m > 2k` bound and basic sanity.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), ClusterError> {
        if self.m == 0 || self.m <= 2 * self.k {
            return Err(ClusterError::Config(format!(
                "m must exceed 2k (got m={}, k={})",
                self.m, self.k
            )));
        }
        if self.n_users == 0 {
            return Err(ClusterError::Config("n_users must be at least 1".into()));
        }
        Ok(())
    }
}

/// One epoch as the coordinator saw it.
#[derive(Debug, Clone)]
pub struct ClusterEpoch {
    /// Epoch number.
    pub epoch: u64,
    /// Session id the epoch cleared under.
    pub session: u64,
    /// Accepted (journaled) bids.
    pub accepted: u64,
    /// The unanimous outcome (⊥ on abort).
    pub outcome: Outcome,
    /// Abort classification (`None` when cleared).
    pub reason: Option<AbortReason>,
    /// Close latency: from the start of the epoch — before its bids are
    /// synthesised and write-ahead committed — to its unanimous outcome.
    pub latency: Duration,
}

/// End-of-run summary of a coordinator.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Every epoch in order.
    pub epochs: Vec<ClusterEpoch>,
    /// Provider rejoins the liveness layer counted.
    pub reconnects: u64,
    /// The run's counters — epochs cleared and aborted by reason, close
    /// latency, accepted bids, journal — counted as a
    /// [`crate::MarketService`] counts its own.
    pub stats: MarketStats,
}

/// Liveness + connection state shared between the accept/reader
/// threads and the epoch driver.
struct Shared {
    tracker: Mutex<LivenessTracker>,
    /// Per-peer control writer of the *current* life.
    writers: Mutex<Vec<Option<TcpStream>>>,
    /// Per-peer mesh listener address of the current life.
    mesh_addrs: Mutex<Vec<Option<String>>>,
    stop: AtomicBool,
}

enum Event {
    Joined,
    Report { epoch: u64, peer: usize, outcome: Outcome },
    Disconnected,
}

/// The coordinator role: owns the control listener, the liveness
/// tracker, epoch identity, bid generation and the journal; drives the
/// m-provider cluster through [`ClusterConfig::epochs`] epochs.
pub struct Coordinator {
    config: ClusterConfig,
    addr: SocketAddr,
    shared: Arc<Shared>,
    events: mpsc::Receiver<Event>,
    threads: Vec<JoinHandle<()>>,
    /// The roster of the last work order dispatched, under which the
    /// providers keep their mesh; `None` before the first and after a
    /// session some provider did not decide (it may still be inside it).
    last_roster: RefCell<Option<Vec<PeerInfo>>>,
    /// The last drive stopped waiting on a peer — not up, unreachable,
    /// dead or silent — so its ⊥ is that peer's.
    gave_up: Cell<bool>,
}

impl Coordinator {
    /// Start the control plane on `listener` (accepting joins
    /// immediately) without driving any epoch yet.
    ///
    /// # Errors
    ///
    /// Invalid configuration or listener setup failure.
    pub fn new(listener: TcpListener, config: ClusterConfig) -> Result<Coordinator, ClusterError> {
        config.validate()?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            tracker: Mutex::new(LivenessTracker::new(config.m, config.liveness)),
            writers: Mutex::new((0..config.m).map(|_| None).collect()),
            mesh_addrs: Mutex::new(vec![None; config.m]),
            stop: AtomicBool::new(false),
        });
        let (tx, rx) = mpsc::channel();

        let accept_shared = Arc::clone(&shared);
        let accept_tx = tx.clone();
        let accept_cfg = config.clone();
        let accept = thread::spawn(move || {
            while !accept_shared.stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let shared = Arc::clone(&accept_shared);
                        let tx = accept_tx.clone();
                        let cfg = accept_cfg.clone();
                        thread::spawn(move || serve_connection(stream, shared, tx, cfg));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => thread::sleep(Duration::from_millis(5)),
                }
            }
        });

        let tick_shared = Arc::clone(&shared);
        let ticker = thread::spawn(move || {
            while !tick_shared.stop.load(Ordering::Relaxed) {
                tick_shared.tracker.lock().expect("tracker lock").tick(Instant::now());
                thread::sleep(Duration::from_millis(50));
            }
        });

        Ok(Coordinator {
            config,
            addr,
            shared,
            events: rx,
            threads: vec![accept, ticker],
            last_roster: RefCell::new(None),
            gave_up: Cell::new(false),
        })
    }

    /// The control listener's bound address (what providers `--join`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The liveness gauges this coordinator keeps current — register
    /// them with [`crate::register_liveness_metrics`].
    pub fn metrics(&self) -> LivenessMetrics {
        self.shared.tracker.lock().expect("tracker lock").metrics()
    }

    /// Drive the full run: wait for all providers to join, clear
    /// [`ClusterConfig::epochs`] epochs (sealing every one onto the
    /// journal), then broadcast [`ControlMsg::Shutdown`] and tear the
    /// control plane down. `on_epoch` observes each epoch as it seals.
    ///
    /// # Errors
    ///
    /// Bring-up expiry, journal creation/append failures, or listener
    /// errors. Provider deaths are **not** errors — they classify
    /// epochs as `PeerDown` aborts.
    pub fn run(
        mut self,
        mut on_epoch: impl FnMut(&ClusterEpoch),
    ) -> Result<ClusterReport, ClusterError> {
        let result = self.run_inner(&mut on_epoch);
        self.teardown();
        result
    }

    fn run_inner(
        &self,
        on_epoch: &mut impl FnMut(&ClusterEpoch),
    ) -> Result<ClusterReport, ClusterError> {
        let config = &self.config;
        // Bring-up: every provider must join once before epoch 0.
        let deadline = Instant::now() + config.join_timeout;
        loop {
            if self.shared.tracker.lock().expect("tracker lock").all_up() {
                break;
            }
            if Instant::now() >= deadline {
                let tracker = self.shared.tracker.lock().expect("tracker lock");
                let missing = (0..config.m)
                    .filter(|&p| !matches!(tracker.state(p), PeerState::Up | PeerState::Suspect))
                    .map(|p| format!("provider {p}"))
                    .collect();
                return Err(ClusterError::BringUp { missing });
            }
            // Joins arrive as events; the sleep below bounds the poll.
            let _ = self.events.recv_timeout(Duration::from_millis(50));
        }

        let journal = match &config.journal {
            Some(path) => Some(Journal::create(path, config.fsync)?),
            None => None,
        };
        let mechanism = ClusterProgram::new().name();
        // The epochs seal, count and publish through the market's own
        // clear path, with the remote providers as its backend. Nothing
        // reads flight events or traces of this process yet: both stay off.
        let stats = StatsShared::new(0, mechanism);
        let telemetry = Telemetry::new(&TelemetryConfig::disabled());
        let clearer = Clearer {
            backend: self,
            deadline: config.session_deadline,
            stats: &stats,
            journal: journal.as_ref(),
            telemetry: &telemetry,
            mechanism,
        };

        let mut epochs = Vec::with_capacity(config.epochs as usize);
        let mut previous_start: Option<Instant> = None;
        for epoch in 0..config.epochs {
            if let Some(prev) = previous_start {
                let since = prev.elapsed();
                if since < config.epoch_period {
                    thread::sleep(config.epoch_period - since);
                }
            }
            let started = Instant::now();
            previous_start = Some(started);
            let seed = epoch_seed(config.seed, epoch);
            let bids = generate_epoch_bids(config.n_users, config.m, seed);
            let accepted = bids.valid_user_bids().count();
            if let Some(journal) = &journal {
                // Write-ahead: bids hit the disk — one commit for the
                // whole epoch — before the epoch counts.
                for (user, bid) in bids.valid_user_bids() {
                    journal.stage_accepted(epoch, user, *bid)?;
                }
                for (slot, ask) in bids.asks().iter().enumerate() {
                    journal.stage_ask(epoch, slot as u64, *ask)?;
                }
                journal.commit()?;
            }
            stats.bids_accepted.fetch_add(accepted as u64, Ordering::Relaxed);
            let job = ClearJob {
                epoch,
                session: epoch_session(config.first_session, epoch),
                seed,
                accepted,
                bids,
                closed_at: started,
                origin: started,
                trace: None,
            };
            clearer.clear(vec![job], |cleared| {
                let record = ClusterEpoch {
                    epoch: cleared.epoch,
                    session: cleared.session.0,
                    accepted: cleared.accepted_bids as u64,
                    outcome: cleared.outcome,
                    reason: cleared.reason,
                    latency: cleared.latency,
                };
                on_epoch(&record);
                epochs.push(record);
            })?;
        }

        if let Some(journal) = &journal {
            journal.sync()?;
        }
        let stats = stats.snapshot(0, 0, 0, 0, journal.as_ref(), Default::default());
        Ok(ClusterReport { epochs, reconnects: self.metrics().reconnects_total(), stats })
    }

    /// One session across the cluster: the roster, `ResetMesh` (when the
    /// reuse rule of the module docs asks for it) and the work order in
    /// one write per provider, then each provider's report with its
    /// arrival offset. Never blocks past `deadline + mesh_budget +`
    /// grace. It gives up — returns what arrived — at once when a peer is
    /// not up, a write fails, or every report still owed is owed by a
    /// dead peer; and at that bound when a live-looking peer stays silent.
    fn dispatch_and_collect(
        &self,
        spec: &BatchSession,
        deadline: Duration,
    ) -> Vec<Option<(Outcome, Duration)>> {
        let m = self.config.m;
        let started = Instant::now();
        let mut reports = vec![None; m];
        let (all_up, peers) = {
            let tracker = self.shared.tracker.lock().expect("tracker lock");
            let mesh_addrs = self.shared.mesh_addrs.lock().expect("mesh_addrs lock");
            let peers: Vec<PeerInfo> = (0..m)
                .map(|p| PeerInfo {
                    id: p as u32,
                    mesh_addr: mesh_addrs[p].clone().unwrap_or_default(),
                    incarnation: tracker.incarnation(p),
                })
                .collect();
            (tracker.all_up(), peers)
        };
        if !all_up {
            return reports; // bounded degradation: do not dispatch into a hole
        }

        // One encoding per session, one write per provider. The
        // coordinator's epochs are uniform: every provider clears the
        // same vector, `collected[0]`.
        let epoch = spec.session.0 - self.config.first_session;
        let rebuild = self.last_roster.borrow().as_ref() != Some(&peers);
        let mut frames = Writer::new();
        let framed = (|| {
            if rebuild {
                push_frame(&mut frames, |w| ControlMsg::ResetMesh.encode(w))?;
            }
            push_frame(&mut frames, |w| {
                encode_work_order(w, epoch, spec.session.0, spec.seed, &spec.collected[0], &peers)
            })
        })();
        if framed.is_err() {
            return reports; // an order no reader would accept either
        }
        if rebuild {
            self.metrics().record_mesh_bringup();
        }
        *self.last_roster.borrow_mut() = Some(peers);
        // After a failed write the reader thread marks the peer Down; the
        // peers that did get the order resolve to ⊥ on their own deadline.
        let mut writers = self.shared.writers.lock().expect("writers lock");
        let written: Vec<bool> = (writers.iter_mut())
            .map(|slot| slot.as_mut().is_some_and(|s| s.write_all(frames.as_slice()).is_ok()))
            .collect();
        drop(writers);
        if written.contains(&false) {
            return reports;
        }

        let until = Instant::now() + deadline + self.config.mesh_budget + Duration::from_secs(1);
        while reports.contains(&None) {
            let missing_all_down = {
                let tracker = self.shared.tracker.lock().expect("tracker lock");
                reports.iter().enumerate().filter(|(_, r)| r.is_none()).all(|(p, _)| {
                    matches!(tracker.state(p), PeerState::Down | PeerState::Reconnecting)
                })
            };
            // Every report still owed is owed by a dead peer: the epoch
            // resolves now, not at the session deadline. Past the bound,
            // a live-looking peer that never reported is unreachable for
            // epoch purposes, which is the same outage.
            if missing_all_down || Instant::now() >= until {
                break;
            }
            match self.events.recv_timeout(Duration::from_millis(25)) {
                Ok(Event::Report { epoch: e, peer, outcome }) if e == epoch && peer < m => {
                    reports[peer] = Some((outcome, started.elapsed()));
                }
                Ok(_) | Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        reports
    }

    fn teardown(&mut self) {
        {
            let mut writers = self.shared.writers.lock().expect("writers lock");
            for slot in writers.iter_mut() {
                if let Some(stream) = slot.as_mut() {
                    let _ = write_frame(stream, &ControlMsg::Shutdown);
                }
            }
        }
        self.shared.stop.store(true, Ordering::Relaxed);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The remote backend of the [`Clearer`]: one shard of `m` provider
/// processes, each behind its control connection.
impl ClearBackend for Coordinator {
    fn num_shards(&self) -> usize {
        1
    }

    fn providers(&self) -> usize {
        self.config.m
    }

    /// Each session in turn through [`Coordinator::dispatch_and_collect`].
    /// A missing report reads as ⊥; a decide offset is the report's
    /// arrival. The mesh is kept for the next session only if every
    /// provider reported a decided outcome: then all have left this one.
    fn run_epoch_traced(
        &self,
        shard_specs: Vec<Vec<BatchSession>>,
        deadline: Duration,
    ) -> (Columns, DecideOffsets) {
        let m = self.config.m;
        let (mut outcomes, mut offsets) = (vec![Vec::new(); m], vec![Vec::new(); m]);
        let mut gave_up = false;
        for spec in shard_specs.into_iter().flatten() {
            let reports = self.dispatch_and_collect(&spec, deadline);
            gave_up |= reports.contains(&None);
            if !reports.iter().all(|r| matches!(r, Some((o, _)) if !o.is_abort())) {
                *self.last_roster.borrow_mut() = None;
            }
            for (j, report) in reports.into_iter().enumerate() {
                let (outcome, at) = report.map_or((Outcome::Abort, None), |(o, at)| (o, Some(at)));
                outcomes[j].push(outcome);
                offsets[j].push(at);
            }
        }
        self.gave_up.set(gave_up);
        (vec![outcomes], vec![offsets])
    }

    /// `PeerDown` when the drive gave up on a peer or a peer is down or
    /// reconnecting now.
    fn blame(&self) -> Option<AbortReason> {
        let tracker = self.shared.tracker.lock().expect("tracker lock");
        let any_down = (0..self.config.m)
            .any(|p| matches!(tracker.state(p), PeerState::Down | PeerState::Reconnecting));
        (self.gave_up.get() || any_down).then_some(AbortReason::PeerDown)
    }
}

/// One control connection's lifecycle on the coordinator: Join →
/// JoinAck, then Ping/OutcomeReport until the socket dies.
fn serve_connection(
    mut stream: TcpStream,
    shared: Arc<Shared>,
    events: mpsc::Sender<Event>,
    config: ClusterConfig,
) {
    let _ = stream.set_nodelay(true);
    // A stray that connects and says nothing must not pin a thread.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let Ok(ControlMsg::Join { id, mesh_addr }) = read_frame(&mut stream) else { return };
    let peer = id as usize;
    if peer >= config.m {
        return;
    }
    let Ok(mut writer) = stream.try_clone() else { return };
    shared.mesh_addrs.lock().expect("mesh_addrs lock")[peer] = Some(mesh_addr);
    // The Up transition and the writer registration are one critical
    // section: the moment the tracker counts this peer, a broadcast
    // (work order, shutdown) must be able to reach it. The broadcasters
    // take the writers lock, so holding it across the JoinAck also keeps
    // the ack the first frame the provider reads. Lock order is
    // tracker → writers, as in the disconnect path below.
    let (incarnation, acked) = {
        let mut tracker = shared.tracker.lock().expect("tracker lock");
        let mut writers = shared.writers.lock().expect("writers lock");
        tracker.begin_reconnect(peer);
        let incarnation = tracker.join(peer, Instant::now());
        drop(tracker);
        let ack = ControlMsg::JoinAck {
            incarnation,
            m: config.m as u32,
            k: config.k as u32,
            n_users: config.n_users as u32,
            deadline_ms: config.session_deadline.as_millis() as u64,
            mesh_budget_ms: config.mesh_budget.as_millis() as u64,
        };
        let acked = write_frame(&mut writer, &ack).is_ok();
        writers[peer] = acked.then_some(writer);
        (incarnation, acked)
    };
    if !acked {
        shared.tracker.lock().expect("tracker lock").disconnect(peer);
        return;
    }
    let _ = events.send(Event::Joined);
    let _ = stream.set_read_timeout(None);

    loop {
        match read_frame(&mut stream) {
            Ok(ControlMsg::Ping) => {
                shared.tracker.lock().expect("tracker lock").heartbeat(peer, Instant::now());
            }
            Ok(ControlMsg::OutcomeReport { epoch, id, outcome }) if id as usize == peer => {
                let _ = events.send(Event::Report { epoch, peer, outcome });
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }
    // Only this life may declare the peer dead: a rejoin may already
    // have superseded this connection.
    {
        let mut tracker = shared.tracker.lock().expect("tracker lock");
        if tracker.incarnation(peer) == incarnation {
            tracker.disconnect(peer);
            shared.writers.lock().expect("writers lock")[peer] = None;
        }
    }
    let _ = events.send(Event::Disconnected);
}

/// Configuration of a provider role process.
#[derive(Debug, Clone)]
pub struct ProviderConfig {
    /// This provider's id in `0..m`.
    pub id: usize,
    /// The coordinator's control address (`--join`).
    pub coordinator: String,
    /// Where to bind the mesh listener (default an ephemeral loopback
    /// port; the coordinator learns the bound address from the Join).
    pub mesh_listen: String,
    /// First redial delay of the reconnect backoff.
    pub backoff_base: Duration,
    /// Redial delay ceiling.
    pub backoff_cap: Duration,
    /// Dial attempts before the provider gives up for good.
    pub reconnect_budget: u32,
    /// Control-plane heartbeat period.
    pub heartbeat: Duration,
    /// Jitter seed of the backoff schedule.
    pub backoff_seed: u64,
}

impl ProviderConfig {
    /// Defaults: ephemeral loopback mesh listener, 50 ms → 2 s backoff
    /// with a budget of 40 dials, 150 ms heartbeats, id-derived jitter.
    pub fn new(id: usize, coordinator: impl Into<String>) -> ProviderConfig {
        ProviderConfig {
            id,
            coordinator: coordinator.into(),
            mesh_listen: "127.0.0.1:0".into(),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            reconnect_budget: 40,
            heartbeat: Duration::from_millis(150),
            backoff_seed: id as u64 + 1,
        }
    }
}

/// End-of-run summary of a provider.
#[derive(Debug, Clone, Default)]
pub struct ProviderReport {
    /// Work orders executed.
    pub epochs: u64,
    /// Epochs this provider decided non-⊥.
    pub cleared: u64,
    /// Epochs this provider decided ⊥.
    pub aborted: u64,
    /// Control-plane reconnects after the first successful join.
    pub rejoins: u32,
    /// Mesh bring-ups attempted: 1 on a run of clean epochs, plus one
    /// per rebuild (roster change, own ⊥, `ResetMesh`).
    pub mesh_bringups: u64,
}

/// The provider role: join the coordinator (redialling under backoff),
/// then clear every [`ControlMsg::WorkOrder`] until
/// [`ControlMsg::Shutdown`] — over one [`MuxEndpoint`] mesh for as long
/// as the epochs stay clean, over a freshly dialled one after anything
/// else (the reuse rule of the module docs).
///
/// A severed control connection sends the provider back to the dial
/// loop: it drops its mesh, rejoins under a fresh incarnation and
/// resumes at the next epoch boundary. Mesh bring-up failures and
/// connections lost mid-session (a dead peer) resolve to ⊥, never a
/// hang.
///
/// # Errors
///
/// Local setup failures (mesh listener bind) or an exhausted reconnect
/// budget. Peer and coordinator deaths during a run are handled, not
/// errors.
pub fn run_provider(config: ProviderConfig) -> Result<ProviderReport, ClusterError> {
    let listener = TcpListener::bind(&config.mesh_listen)?;
    let mesh_addr = listener.local_addr()?.to_string();
    let program = Arc::new(ClusterProgram::new());
    let mut backoff = Backoff::new(
        config.backoff_base,
        config.backoff_cap,
        config.reconnect_budget,
        config.backoff_seed,
    );
    // Sleep out the next backoff delay, or give up once the budget is spent.
    let pause = |backoff: &mut Backoff| {
        let delay = backoff.next_delay();
        let attempts = backoff.attempts();
        delay.map(thread::sleep).ok_or(ClusterError::ReconnectExhausted { attempts })
    };
    let mut report = ProviderReport::default();
    let mut joined_before = false;

    loop {
        // Dial the coordinator, paced by the jittered backoff.
        let mut stream = loop {
            match TcpStream::connect(&config.coordinator) {
                Ok(stream) => break stream,
                Err(_) => pause(&mut backoff)?,
            }
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let handshake = write_frame(
            &mut stream,
            &ControlMsg::Join { id: config.id as u32, mesh_addr: mesh_addr.clone() },
        )
        .and_then(|()| read_frame(&mut stream));
        let Ok(ControlMsg::JoinAck { incarnation, m, k, n_users, deadline_ms, mesh_budget_ms }) =
            handshake
        else {
            pause(&mut backoff)?;
            continue;
        };
        backoff.reset();
        let _ = stream.set_read_timeout(None);
        if joined_before {
            report.rejoins += 1;
        }
        joined_before = true;

        // Heartbeat and outcome reports share one mutexed writer.
        let writer = Arc::new(Mutex::new(match stream.try_clone() {
            Ok(clone) => clone,
            Err(e) => return Err(ClusterError::Io(e)),
        }));
        let hb_stop = Arc::new(AtomicBool::new(false));
        let heartbeat = {
            let writer = Arc::clone(&writer);
            let stop = Arc::clone(&hb_stop);
            let period = config.heartbeat;
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let beat =
                        write_frame(&mut writer.lock().expect("writer lock"), &ControlMsg::Ping);
                    if beat.is_err() {
                        break;
                    }
                    thread::sleep(period);
                }
            })
        };

        // Serve work orders until shutdown or a dead control link. The
        // mesh belongs to this life: a rejoin starts without one.
        let mut life = Life {
            me: ProviderId(config.id as u32),
            listener: &listener,
            program: &program,
            incarnation,
            framework: FrameworkConfig::new(m as usize, k as usize, n_users as usize, m as usize),
            deadline: Duration::from_millis(deadline_ms),
            mesh_budget: Duration::from_millis(mesh_budget_ms),
            mesh: None,
        };
        let lost_link = loop {
            match read_frame(&mut stream) {
                Ok(ControlMsg::ResetMesh) => life.mesh = None,
                Ok(ControlMsg::WorkOrder { epoch, session, seed, bids, peers }) => {
                    let outcome = life.clear(session, seed, bids, peers, &mut report);
                    report.epochs += 1;
                    if outcome.is_abort() {
                        report.aborted += 1;
                    } else {
                        report.cleared += 1;
                    }
                    let sent = write_frame(
                        &mut writer.lock().expect("writer lock"),
                        &ControlMsg::OutcomeReport { epoch, id: config.id as u32, outcome },
                    );
                    if sent.is_err() {
                        break true;
                    }
                }
                Ok(ControlMsg::Shutdown) => break false,
                Ok(_) => {}
                Err(_) => break true,
            }
        };
        // Close the mesh now, not after the heartbeat thread's last nap:
        // the peers learn of a lost life from the closed connections.
        drop(life);
        hb_stop.store(true, Ordering::Relaxed);
        let _ = heartbeat.join();
        if !lost_link {
            return Ok(report);
        }
        // Control link died: rejoin at the next epoch boundary.
    }
}

/// A provider's mesh and the roster (addresses and incarnations) it was
/// dialled under.
struct Mesh {
    endpoint: MuxEndpoint,
    roster: Vec<PeerInfo>,
}

/// One joined life of a provider: its identity and incarnation, the
/// cluster parameters of its `JoinAck`, and the mesh it keeps between
/// epochs.
struct Life<'a> {
    me: ProviderId,
    listener: &'a TcpListener,
    program: &'a Arc<ClusterProgram>,
    incarnation: u32,
    /// The session parameters every epoch shares (all but the session id).
    framework: FrameworkConfig,
    deadline: Duration,
    mesh_budget: Duration,
    mesh: Option<Mesh>,
}

impl Life<'_> {
    /// Run one epoch's session to a decision, ⊥ on any failure: over
    /// the kept mesh when nothing speaks against it, over a fresh one
    /// otherwise. A ⊥ discards the mesh.
    fn clear(
        &mut self,
        session: u64,
        seed: u64,
        bids: BidVector,
        peers: Vec<PeerInfo>,
        report: &mut ProviderReport,
    ) -> Outcome {
        if !self.mesh.as_ref().is_some_and(|mesh| mesh.roster == peers) {
            // Close the old connections before dialling the new ones.
            self.mesh = None;
            report.mesh_bringups += 1;
            self.mesh = self.bring_up(peers);
        }
        // A dead peer never completes bring-up: honest-or-⊥, bounded by
        // the mesh budget.
        let Some(mesh) = self.mesh.as_mut() else { return Outcome::Abort };
        let mut engine = SessionEngine::new(
            self.framework.clone().with_session(SessionId(session)),
            self.me,
            Arc::clone(self.program),
            bids,
            // The engine seed fan-out rule of every other runtime.
            seed.wrapping_add(u64::from(self.me.0) + 1),
        );
        // A kept mesh may have lost a connection since the last epoch:
        // under an unchanged roster and no `ResetMesh`, that peer is dead
        // or has discarded its side and would not answer a dial either.
        // The endpoint reads `Disconnected` once a peer is lost, so such a
        // session ends in ⊥ as soon as its queued frames are drained,
        // which discards the mesh here and orders the rebuild there.
        let outcome = drive(&mut engine, &mut mesh.endpoint, self.deadline);
        if outcome.is_abort() {
            self.mesh = None;
        }
        outcome
    }

    /// Dial a fresh mesh under the incarnation hello: this life's
    /// incarnation presented, the roster's incarnations as the floor.
    fn bring_up(&self, roster: Vec<PeerInfo>) -> Option<Mesh> {
        if roster.len() != self.framework.m {
            return None;
        }
        let addrs: Vec<SocketAddr> =
            roster.iter().map(|p| p.mesh_addr.parse()).collect::<Result<_, _>>().ok()?;
        let options = MeshOptions {
            incarnation: self.incarnation,
            min_incarnations: roster.iter().map(|p| p.incarnation).collect(),
            budget: self.mesh_budget,
        };
        let listener = self.listener.try_clone().ok()?;
        // One lane: this process runs exactly one session at a time.
        let endpoint = MuxEndpoint::establish_with_options(self.me, 1, listener, &addrs, &options)
            .ok()?
            .remove(0);
        Some(Mesh { endpoint, roster })
    }
}

/// Deterministic per-epoch workload, derived purely from the epoch
/// seed: §6.2-shaped unit valuations in `[0.75, 1.25]`, demands in
/// `(0, 1]`, asks priced in `[0.01, 0.5]` with capacity around the
/// demand share — gainful trades exist in most epochs, scarce ones in
/// some.
pub fn generate_epoch_bids(n_users: usize, m: usize, seed: u64) -> BidVector {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut builder = BidVector::builder(n_users, m);
    let mut total_demand_micro = 0u64;
    for i in 0..n_users {
        let valuation = Money::from_micro(750_000 + (next() % 500_001) as i64);
        let demand = Bw::from_micro(1 + next() % MICRO as u64);
        total_demand_micro += demand.micro();
        builder = builder.user_bid(i, UserBid::new(valuation, demand));
    }
    for j in 0..m {
        let unit_cost = Money::from_micro(10_000 + (next() % 490_001) as i64);
        let share = total_demand_micro / m as u64 + 1;
        let scale = 500_000 + next() % 1_500_001; // capacity factor in [0.5, 2.0]
        let capacity = Bw::from_micro((share as u128 * scale as u128 / MICRO as u128) as u64 + 1);
        builder = builder.provider_ask(j, ProviderAsk::new(unit_cost, capacity));
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::EpochOutcome;

    fn roundtrip(msg: ControlMsg) {
        let bytes = msg.encode_to_bytes();
        assert_eq!(ControlMsg::decode_all(&bytes).expect("decodes"), msg);
    }

    #[test]
    fn control_messages_round_trip() {
        roundtrip(ControlMsg::Join { id: 2, mesh_addr: "127.0.0.1:4100".into() });
        roundtrip(ControlMsg::JoinAck {
            incarnation: 3,
            m: 3,
            k: 1,
            n_users: 8,
            deadline_ms: 5000,
            mesh_budget_ms: 2000,
        });
        roundtrip(ControlMsg::Ping);
        roundtrip(ControlMsg::WorkOrder {
            epoch: 7,
            session: 8,
            seed: 0xFEED,
            bids: generate_epoch_bids(4, 3, 99),
            peers: vec![
                PeerInfo { id: 0, mesh_addr: "127.0.0.1:1".into(), incarnation: 1 },
                PeerInfo { id: 1, mesh_addr: "127.0.0.1:2".into(), incarnation: 4 },
            ],
        });
        roundtrip(ControlMsg::OutcomeReport { epoch: 7, id: 1, outcome: Outcome::Abort });
        roundtrip(ControlMsg::Shutdown);
        roundtrip(ControlMsg::ResetMesh);
        assert_eq!(ControlMsg::ResetMesh.encode_to_bytes()[..], [6], "next free tag");
        assert_eq!(
            ControlMsg::decode_all(&[7]),
            Err(CodecError::InvalidTag { what: "ControlMsg", tag: 7 }),
            "tags past the last variant stay invalid"
        );
    }

    #[test]
    fn epoch_bids_are_deterministic_in_the_seed() {
        let a = generate_epoch_bids(16, 3, 1234);
        let b = generate_epoch_bids(16, 3, 1234);
        assert_eq!(a, b, "same seed, same workload");
        let c = generate_epoch_bids(16, 3, 1235);
        assert_ne!(a, c, "different seed, different workload");
        assert_eq!(a.num_users(), 16);
        assert_eq!(a.num_asks(), 3);
        for ask in a.asks() {
            assert!(ask.unit_cost().is_positive());
            assert!(!ask.capacity().is_zero());
        }
    }

    #[test]
    fn cluster_config_validates_the_coalition_bound() {
        assert!(ClusterConfig::new(3, 1, 4).validate().is_ok());
        assert!(matches!(ClusterConfig::new(2, 1, 4).validate(), Err(ClusterError::Config(_))));
        let mut cfg = ClusterConfig::new(3, 1, 4);
        cfg.n_users = 0;
        assert!(cfg.validate().is_err());
    }

    /// In-process smoke of the full cluster: one coordinator, three
    /// provider threads, real sockets — the process-kill harness in
    /// `tests/process_kill.rs` does the same over real child processes.
    #[test]
    fn cluster_clears_epochs_over_real_sockets() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut config = ClusterConfig::new(3, 1, 6);
        config.epochs = 3;
        config.join_timeout = Duration::from_secs(10);
        let coordinator = Coordinator::new(listener, config).expect("coordinator");
        let addr = coordinator.local_addr().to_string();

        let providers: Vec<_> = (0..3)
            .map(|id| {
                let addr = addr.clone();
                thread::spawn(move || run_provider(ProviderConfig::new(id, addr)))
            })
            .collect();

        let report = coordinator.run(|_| {}).expect("run");
        assert_eq!(report.epochs.len(), 3);
        assert_eq!(report.stats.epochs_closed, 3);
        assert_eq!(report.reconnects, 0, "no deaths, no reconnects");
        // A quiet loopback cluster should actually clear.
        assert!(report.stats.epochs_cleared >= 1, "no epoch cleared: {:?}", report.epochs);
        for provider in providers {
            let provider_report = provider.join().expect("provider thread").expect("provider run");
            assert_eq!(provider_report.rejoins, 0);
            assert_eq!(provider_report.epochs, 3);
            assert!(
                provider_report.mesh_bringups <= 1 + report.stats.epochs_aborted,
                "one mesh, plus at most one rebuild per ⊥: {provider_report:?}"
            );
        }
    }

    /// A zero-epoch run broadcasts `Shutdown` the instant the last
    /// provider counts as Up. Every provider must hear it: the Up
    /// transition may not become visible before the provider's control
    /// writer is registered. (Repeated, because the window was narrow.)
    #[test]
    fn shutdown_broadcast_at_the_last_join_reaches_every_provider() {
        for round in 0..40 {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let mut config = ClusterConfig::new(3, 1, 6);
            config.epochs = 0;
            config.join_timeout = Duration::from_secs(10);
            let coordinator = Coordinator::new(listener, config).expect("coordinator");
            let addr = coordinator.local_addr().to_string();
            let (done_tx, done_rx) = mpsc::channel();
            for id in 0..3 {
                let (addr, done_tx) = (addr.clone(), done_tx.clone());
                thread::spawn(move || {
                    let _ = done_tx.send(run_provider(ProviderConfig::new(id, addr)).is_ok());
                });
            }
            coordinator.run(|_| {}).expect("run");
            for _ in 0..3 {
                let returned = done_rx.recv_timeout(Duration::from_secs(10));
                assert_eq!(returned, Ok(true), "round {round}: a provider never heard Shutdown");
            }
        }
    }

    /// How a fake provider answers its first work order.
    #[derive(Clone, Copy)]
    enum Answer {
        /// Report ⊥.
        Bottom,
        /// Close the control connection: a death after the dispatch.
        Vanish,
        /// Say nothing, and stay connected until joined.
        Silent,
    }

    /// A cluster config whose fake providers, which send no heartbeats,
    /// only a closed connection may declare dead.
    fn fake_config(session_deadline: Duration) -> ClusterConfig {
        let mut config = ClusterConfig::new(3, 1, 4);
        config.session_deadline = session_deadline;
        config.mesh_budget = Duration::ZERO;
        config.liveness.suspect_after = Duration::from_secs(60);
        config.liveness.down_after = Duration::from_secs(120);
        config
    }

    /// Join one fake provider per answer — the control protocol only, no
    /// mesh. The coordinator counts each Up before its `JoinAck` leaves.
    fn join_fakes(coordinator: &Coordinator, answers: [Answer; 3]) -> Vec<JoinHandle<()>> {
        let addr = coordinator.local_addr();
        (0..3u32)
            .zip(answers)
            .map(|(id, answer)| {
                let mut stream = TcpStream::connect(addr).expect("dial the coordinator");
                let join = ControlMsg::Join { id, mesh_addr: "127.0.0.1:9".into() };
                write_frame(&mut stream, &join).expect("join");
                assert!(matches!(read_frame(&mut stream), Ok(ControlMsg::JoinAck { .. })));
                thread::spawn(move || {
                    let epoch = loop {
                        match read_frame(&mut stream) {
                            Ok(ControlMsg::WorkOrder { epoch, .. }) => break epoch,
                            Ok(ControlMsg::Shutdown) | Err(_) => return,
                            Ok(_) => {}
                        }
                    };
                    match answer {
                        Answer::Bottom => {
                            let report =
                                ControlMsg::OutcomeReport { epoch, id, outcome: Outcome::Abort };
                            let _ = write_frame(&mut stream, &report);
                            let _ = read_frame(&mut stream); // hold the link until Shutdown
                        }
                        Answer::Vanish => {}
                        Answer::Silent => {
                            let _ = read_frame(&mut stream);
                        }
                    }
                })
            })
            .collect()
    }

    /// Clear epoch 0 through the market's [`Clearer`] with `coordinator`
    /// as its backend, then tear the coordinator down: the published
    /// outcome and how long the clear took.
    fn clear_epoch_zero(mut coordinator: Coordinator) -> (EpochOutcome, Duration) {
        let stats = StatsShared::new(0, "double-auction");
        let telemetry = Telemetry::new(&TelemetryConfig::disabled());
        let clearer = Clearer {
            backend: &coordinator,
            deadline: coordinator.config.session_deadline,
            stats: &stats,
            journal: None,
            telemetry: &telemetry,
            mechanism: "double-auction",
        };
        let started = Instant::now();
        let job = ClearJob {
            epoch: 0,
            session: epoch_session(coordinator.config.first_session, 0),
            seed: 7,
            accepted: 4,
            bids: generate_epoch_bids(4, 3, 7),
            closed_at: started,
            origin: started,
            trace: None,
        };
        let mut cleared = None;
        clearer.clear(vec![job], |outcome| cleared = Some(outcome)).expect("no journal to fail");
        let took = started.elapsed();
        coordinator.teardown();
        (cleared.expect("the epoch is published"), took)
    }

    fn join_all(fakes: Vec<JoinHandle<()>>) {
        for fake in fakes {
            fake.join().expect("fake provider");
        }
    }

    fn fake_coordinator(session_deadline: Duration) -> Coordinator {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        Coordinator::new(listener, fake_config(session_deadline)).expect("coordinator")
    }

    #[test]
    fn a_peer_that_is_not_up_is_peer_down_without_a_dispatch() {
        let coordinator = fake_coordinator(Duration::from_secs(30));
        let (epoch, took) = clear_epoch_zero(coordinator);
        assert_eq!((epoch.outcome, epoch.reason), (Outcome::Abort, Some(AbortReason::PeerDown)));
        assert!(took < Duration::from_secs(5), "resolved at once, took {took:?}");
    }

    #[test]
    fn a_failed_dispatch_write_is_peer_down() {
        let coordinator = fake_coordinator(Duration::from_secs(30));
        let fakes = join_fakes(&coordinator, [Answer::Silent; 3]);
        // Provider 0 stays up, but its control writer refuses every write.
        let sink = TcpListener::bind("127.0.0.1:0").expect("bind");
        let refusing = TcpStream::connect(sink.local_addr().expect("addr")).expect("dial");
        refusing.shutdown(std::net::Shutdown::Write).expect("shut the writer");
        let mut writers = coordinator.shared.writers.lock().expect("writers lock");
        let link = writers[0].replace(refusing).expect("provider 0 joined");
        drop(writers);
        let (epoch, took) = clear_epoch_zero(coordinator);
        assert_eq!((epoch.outcome, epoch.reason), (Outcome::Abort, Some(AbortReason::PeerDown)));
        assert!(took < Duration::from_secs(5), "resolved at once, took {took:?}");
        // Provider 0 got neither its order nor the Shutdown: end its link.
        link.shutdown(std::net::Shutdown::Both).expect("close provider 0's link");
        join_all(fakes);
    }

    #[test]
    fn reports_owed_only_by_dead_peers_are_peer_down_by_detection() {
        let coordinator = fake_coordinator(Duration::from_secs(30));
        let fakes = join_fakes(&coordinator, [Answer::Bottom, Answer::Bottom, Answer::Vanish]);
        let (epoch, took) = clear_epoch_zero(coordinator);
        join_all(fakes);
        assert_eq!(epoch.reason, Some(AbortReason::PeerDown));
        assert!(took < Duration::from_secs(5), "resolved by detection, took {took:?}");
        assert_eq!(epoch.outcomes, vec![Outcome::Abort; 3], "the reports that came, and a ⊥");
    }

    #[test]
    fn a_silent_live_peer_is_peer_down_at_the_collection_bound() {
        let coordinator = fake_coordinator(Duration::from_millis(50));
        let fakes = join_fakes(&coordinator, [Answer::Silent, Answer::Bottom, Answer::Bottom]);
        let (epoch, took) = clear_epoch_zero(coordinator);
        join_all(fakes);
        assert_eq!(epoch.reason, Some(AbortReason::PeerDown));
        // deadline + mesh budget + one second of grace
        assert!(took >= Duration::from_millis(1050), "gave up early, after {took:?}");
    }

    #[test]
    fn bottom_reports_with_every_peer_up_are_a_deadline_miss() {
        let coordinator = fake_coordinator(Duration::from_secs(30));
        let fakes = join_fakes(&coordinator, [Answer::Bottom; 3]);
        let (epoch, _) = clear_epoch_zero(coordinator);
        join_all(fakes);
        assert_eq!(epoch.reason, Some(AbortReason::Deadline));
    }
}
