//! Peer liveness for the multi-process deployment: a per-peer heartbeat
//! failure detector, the `Up → Suspect → Down → Reconnecting` state
//! machine, and the jittered-exponential dial backoff a returning
//! provider paces its redials with.
//!
//! The tracker is **pure in time**: every method takes the caller's
//! `Instant`, nothing reads the clock, so the full state machine —
//! including the "Suspect must survive a slow-but-healthy link without
//! flapping to Down" property — is unit-testable with fabricated
//! timelines. The coordinator's control plane feeds it: a provider's
//! join marks it `Up` and bumps its incarnation, heartbeats refresh it,
//! a severed control connection forces `Down`, and [`LivenessTracker::tick`]
//! advances timeouts between events.
//!
//! Two timeouts, not one: a peer that misses heartbeats for
//! [`LivenessConfig::suspect_after`] becomes `Suspect` (sessions keep
//! running; the link may just be slow), and only after the full
//! [`LivenessConfig::down_after`] since its last heartbeat is it
//! declared `Down` — at which point the market stops dispatching to it
//! and aborts epochs that touch it with `AbortReason::PeerDown` instead
//! of hanging.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a peer stands in the supervision state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerState {
    /// Heartbeats are current; the peer participates in epochs.
    Up,
    /// Heartbeats are late but within the down budget: the link may be
    /// slow. The peer still participates; a fresh heartbeat returns it
    /// to [`PeerState::Up`] without ever counting as an outage.
    Suspect,
    /// The peer missed the full down budget (or its control connection
    /// severed, or it has never joined). Epochs touching it abort with
    /// `PeerDown`; it is excluded from dispatch until it rejoins.
    Down,
    /// A connection from the peer is back but the (re)join handshake
    /// has not completed; the next successful join returns it to
    /// [`PeerState::Up`] under a fresh incarnation.
    Reconnecting,
}

impl PeerState {
    /// Stable lowercase label for logs and metrics.
    pub fn label(self) -> &'static str {
        match self {
            PeerState::Up => "up",
            PeerState::Suspect => "suspect",
            PeerState::Down => "down",
            PeerState::Reconnecting => "reconnecting",
        }
    }
}

/// The two heartbeat timeouts of the failure detector.
#[derive(Debug, Clone, Copy)]
pub struct LivenessConfig {
    /// Silence before `Up` degrades to `Suspect`.
    pub suspect_after: Duration,
    /// Silence before the peer is declared `Down`. Measured from the
    /// last heartbeat (not from entering `Suspect`), and must exceed
    /// `suspect_after`.
    pub down_after: Duration,
}

impl Default for LivenessConfig {
    fn default() -> LivenessConfig {
        LivenessConfig {
            suspect_after: Duration::from_millis(500),
            down_after: Duration::from_millis(1500),
        }
    }
}

/// Shared liveness gauges, exported as `net_peers_up`,
/// `net_peer_reconnects_total` and `net_mesh_bringups_total` by the
/// telemetry plane. Cheap to clone (an `Arc` around three atomics); the
/// tracker keeps the first two current on every transition, the
/// tracker's owner counts the third.
#[derive(Debug, Clone, Default)]
pub struct LivenessMetrics {
    inner: Arc<LivenessCells>,
}

#[derive(Debug, Default)]
struct LivenessCells {
    peers_up: AtomicU64,
    reconnects_total: AtomicU64,
    mesh_bringups_total: AtomicU64,
}

impl LivenessMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> LivenessMetrics {
        LivenessMetrics::default()
    }

    /// Peers currently `Up` or `Suspect` (still participating).
    pub fn peers_up(&self) -> u64 {
        self.inner.peers_up.load(Ordering::Relaxed)
    }

    /// Successful rejoins of previously-joined peers, cumulative.
    pub fn reconnects_total(&self) -> u64 {
        self.inner.reconnects_total.load(Ordering::Relaxed)
    }

    /// Times the peers were told to dial a fresh mesh among themselves,
    /// cumulative: once at the start, then once per roster change or
    /// failed round — never once per round.
    pub fn mesh_bringups_total(&self) -> u64 {
        self.inner.mesh_bringups_total.load(Ordering::Relaxed)
    }

    /// Count one mesh bring-up (called by whoever orders the peers to
    /// rebuild — the cluster coordinator).
    pub fn record_mesh_bringup(&self) {
        self.inner.mesh_bringups_total.fetch_add(1, Ordering::Relaxed);
    }
}

#[derive(Debug)]
struct PeerSlot {
    state: PeerState,
    last_heartbeat: Option<Instant>,
    /// Last incarnation handed out; 0 = never joined.
    incarnation: u32,
}

/// The coordinator-side failure detector over `m` peers.
#[derive(Debug)]
pub struct LivenessTracker {
    config: LivenessConfig,
    peers: Vec<PeerSlot>,
    metrics: LivenessMetrics,
}

impl LivenessTracker {
    /// Track `m` peers, all initially [`PeerState::Down`] (a peer that
    /// has never joined cannot be dispatched to).
    pub fn new(m: usize, config: LivenessConfig) -> LivenessTracker {
        let peers = (0..m)
            .map(|_| PeerSlot { state: PeerState::Down, last_heartbeat: None, incarnation: 0 })
            .collect();
        LivenessTracker { config, peers, metrics: LivenessMetrics::new() }
    }

    /// The shared metric cells this tracker keeps current (clone it into
    /// a metrics registry).
    pub fn metrics(&self) -> LivenessMetrics {
        self.metrics.clone()
    }

    /// A peer completed the join handshake at `now`: mark it `Up` and
    /// hand out its next incarnation number (strictly increasing across
    /// its restarts; the first join of a life is incarnation 1). A
    /// rejoin of a previously-joined peer counts one reconnect.
    pub fn join(&mut self, peer: usize, now: Instant) -> u32 {
        let slot = &mut self.peers[peer];
        if slot.incarnation > 0 {
            self.metrics.inner.reconnects_total.fetch_add(1, Ordering::Relaxed);
        }
        slot.incarnation += 1;
        slot.state = PeerState::Up;
        slot.last_heartbeat = Some(now);
        let incarnation = slot.incarnation;
        self.refresh_up_gauge();
        incarnation
    }

    /// A connection from a `Down` peer arrived but the join handshake
    /// is still in flight.
    pub fn begin_reconnect(&mut self, peer: usize) {
        let slot = &mut self.peers[peer];
        if slot.state == PeerState::Down {
            slot.state = PeerState::Reconnecting;
        }
    }

    /// A heartbeat from `peer` at `now`. Returns the peer to `Up` from
    /// `Suspect`; ignored for `Down`/`Reconnecting` peers (only a full
    /// rejoin revives those — a heartbeat of a dead incarnation must
    /// not resurrect it).
    pub fn heartbeat(&mut self, peer: usize, now: Instant) {
        let slot = &mut self.peers[peer];
        match slot.state {
            PeerState::Up | PeerState::Suspect => {
                slot.state = PeerState::Up;
                slot.last_heartbeat = Some(now);
                self.refresh_up_gauge();
            }
            PeerState::Down | PeerState::Reconnecting => {}
        }
    }

    /// The peer's control connection severed (EOF, reset): declare it
    /// `Down` immediately — there is no link left to be slow on.
    pub fn disconnect(&mut self, peer: usize) {
        self.peers[peer].state = PeerState::Down;
        self.refresh_up_gauge();
    }

    /// Advance heartbeat timeouts to `now`: `Up` peers silent for
    /// `suspect_after` become `Suspect`; peers silent for the **full**
    /// `down_after` since their last heartbeat become `Down`. A
    /// `Suspect` peer is never rushed to `Down` early — the down budget
    /// is measured from the last heartbeat, not from entering
    /// `Suspect` — so a healthy-but-slow link oscillates `Up ↔ Suspect`
    /// without ever flapping to an outage.
    pub fn tick(&mut self, now: Instant) {
        for slot in &mut self.peers {
            let Some(last) = slot.last_heartbeat else { continue };
            let silence = now.saturating_duration_since(last);
            match slot.state {
                PeerState::Up if silence >= self.config.suspect_after => {
                    slot.state = PeerState::Suspect;
                }
                _ => {}
            }
            if matches!(slot.state, PeerState::Up | PeerState::Suspect)
                && silence >= self.config.down_after
            {
                slot.state = PeerState::Down;
            }
        }
        self.refresh_up_gauge();
    }

    /// Current state of `peer`.
    pub fn state(&self, peer: usize) -> PeerState {
        self.peers[peer].state
    }

    /// Peers currently participating (`Up` or `Suspect`).
    fn up_count(&self) -> usize {
        self.peers.iter().filter(|s| matches!(s.state, PeerState::Up | PeerState::Suspect)).count()
    }

    /// `true` when every peer is participating.
    pub fn all_up(&self) -> bool {
        self.up_count() == self.peers.len()
    }

    /// The incarnation last handed to `peer` (0 = never joined).
    pub fn incarnation(&self, peer: usize) -> u32 {
        self.peers[peer].incarnation
    }

    /// The per-peer incarnation floor for mesh admission: exactly the
    /// incarnations currently handed out, so any hello from an earlier
    /// life is rejected.
    pub fn min_incarnations(&self) -> Vec<u32> {
        self.peers.iter().map(|s| s.incarnation).collect()
    }

    fn refresh_up_gauge(&self) {
        self.metrics.inner.peers_up.store(self.up_count() as u64, Ordering::Relaxed);
    }
}

/// Jittered exponential backoff with a bounded attempt budget — how a
/// returning provider paces its redials of the coordinator.
///
/// Delay for attempt `n` is `min(cap, base · 2ⁿ)` scaled by a
/// deterministic jitter in `[0.5, 1.0)` (xorshift64* over the seed), so
/// a herd of restarting providers never redials in lockstep yet every
/// schedule replays exactly from its seed.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    budget: u32,
    attempt: u32,
    rng: u64,
}

impl Backoff {
    /// A budgeted schedule: at most `budget` delays, starting at `base`
    /// and doubling up to `cap`.
    pub fn new(base: Duration, cap: Duration, budget: u32, seed: u64) -> Backoff {
        Backoff { base, cap, budget, attempt: 0, rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1 }
    }

    /// Attempts consumed so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// The next delay to sleep before redialling, or `None` once the
    /// reconnect budget is exhausted (the caller gives up).
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.attempt >= self.budget {
            return None;
        }
        let exp = self.base.saturating_mul(1u32 << self.attempt.min(16));
        let full = exp.min(self.cap);
        // xorshift64* for the jitter factor in [0.5, 1.0).
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        let r = self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let unit = (r >> 11) as f64 / (1u64 << 53) as f64;
        self.attempt += 1;
        Some(full.mul_f64(0.5 + unit / 2.0))
    }

    /// Start the schedule over (after a successful connect).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LivenessConfig {
        LivenessConfig {
            suspect_after: Duration::from_millis(100),
            down_after: Duration::from_millis(300),
        }
    }

    #[test]
    fn suspect_to_down_requires_the_full_timeout() {
        let mut t = LivenessTracker::new(1, cfg());
        let t0 = Instant::now();
        t.join(0, t0);
        assert_eq!(t.state(0), PeerState::Up);

        t.tick(t0 + Duration::from_millis(99));
        assert_eq!(t.state(0), PeerState::Up, "inside the suspect budget");
        t.tick(t0 + Duration::from_millis(100));
        assert_eq!(t.state(0), PeerState::Suspect);
        // Entering Suspect must NOT restart the clock: Down is measured
        // from the last heartbeat, and needs the full budget.
        t.tick(t0 + Duration::from_millis(299));
        assert_eq!(t.state(0), PeerState::Suspect, "down budget not yet spent");
        t.tick(t0 + Duration::from_millis(300));
        assert_eq!(t.state(0), PeerState::Down);
    }

    #[test]
    fn healthy_but_slow_link_never_flaps_to_down() {
        let mut t = LivenessTracker::new(1, cfg());
        let t0 = Instant::now();
        t.join(0, t0);
        // Heartbeats land every 150ms: always late (Suspect) but always
        // inside the 300ms down budget.
        let mut last = t0;
        for beat in 1..=50u64 {
            let arrive = t0 + Duration::from_millis(150 * beat);
            t.tick(arrive - Duration::from_millis(1));
            assert_ne!(t.state(0), PeerState::Down, "beat {beat}: slow link flapped Down");
            t.heartbeat(0, arrive);
            assert_eq!(t.state(0), PeerState::Up, "beat {beat}: heartbeat must restore Up");
            last = arrive;
        }
        assert_eq!(t.metrics().reconnects_total(), 0, "no reconnects on a slow link");
        let _ = last;
    }

    #[test]
    fn rejoin_bumps_incarnation_and_counts_one_reconnect() {
        let mut t = LivenessTracker::new(2, cfg());
        let t0 = Instant::now();
        assert_eq!(t.join(0, t0), 1);
        assert_eq!(t.join(1, t0), 1);
        assert!(t.all_up());
        assert_eq!(t.metrics().peers_up(), 2);

        t.disconnect(1);
        assert_eq!(t.state(1), PeerState::Down);
        assert_eq!(t.metrics().peers_up(), 1);
        // A dead incarnation's heartbeat must not resurrect the peer.
        t.heartbeat(1, t0 + Duration::from_millis(10));
        assert_eq!(t.state(1), PeerState::Down);

        t.begin_reconnect(1);
        assert_eq!(t.state(1), PeerState::Reconnecting);
        assert_eq!(t.join(1, t0 + Duration::from_millis(20)), 2, "incarnation bumped");
        assert_eq!(t.state(1), PeerState::Up);
        assert_eq!(t.metrics().reconnects_total(), 1);
        assert_eq!(t.min_incarnations(), vec![1, 2]);
    }

    #[test]
    fn backoff_is_exponential_capped_jittered_and_budgeted() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(160);
        let mut b = Backoff::new(base, cap, 6, 42);
        let delays: Vec<Duration> = std::iter::from_fn(|| b.next_delay()).collect();
        assert_eq!(delays.len(), 6, "budget bounds the schedule");
        assert!(b.next_delay().is_none(), "exhausted budget yields None");
        for (i, d) in delays.iter().enumerate() {
            let full = (base * (1u32 << i)).min(cap);
            assert!(*d <= full, "attempt {i}: jitter never exceeds the full delay");
            assert!(*d >= full / 2, "attempt {i}: jitter floor is half the full delay");
        }
        // Deterministic in the seed; different seeds de-synchronize.
        let again: Vec<Duration> = std::iter::from_fn({
            let mut b = Backoff::new(base, cap, 6, 42);
            move || b.next_delay()
        })
        .collect();
        assert_eq!(delays, again, "same seed, same schedule");
        let other: Vec<Duration> = std::iter::from_fn({
            let mut b = Backoff::new(base, cap, 6, 43);
            move || b.next_delay()
        })
        .collect();
        assert_ne!(delays, other, "different seeds jitter differently");
    }
}
