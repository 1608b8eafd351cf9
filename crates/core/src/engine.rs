//! The shared per-provider protocol loop: one [`SessionEngine`] under
//! every runtime.
//!
//! The provider loop — construct the [`Auctioneer`] with the provider's
//! local seed, start it, frame every outgoing message with the session
//! tag, unframe and session-filter every incoming message, dispatch to
//! the auctioneer, and map deadlines/disconnects to the external ⊥ of
//! §3.2 — lives here, once. The paper runs the *same* protocol blocks
//! regardless of deployment, and so do both runtimes: the threaded
//! runtime ([`crate::runtime`]) and `dauctioneer-sim`'s `SimRunner`,
//! whose schedules cover both the turn-based game model and virtual time.
//! They are thin drivers that differ only in how messages move.
//!
//! * [`SessionEngine`] — wraps one provider's [`Auctioneer`] with
//!   session-tag framing, foreign-session filtering, and external abort.
//!   It implements [`Block`], so any message pump that can drive a block
//!   can drive a whole session.
//! * [`SessionEngine::roster`] — builds the engines for all `m`
//!   providers with the canonical per-provider seed fan-out
//!   (`seed + j + 1`), shared by every runtime.
//! * [`Transport`] — the minimal blocking point-to-point interface; the
//!   generic [`drive`]/[`drive_multi`] loops run one or many engines
//!   over any transport with deadline → ⊥ handling. [`drive_multi`] is
//!   what lets many concurrent sessions share one transport: the session
//!   tag in each frame routes the message to its engine, and frames for
//!   unknown (stale or future) sessions are dropped.
//! * [`unanimous`] — Definition 1, in one place: the agreed pair iff
//!   *every* provider decided the same valid pair, else ⊥.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use dauctioneer_net::{unframe, RecvError};
use dauctioneer_types::{BidVector, Outcome, ProviderId, SessionId};

use crate::allocator::AllocatorProgram;
use crate::auctioneer::Auctioneer;
use crate::block::{Block, BlockResult, Ctx, TaggedCtx};
use crate::config::FrameworkConfig;

/// One provider's protocol loop for one auction session.
///
/// The engine owns the session framing discipline: every outgoing message
/// is prefixed with the session tag, every incoming message is unframed
/// and checked against it, and messages that are malformed or belong to a
/// different session are silently dropped — a late straggler of session
/// *t* can never perturb session *t+1* sharing the same transport.
///
/// External aborts (a deadline passing, the transport dying) are recorded
/// with [`SessionEngine::force_abort`]; the result then reads ⊥ without
/// consulting the auctioneer again, mirroring §3.2's externally-enforced
/// outcome.
pub struct SessionEngine<P: AllocatorProgram> {
    session: u64,
    me: ProviderId,
    auctioneer: Auctioneer<P>,
    forced: Option<BlockResult<dauctioneer_types::AuctionResult>>,
}

impl<P: AllocatorProgram> SessionEngine<P> {
    /// Engine for provider `me`, seeding the provider's local randomness
    /// from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the collected vector's
    /// shape does not match it (both local programming errors).
    pub fn new(
        cfg: FrameworkConfig,
        me: ProviderId,
        program: Arc<P>,
        collected: BidVector,
        seed: u64,
    ) -> SessionEngine<P> {
        let session = cfg.session.0;
        SessionEngine {
            session,
            me,
            auctioneer: Auctioneer::new_seeded(cfg, me, program, collected, seed),
            forced: None,
        }
    }

    /// Engines for all `m` providers of one session, with the canonical
    /// seed fan-out: provider `j` draws its local randomness from
    /// `seed + j + 1`. `collected[j]` is the bid vector provider `j`
    /// gathered (they may differ — that is what bid agreement resolves).
    ///
    /// # Panics
    ///
    /// Panics if `collected.len() != cfg.m`.
    pub fn roster(
        cfg: &FrameworkConfig,
        program: &Arc<P>,
        collected: Vec<BidVector>,
        seed: u64,
    ) -> Vec<SessionEngine<P>> {
        assert_eq!(collected.len(), cfg.m, "one collected vector per provider");
        collected
            .into_iter()
            .enumerate()
            .map(|(j, bids)| {
                SessionEngine::new(
                    cfg.clone(),
                    ProviderId(j as u32),
                    Arc::clone(program),
                    bids,
                    seed + j as u64 + 1,
                )
            })
            .collect()
    }

    /// The session this engine participates in.
    pub fn session(&self) -> SessionId {
        SessionId(self.session)
    }

    /// The provider running this engine.
    pub fn me(&self) -> ProviderId {
        self.me
    }

    /// Record an external abort (deadline passed, transport gone): the
    /// engine's result becomes ⊥ unless the auctioneer already decided.
    pub fn force_abort(&mut self) {
        if self.auctioneer.result().is_none() {
            self.forced = Some(BlockResult::Abort);
        }
    }

    /// `true` once the engine has a result (decision or ⊥).
    pub fn decided(&self) -> bool {
        self.result().is_some()
    }

    /// The session outcome in the §3.2 vocabulary, once decided.
    pub fn outcome(&self) -> Option<Outcome> {
        if self.forced.is_some() {
            return Some(Outcome::Abort);
        }
        self.auctioneer.outcome()
    }

    /// Deliver an already-unframed payload that is known to belong to
    /// this session. Used by multiplexing drivers that routed the frame
    /// themselves; everyone else goes through [`Block::on_message`].
    fn deliver_unframed(&mut self, from: ProviderId, inner: &[u8], ctx: &mut dyn Ctx) {
        if self.forced.is_some() {
            return;
        }
        let mut tagged = TaggedCtx::new(self.session, ctx);
        self.auctioneer.on_message(from, inner, &mut tagged);
    }
}

impl<P: AllocatorProgram> Block for SessionEngine<P> {
    type Output = dauctioneer_types::AuctionResult;

    fn start(&mut self, ctx: &mut dyn Ctx) {
        let mut tagged = TaggedCtx::new(self.session, ctx);
        self.auctioneer.start(&mut tagged);
    }

    fn on_message(&mut self, from: ProviderId, payload: &[u8], ctx: &mut dyn Ctx) {
        let Ok((tag, inner)) = unframe(payload) else {
            return; // not even a session frame: drop
        };
        if tag != self.session {
            return; // stale message from another session: drop
        }
        self.deliver_unframed(from, inner, ctx);
    }

    fn result(&self) -> Option<&BlockResult<dauctioneer_types::AuctionResult>> {
        self.forced.as_ref().or_else(|| self.auctioneer.result())
    }
}

/// Definition 1 of the paper, shared by every report type: the agreed
/// pair iff *every* provider decided the same valid pair, otherwise ⊥
/// (including the degenerate no-providers case).
pub fn unanimous<'a, I>(outcomes: I) -> Outcome
where
    I: IntoIterator<Item = Option<&'a Outcome>>,
{
    let mut first: Option<&Outcome> = None;
    for outcome in outcomes {
        match outcome {
            None | Some(Outcome::Abort) => return Outcome::Abort,
            Some(agreed) => match first {
                None => first = Some(agreed),
                Some(prev) if prev == agreed => {}
                Some(_) => return Outcome::Abort,
            },
        }
    }
    first.cloned().unwrap_or(Outcome::Abort)
}

/// The blocking point-to-point transport the generic drive loops run
/// over. The trait itself lives in `dauctioneer-net` (next to the
/// transports and the fault-injection adapters that wrap them) and is
/// re-exported here so protocol-layer code keeps one import path.
pub use dauctioneer_net::Transport;

/// [`Ctx`] over a [`Transport`].
struct TransportCtx<'a, T: Transport> {
    transport: &'a mut T,
}

impl<T: Transport> Ctx for TransportCtx<'_, T> {
    fn me(&self) -> ProviderId {
        self.transport.me()
    }

    fn num_providers(&self) -> usize {
        self.transport.num_providers()
    }

    fn send(&mut self, to: ProviderId, payload: Bytes) {
        if to != self.transport.me() {
            self.transport.send(to, payload);
        }
    }
}

/// How often a blocked drive loop re-checks its deadline.
const DEADLINE_POLL: Duration = Duration::from_millis(100);

/// Drive one engine over a blocking transport until it decides or the
/// deadline passes (→ ⊥). This is the whole provider loop of the
/// threaded runtime.
pub fn drive<P, T>(engine: &mut SessionEngine<P>, transport: &mut T, deadline: Duration) -> Outcome
where
    P: AllocatorProgram,
    T: Transport,
{
    drive_multi(std::slice::from_mut(engine), transport, deadline)
        .pop()
        .expect("one engine, one outcome")
}

/// Drive several engines — concurrent sessions of one provider — over a
/// single shared transport until all decide or the deadline passes
/// (undecided sessions → ⊥). Incoming frames are routed to the engine
/// whose session tag matches; frames for unknown sessions are dropped.
///
/// Returns one outcome per engine, in input order.
pub fn drive_multi<P, T>(
    engines: &mut [SessionEngine<P>],
    transport: &mut T,
    deadline: Duration,
) -> Vec<Outcome>
where
    P: AllocatorProgram,
    T: Transport,
{
    drive_multi_timed(engines, transport, deadline).0
}

/// [`drive_multi`] that also reports *when* each engine decided, as an
/// offset from loop entry (`None` = never decided before the deadline →
/// its outcome is the forced ⊥). The telemetry plane turns these into
/// per-session span blocks; the cost over plain [`drive_multi`] is one
/// `Instant::elapsed` per decision, so there is no untimed fast path.
pub fn drive_multi_timed<P, T>(
    engines: &mut [SessionEngine<P>],
    transport: &mut T,
    deadline: Duration,
) -> (Vec<Outcome>, Vec<Option<Duration>>)
where
    P: AllocatorProgram,
    T: Transport,
{
    let started = Instant::now();
    for engine in engines.iter_mut() {
        let mut ctx = TransportCtx { transport };
        engine.start(&mut ctx);
    }
    // Degenerate engines (single provider, empty programs) can decide
    // inside start() itself; stamp those immediately.
    let mut decided_at: Vec<Option<Duration>> =
        engines.iter().map(|e| if e.decided() { Some(started.elapsed()) } else { None }).collect();
    let mut undecided = engines.iter().filter(|e| !e.decided()).count();
    while undecided > 0 {
        let left = deadline.saturating_sub(started.elapsed());
        if left.is_zero() {
            break; // external abort: the deadline passed
        }
        match transport.recv_timeout(left.min(DEADLINE_POLL)) {
            Ok((from, payload)) => {
                let Ok((tag, inner)) = unframe(&payload) else {
                    continue; // not even a session frame: drop
                };
                let Some(slot) = engines.iter().position(|e| e.session.eq(&tag)) else {
                    continue; // stale message from another session: drop
                };
                let engine = &mut engines[slot];
                let was_decided = engine.decided();
                let mut ctx = TransportCtx { transport };
                engine.deliver_unframed(from, inner, &mut ctx);
                if !was_decided && engine.decided() {
                    decided_at[slot] = Some(started.elapsed());
                    undecided -= 1;
                }
            }
            Err(RecvError::Timeout) => {}
            Err(RecvError::Disconnected) => break, // external abort
        }
    }
    let outcomes = engines
        .iter_mut()
        .map(|engine| {
            engine.force_abort();
            engine.outcome().expect("decided or force-aborted")
        })
        .collect();
    (outcomes, decided_at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::DoubleAuctionProgram;
    use crate::block::OutboxCtx;
    use dauctioneer_types::{Bw, Money, ProviderAsk, UserBid};

    fn bids() -> BidVector {
        BidVector::builder(2, 1)
            .user_bid(0, UserBid::new(Money::from_f64(1.2), Bw::from_f64(0.5)))
            .user_bid(1, UserBid::new(Money::from_f64(0.9), Bw::from_f64(0.5)))
            .provider_ask(0, ProviderAsk::new(Money::from_f64(0.2), Bw::from_f64(2.0)))
            .build()
    }

    fn engines(session: u64, seed: u64) -> Vec<SessionEngine<DoubleAuctionProgram>> {
        let cfg = FrameworkConfig::new(3, 1, 2, 1).with_session(SessionId(session));
        SessionEngine::roster(&cfg, &Arc::new(DoubleAuctionProgram::new()), vec![bids(); 3], seed)
    }

    /// Deliver all pending messages FIFO until quiescence.
    fn pump(engines: &mut [SessionEngine<DoubleAuctionProgram>]) {
        let m = engines.len();
        let mut pending: Vec<(usize, ProviderId, Bytes)> = Vec::new();
        for (i, engine) in engines.iter_mut().enumerate() {
            let mut ctx = OutboxCtx::new(ProviderId(i as u32), m);
            engine.start(&mut ctx);
            for (to, payload) in ctx.drain() {
                pending.push((to.index(), ProviderId(i as u32), payload));
            }
        }
        while !pending.is_empty() {
            let (to, from, payload) = pending.remove(0);
            let mut ctx = OutboxCtx::new(ProviderId(to as u32), m);
            engines[to].on_message(from, &payload, &mut ctx);
            for (dest, payload) in ctx.drain() {
                pending.push((dest.index(), ProviderId(to as u32), payload));
            }
        }
    }

    #[test]
    fn engines_reach_unanimous_outcome() {
        let mut engines = engines(7, 1);
        pump(&mut engines);
        let outcomes: Vec<Outcome> = engines.iter().map(|e| e.outcome().unwrap()).collect();
        assert!(!unanimous(outcomes.iter().map(Some)).is_abort());
        for engine in &engines {
            assert_eq!(engine.session(), SessionId(7));
            assert!(engine.decided());
        }
    }

    #[test]
    fn foreign_session_frames_are_dropped() {
        let mut current = engines(2, 1);
        let mut stale = engines(1, 99);

        // Capture a genuine session-1 message: provider 0's first sends.
        let mut ctx = OutboxCtx::new(ProviderId(0), 3);
        stale[0].start(&mut ctx);
        let straggler = ctx.drain().remove(0).1;

        // A straggler of session 1 lands at a session-2 engine mid-run:
        // ignored entirely, and the outcome matches an undisturbed run.
        let mut undisturbed = engines(2, 1);
        pump(&mut undisturbed);
        let mut ctx = OutboxCtx::new(ProviderId(1), 3);
        current[1].on_message(ProviderId(0), &straggler, &mut ctx);
        assert!(ctx.drain().is_empty(), "stale frame must not trigger sends");
        pump(&mut current);
        assert_eq!(
            unanimous(
                current.iter().map(|e| e.outcome()).collect::<Vec<_>>().iter().map(|o| o.as_ref())
            ),
            unanimous(
                undisturbed
                    .iter()
                    .map(|e| e.outcome())
                    .collect::<Vec<_>>()
                    .iter()
                    .map(|o| o.as_ref())
            ),
        );
        assert!(!current[1].outcome().unwrap().is_abort());
    }

    #[test]
    fn malformed_frames_are_dropped() {
        let mut engines = engines(3, 5);
        let mut ctx = OutboxCtx::new(ProviderId(0), 3);
        engines[0].start(&mut ctx);
        ctx.drain();
        engines[0].on_message(ProviderId(1), &[1, 2, 3], &mut ctx); // too short for a frame
        assert!(engines[0].result().is_none());
        assert!(ctx.drain().is_empty());
    }

    #[test]
    fn force_abort_reads_as_bottom_but_preserves_decisions() {
        let mut undecided = engines(4, 2);
        undecided[0].force_abort();
        assert_eq!(undecided[0].outcome(), Some(Outcome::Abort));
        assert!(undecided[0].decided());

        let mut decided = engines(4, 2);
        pump(&mut decided);
        let outcome = decided[0].outcome().unwrap();
        decided[0].force_abort();
        assert_eq!(decided[0].outcome(), Some(outcome), "a decision is never retracted");
    }

    #[test]
    fn unanimous_implements_definition_one() {
        let agreed = {
            let mut engines = engines(9, 3);
            pump(&mut engines);
            engines[0].outcome().unwrap()
        };
        assert_eq!(unanimous([Some(&agreed), Some(&agreed)]), agreed);
        assert_eq!(unanimous([Some(&agreed), None]), Outcome::Abort);
        assert_eq!(unanimous([Some(&agreed), Some(&Outcome::Abort)]), Outcome::Abort);
        assert_eq!(unanimous([]), Outcome::Abort);
        assert_eq!(unanimous([Some(&Outcome::Abort)]), Outcome::Abort);
    }
}
