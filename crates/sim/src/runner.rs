//! The simulator: one deterministic message pump on virtual clocks.
//!
//! [`SimRunner`] drives any set of protocol [`Block`]s; full auction
//! sessions ([`run_auction_sim`]) drive [`SessionEngine`]s, so session
//! framing, dispatch and seeding are the shared `dauctioneer-core::engine`
//! code — the same loop the threaded runtime runs.
//!
//! The paper's testbed gives every provider its own CPU (§6.1). A host
//! with fewer cores cannot reproduce that with threads, so every provider
//! here owns a **virtual clock**: an event (start or delivery) begins at
//! `max(clock, arrival)` and ends after its *measured* CPU time, and a
//! message sent at the end of an event arrives after its link delay.
//! Under the turn-based schedules links are instant and the schedule
//! alone orders delivery; under [`SchedulePolicy::Timed`] the earliest
//! arrival is delivered first, which is the discrete-event simulation.
//! A session's *span* is its latest decision time — the paper's
//! client-observed completion time. The protocol cannot observe the
//! clocks, so outcomes never depend on them.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use dauctioneer_core::engine::{unanimous, SessionEngine};
use dauctioneer_core::{
    strategy_for, validate_collected, Adversary, AdversaryKind, AllocatorProgram, BatchConfig,
    Block, FrameworkConfig, OutboxCtx, RunError,
};
use dauctioneer_types::{BidVector, Outcome, ProviderId};

use crate::schedule::{SchedulePolicy, ScheduleState};

/// One in-flight message and its virtual arrival time.
pub(crate) struct InFlight {
    pub(crate) from: ProviderId,
    pub(crate) to: ProviderId,
    pub(crate) payload: Bytes,
    pub(crate) arrival: Duration,
}

/// Drives a set of protocol blocks (one per provider) under a schedule,
/// with each provider's outgoing messages transformed by its
/// [`AdversaryKind`], until every block decided, no message is pending,
/// or the step budget is exhausted.
///
/// Turn-based schedules are deterministic: same blocks + same policy ⇒
/// same execution, which is what lets the deviation tests make exact
/// claims.
pub struct SimRunner<B: Block> {
    agents: Vec<B>,
    adversaries: Vec<AdversaryKind>,
    sent: Vec<usize>,
    pending: VecDeque<InFlight>,
    schedule: ScheduleState,
    clocks: Vec<Duration>,
    decided_at: Vec<Option<Duration>>,
    delivered: u64,
    bytes: u64,
    started: bool,
}

impl<B: Block> SimRunner<B> {
    /// A runner over `agents` (index = provider id) with the deviations
    /// of `adversaries`; `seed` seeds the link delays of
    /// [`SchedulePolicy::Timed`].
    pub fn new(
        agents: Vec<B>,
        adversaries: &[Adversary],
        policy: SchedulePolicy,
        seed: u64,
    ) -> SimRunner<B> {
        let m = agents.len();
        SimRunner {
            agents,
            adversaries: (0..m).map(|j| strategy_for(adversaries, ProviderId(j as u32))).collect(),
            sent: vec![0; m],
            pending: VecDeque::new(),
            schedule: ScheduleState::new(policy, seed),
            clocks: vec![Duration::ZERO; m],
            decided_at: vec![None; m],
            delivered: 0,
            bytes: 0,
            started: false,
        }
    }

    /// Run until quiescence (or `max_steps` deliveries). Returns `true`
    /// if the run quiesced (no pending messages or all agents decided).
    pub fn run(&mut self, max_steps: u64) -> bool {
        if !self.started {
            self.started = true;
            for j in 0..self.agents.len() {
                self.event(j, None);
            }
        }
        while self.delivered < max_steps {
            if self.pending.is_empty() || self.agents.iter().all(|a| a.result().is_some()) {
                return true;
            }
            let idx = self.schedule.pick(&self.pending);
            let msg = self.pending.remove(idx).expect("index in range");
            self.delivered += 1;
            self.bytes += msg.payload.len() as u64;
            self.event(msg.to.index(), Some(msg));
        }
        self.pending.is_empty()
    }

    /// The latest decision time, or `None` while some agent is undecided.
    pub fn span(&self) -> Option<Duration> {
        self.decided_at.iter().try_fold(Duration::ZERO, |latest, t| t.map(|t| latest.max(t)))
    }

    /// Start provider `j` (`msg` is `None`) or deliver `msg` to it, on its
    /// virtual clock, and queue what it sends.
    fn event(&mut self, j: usize, msg: Option<InFlight>) {
        let (m, me, kind) = (self.agents.len(), ProviderId(j as u32), self.adversaries[j]);
        let mut ctx = OutboxCtx::new(me, m);
        let begin = msg.as_ref().map_or(self.clocks[j], |msg| self.clocks[j].max(msg.arrival));
        let cpu = Instant::now();
        match msg {
            None => self.agents[j].start(&mut ctx),
            Some(msg) => self.agents[j].on_message(msg.from, &msg.payload, &mut ctx),
        }
        self.clocks[j] = begin + cpu.elapsed();
        if self.decided_at[j].is_none() && self.agents[j].result().is_some() {
            self.decided_at[j] = Some(self.clocks[j]);
        }
        for (to, payload) in ctx.drain() {
            // Lateness holds each send back on the sender's clock; only
            // `Timed` delivers by the clocks, so elsewhere it moves times only.
            if let AdversaryKind::Late { delay } = kind {
                self.clocks[j] += delay;
            }
            let n = self.sent[j];
            self.sent[j] += 1;
            kind.deviate(n, to, payload, |to, payload| {
                if to.index() < m && to != me {
                    let arrival = self.clocks[j] + self.schedule.link_delay(payload.len());
                    self.pending.push_back(InFlight { from: me, to, payload, arrival });
                }
            });
        }
    }
}

/// Report of a simulated auction session.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Outcome at each provider; `None` means the provider never decided
    /// (possible only under deviations that withhold messages — the
    /// external mechanism of §3.2 treats it as ⊥).
    pub outcomes: Vec<Option<Outcome>>,
    /// Virtual time at which each provider decided.
    pub decision_times: Vec<Option<Duration>>,
    /// Latest decision time — the session's completion time as a client
    /// would observe it. `None` if some provider never decided.
    pub span: Option<Duration>,
    /// Messages delivered before quiescence.
    pub delivered: u64,
    /// Payload bytes delivered before quiescence.
    pub bytes: u64,
}

impl SimReport {
    /// The session outcome per Definition 1: the pair if *every* provider
    /// decided on the same pair, otherwise ⊥.
    pub fn unanimous(&self) -> Outcome {
        unanimous(self.outcomes.iter().map(|o| o.as_ref()))
    }

    /// Outcomes of the providers *not* in `coalition` — what the honest
    /// majority observed.
    pub fn honest_unanimous(&self, coalition: &[usize]) -> Outcome {
        unanimous(
            self.outcomes
                .iter()
                .enumerate()
                .filter(|(i, _)| !coalition.contains(i))
                .map(|(_, o)| o.as_ref()),
        )
    }
}

/// Run a full auction session in the simulator.
///
/// `collected[j]` is provider `j`'s view of the bids; `adversaries` names
/// the deviating providers, as for the threaded runtimes; the session's
/// [`SessionEngine`]s come from [`SessionEngine::roster`], so seeding and
/// session framing are identical to the other runtimes.
///
/// # Errors
///
/// The run checks of the threaded runtime that apply to a simulated run,
/// made by the same code ([`BatchConfig::validate`] and
/// [`validate_collected`]): [`RunError::Framework`],
/// [`RunError::AdversaryOutOfRange`] and [`RunError::CollectedLength`].
pub fn run_auction_sim<P: AllocatorProgram + 'static>(
    cfg: &FrameworkConfig,
    program: Arc<P>,
    collected: Vec<BidVector>,
    adversaries: &[Adversary],
    policy: SchedulePolicy,
    seed: u64,
) -> Result<SimReport, RunError> {
    BatchConfig { adversaries: adversaries.to_vec(), ..BatchConfig::default() }.validate(cfg)?;
    validate_collected(cfg, cfg.session, &collected)?;
    let agents = SessionEngine::roster(cfg, &program, collected, seed);
    // Link draws decorrelated from the providers' local seeds.
    let mut runner = SimRunner::new(agents, adversaries, policy, seed ^ 0x9E37_79B9_7F4A_7C15);
    // Generous budget; protocol rounds are O(m² · blocks).
    let quiesced = runner.run(10_000_000);
    debug_assert!(quiesced, "step budget too small");
    Ok(SimReport {
        outcomes: runner.agents.iter().map(SessionEngine::outcome).collect(),
        span: runner.span(),
        decision_times: runner.decided_at,
        delivered: runner.delivered,
        bytes: runner.bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinkModel;
    use dauctioneer_core::DoubleAuctionProgram;
    use dauctioneer_net::LatencyModel;
    use dauctioneer_types::{Bw, Money, ProviderAsk, UserBid};

    fn cfg(m: usize, k: usize) -> FrameworkConfig {
        FrameworkConfig::new(m, k, 3, 2)
    }

    fn bids() -> BidVector {
        BidVector::builder(3, 2)
            .user_bid(0, UserBid::new(Money::from_f64(1.2), Bw::from_f64(0.5)))
            .user_bid(1, UserBid::new(Money::from_f64(1.0), Bw::from_f64(0.5)))
            .user_bid(2, UserBid::new(Money::from_f64(0.8), Bw::from_f64(0.5)))
            .provider_ask(0, ProviderAsk::new(Money::from_f64(0.1), Bw::from_f64(1.0)))
            .provider_ask(1, ProviderAsk::new(Money::from_f64(0.5), Bw::from_f64(1.0)))
            .build()
    }

    fn run(m: usize, k: usize, adversaries: &[Adversary], policy: SchedulePolicy) -> SimReport {
        let program = Arc::new(DoubleAuctionProgram::new());
        run_auction_sim(&cfg(m, k), program, vec![bids(); m], adversaries, policy, 1).unwrap()
    }

    fn one(provider: u32, kind: AdversaryKind) -> [Adversary; 1] {
        [Adversary::new(ProviderId(provider), kind)]
    }

    #[test]
    fn honest_simulation_agrees_and_reports_its_traffic_and_span() {
        let report = run(3, 1, &[], SchedulePolicy::Fifo);
        assert!(!report.unanimous().is_abort());
        assert!(report.delivered > 0);
        assert!(report.bytes > report.delivered, "messages carry payloads");
        assert_eq!(report.span, report.decision_times.iter().flatten().max().copied());
    }

    #[test]
    fn outcome_is_schedule_independent() {
        // Ex post: the decided pair must be identical under every fair
        // schedule (the coin material depends only on the providers'
        // committed randomness, not on delivery order), virtual time
        // included.
        let fifo = run(3, 1, &[], SchedulePolicy::Fifo).unanimous();
        assert!(!fifo.is_abort());
        for seed in 0..5 {
            assert_eq!(run(3, 1, &[], SchedulePolicy::SeededRandom(seed)).unanimous(), fifo);
        }
        let starve = SchedulePolicy::DelayProvider { victim: ProviderId(2), seed: 3 };
        assert_eq!(run(3, 1, &[], starve).unanimous(), fifo);
        let timed = SchedulePolicy::Timed(LinkModel::community_net());
        assert_eq!(run(3, 1, &[], timed).unanimous(), fifo);
    }

    #[test]
    fn latency_dominates_span_for_cheap_computation() {
        let fast = run(3, 1, &[], SchedulePolicy::Timed(LinkModel::instant()));
        let slow_link =
            LinkModel { latency: LatencyModel::ConstantMicros(5_000), bytes_per_sec: None };
        let slow = run(3, 1, &[], SchedulePolicy::Timed(slow_link));
        // Identical outcome, very different virtual span.
        assert_eq!(fast.unanimous(), slow.unanimous());
        let (fast, slow) = (fast.span.unwrap(), slow.span.unwrap());
        // At least 3 protocol round trips of 5 ms each.
        assert!(slow > fast + Duration::from_millis(10), "fast {fast:?} slow {slow:?}");
    }

    #[test]
    fn a_late_provider_stretches_the_timed_span_but_still_clears() {
        let timed = || SchedulePolicy::Timed(LinkModel::instant());
        let on_time = run(3, 1, &[], timed());
        let late =
            run(3, 1, &one(2, AdversaryKind::Late { delay: Duration::from_millis(2) }), timed());
        assert_eq!(late.unanimous(), on_time.unanimous());
        assert!(late.span.unwrap() >= Duration::from_millis(10), "{:?}", late.span);
    }

    #[test]
    fn equivocating_provider_forces_abort_not_divergence() {
        let equivocate = one(0, AdversaryKind::Equivocator { victim: ProviderId(1) });
        let report = run(3, 1, &equivocate, SchedulePolicy::Fifo);
        // Resilience to collusive influence: honest providers output the
        // honest pair or ⊥ — never a *different* accepted pair.
        let honest_outcome = report.honest_unanimous(&[0]);
        assert!(honest_outcome.is_abort(), "equivocation must not produce an accepted outcome");
    }

    #[test]
    fn corrupting_and_replaying_providers_force_abort() {
        let corrupt = run(3, 1, &one(2, AdversaryKind::Corrupt), SchedulePolicy::SeededRandom(4));
        assert!(corrupt.unanimous().is_abort());
        // Duplicate round messages are a detectable protocol violation.
        assert!(run(3, 1, &one(1, AdversaryKind::Replay), SchedulePolicy::Fifo)
            .unanimous()
            .is_abort());
    }

    #[test]
    fn full_paper_configuration_m8_k3() {
        // The largest configuration of §6: eight providers tolerating a
        // three-member coalition.
        let report = run(8, 3, &[], SchedulePolicy::SeededRandom(4));
        assert!(!report.unanimous().is_abort());
        assert_eq!(report.outcomes.len(), 8);
    }

    #[test]
    fn muted_provider_stalls_but_never_diverges() {
        let report = run(3, 1, &one(1, AdversaryKind::Silent { after: 0 }), SchedulePolicy::Fifo);
        // Nobody can decide a pair without the mute provider's messages;
        // per §3.2 the external mechanism aborts. No provider may hold an
        // accepted pair.
        for o in &report.outcomes {
            assert!(
                !matches!(o, Some(Outcome::Agreed(_))),
                "an accepted pair leaked through a muted run: {o:?}"
            );
        }
        assert!(report.unanimous().is_abort());
        assert_eq!(report.span, None, "an undecided provider leaves no span");
    }
}
