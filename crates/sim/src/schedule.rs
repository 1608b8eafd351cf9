//! Delivery schedules: the adversary's lever in the asynchronous model.
//!
//! A schedule decides, at every turn, which in-flight message is delivered
//! next (§3.3 of the paper). Because the simulator runs until no message
//! is pending, every policy here is *fair* — each sent message is
//! eventually delivered — but they explore very different interleavings,
//! which is what "k-resilient **ex post** equilibrium" quantifies over.
//! [`SchedulePolicy::Timed`] is the discrete-event simulation: messages
//! travel a [`LinkModel`] and arrive in virtual-time order.

use std::collections::VecDeque;
use std::time::Duration;

use dauctioneer_net::LatencyModel;
use dauctioneer_types::ProviderId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::runner::InFlight;

/// How the simulator picks the next message to deliver.
#[derive(Debug, Clone)]
pub enum SchedulePolicy {
    /// Deliver in send order (the most synchronous-looking interleaving).
    Fifo,
    /// Deliver a uniformly random pending message, deterministically from
    /// the seed.
    SeededRandom(u64),
    /// Starve one provider: messages *to* the victim are delivered only
    /// when nothing else is pending — the most adversarial fair schedule
    /// against a single node.
    DelayProvider {
        /// The starved provider.
        victim: ProviderId,
        /// Seed ordering the non-victim traffic.
        seed: u64,
    },
    /// Virtual time: every message arrives a [`LinkModel`] delay after
    /// its sender's clock, and the earliest arrival is delivered first
    /// (ties in send order). Events charge their measured CPU time, so
    /// the order — never the outcome — varies run to run.
    Timed(LinkModel),
}

/// Link timing model: propagation latency plus optional serialisation
/// (bandwidth) delay.
#[derive(Debug, Clone, Copy)]
pub struct LinkModel {
    /// Propagation delay distribution.
    pub latency: LatencyModel,
    /// Link bandwidth in bytes/second (`None` = infinite).
    pub bytes_per_sec: Option<u64>,
}

impl LinkModel {
    /// No delay at all (pure-computation studies).
    pub fn instant() -> LinkModel {
        LinkModel { latency: LatencyModel::Zero, bytes_per_sec: None }
    }

    /// The community-network profile used by the figure benches:
    /// 1.5–6 ms one-way propagation and a 25 Mbit/s access link — the
    /// regime of wireless community-network backhaul like the paper's
    /// Guifi testbed.
    pub fn community_net() -> LinkModel {
        LinkModel { latency: LatencyModel::CommunityNet, bytes_per_sec: Some(3_125_000) }
    }

    /// Delay for one message of `bytes` payload bytes.
    pub fn delay(&self, bytes: usize, rng: &mut StdRng) -> Duration {
        let propagation = self.latency.sample(rng);
        let serialisation = match self.bytes_per_sec {
            Some(bps) if bps > 0 => Duration::from_secs_f64(bytes as f64 / bps as f64),
            _ => Duration::ZERO,
        };
        propagation + serialisation
    }
}

/// Instantiated schedule state.
pub(crate) struct ScheduleState {
    policy: SchedulePolicy,
    rng: StdRng,
}

impl ScheduleState {
    /// `link_seed` seeds the link-delay draws of [`SchedulePolicy::Timed`];
    /// the other policies carry their own seed.
    pub(crate) fn new(policy: SchedulePolicy, link_seed: u64) -> ScheduleState {
        let seed = match &policy {
            SchedulePolicy::Fifo => 0,
            SchedulePolicy::SeededRandom(s) => *s,
            SchedulePolicy::DelayProvider { seed, .. } => *seed,
            SchedulePolicy::Timed(_) => link_seed,
        };
        ScheduleState { policy, rng: StdRng::seed_from_u64(seed) }
    }

    /// Link delay of a `bytes`-byte message; zero, and no draw, unless
    /// the schedule is [`SchedulePolicy::Timed`].
    pub(crate) fn link_delay(&mut self, bytes: usize) -> Duration {
        match &self.policy {
            SchedulePolicy::Timed(link) => link.delay(bytes, &mut self.rng),
            _ => Duration::ZERO,
        }
    }

    /// Pick the index of the next message to deliver from the non-empty
    /// pending list, which is in send order.
    pub(crate) fn pick(&mut self, pending: &VecDeque<InFlight>) -> usize {
        debug_assert!(!pending.is_empty());
        match &self.policy {
            SchedulePolicy::Fifo => 0,
            SchedulePolicy::SeededRandom(_) => self.rng.gen_range(0..pending.len()),
            SchedulePolicy::DelayProvider { victim, .. } => {
                let non_victim: Vec<usize> =
                    (0..pending.len()).filter(|&i| pending[i].to != *victim).collect();
                if non_victim.is_empty() {
                    self.rng.gen_range(0..pending.len())
                } else {
                    non_victim[self.rng.gen_range(0..non_victim.len())]
                }
            }
            // `min_by_key` keeps the first of equal keys: the earliest send.
            SchedulePolicy::Timed(_) => {
                (0..pending.len()).min_by_key(|&i| pending[i].arrival).expect("a pending message")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    /// A pending list of messages with these `(to, arrival in µs)`.
    fn pending(msgs: &[(u32, u64)]) -> VecDeque<InFlight> {
        msgs.iter()
            .map(|&(to, at)| InFlight {
                from: ProviderId(9),
                to: ProviderId(to),
                payload: Bytes::new(),
                arrival: Duration::from_micros(at),
            })
            .collect()
    }

    #[test]
    fn fifo_always_picks_first() {
        let mut s = ScheduleState::new(SchedulePolicy::Fifo, 0);
        for len in 1..5 {
            assert_eq!(s.pick(&pending(&vec![(0, 9); len])), 0);
        }
    }

    #[test]
    fn seeded_random_is_deterministic() {
        let picks = |seed| {
            let mut s = ScheduleState::new(SchedulePolicy::SeededRandom(seed), 0);
            (0..20).map(|_| s.pick(&pending(&[(0, 0); 10]))).collect::<Vec<_>>()
        };
        assert_eq!(picks(5), picks(5));
        assert_ne!(picks(5), picks(6));
    }

    #[test]
    fn delay_provider_starves_victim_while_alternatives_exist() {
        let mut s =
            ScheduleState::new(SchedulePolicy::DelayProvider { victim: ProviderId(0), seed: 1 }, 0);
        // Messages 0 and 2 go to the victim; only 1 and 3 are eligible.
        let mixed = pending(&[(0, 0), (1, 0), (0, 0), (1, 0)]);
        for _ in 0..20 {
            let i = s.pick(&mixed);
            assert!(i == 1 || i == 3);
        }
        // With only victim-bound messages pending, fairness forces one.
        assert!(s.pick(&pending(&[(0, 0), (0, 0)])) < 2);
    }

    #[test]
    fn timed_picks_the_earliest_arrival_then_the_earliest_send() {
        let mut s = ScheduleState::new(SchedulePolicy::Timed(LinkModel::instant()), 0);
        assert_eq!(s.pick(&pending(&[(1, 30), (2, 10), (0, 20)])), 1);
        assert_eq!(s.pick(&pending(&[(1, 30), (2, 10), (0, 10), (1, 10)])), 1);
        assert_eq!(s.pick(&pending(&[(1, 5)])), 0);
    }

    #[test]
    fn only_timed_draws_link_delays() {
        let link = LinkModel { latency: LatencyModel::Zero, bytes_per_sec: Some(1_000_000) };
        let mut timed = ScheduleState::new(SchedulePolicy::Timed(link), 0);
        assert_eq!(timed.link_delay(1_000), Duration::from_millis(1));
        assert_eq!(timed.link_delay(100_000), Duration::from_millis(100));
        let mut fifo = ScheduleState::new(SchedulePolicy::Fifo, 0);
        assert_eq!(fifo.link_delay(100_000), Duration::ZERO);
    }
}
