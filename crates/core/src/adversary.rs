//! Adversarial provider strategies: the deviations the paper's
//! k-resilience argument must defeat, in one vocabulary for every
//! driver.
//!
//! `dauctioneer-net`'s chaos plane sabotages *links*; this module
//! sabotages *providers*. An [`AdversaryKind`] transforms one
//! provider's outgoing message stream — going silent mid-protocol,
//! sending late, equivocating (conflicting values to different peers),
//! corrupting, starving one peer, replaying, or emitting garbage frames
//! — while the provider's own
//! [`SessionEngine`](crate::engine::SessionEngine) runs the honest
//! protocol underneath. That is exactly the §3 threat shape: the
//! adversary controls what leaves a deviating provider, not what the
//! honest majority computes.
//!
//! The transform is written once, [`AdversaryKind::deviate`], and both
//! drivers call it: [`AdversaryTransport`] on every threaded or socket
//! endpoint, and `dauctioneer-sim`'s runner on every simulated send. Both
//! take the same `&[Adversary]` roster. Strategies compose with link
//! chaos: the worker pool wraps every endpoint as
//! `AdversaryTransport<ChaosTransport<T>>` (see
//! [`SessionPool::start`](crate::pool::SessionPool::start)), so a run can
//! feature both a lossy network and a deviating provider.
//! The required end state, asserted by the chaos suite and the
//! equilibrium tests: every such run terminates in either the fault-free
//! honest outcome or the paper-mandated ⊥-abort — never a hang, never a
//! divergent clearing.

use std::time::Duration;

use bytes::Bytes;
use dauctioneer_net::{RecvError, Transport};
use dauctioneer_types::ProviderId;

/// How a deviating provider treats its own outgoing messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdversaryKind {
    /// Follow the protocol (the wrapper is a pass-through).
    #[default]
    Honest,
    /// Send the first `after` messages, then go silent — withholding /
    /// crash. `after == 0` is a crash before the first send. Rational
    /// providers never profit from this (the outcome reads ⊥ and their
    /// utility is 0), which is exactly what the suite verifies.
    Silent {
        /// Messages allowed out before the silence.
        after: usize,
    },
    /// A slow provider: every send is held back by `delay`. Nothing is
    /// ever lost — this stays within the model's fair asynchronous
    /// schedule (every message is eventually delivered), so modest
    /// delays must still clear; a delay that pushes the session past its
    /// deadline reads ⊥ like any other external abort. The transport
    /// blocks the sender's loop for it; the simulator advances the
    /// sender's virtual clock.
    Late {
        /// Added delay per outgoing message.
        delay: Duration,
    },
    /// Send conflicting values to different peers: copies addressed to
    /// `victim` get their last payload byte flipped, so the victim's view
    /// of this provider diverges from everyone else's.
    Equivocator {
        /// The peer that receives the altered copies.
        victim: ProviderId,
    },
    /// Replace every `period`-th outgoing message with a garbage frame
    /// (junk bytes, no valid session tag): the real message is withheld
    /// *and* the peer's parser is exercised. `period` is clamped to at
    /// least 1 (all garbage, all the time).
    GarbageFrames {
        /// Replace every `period`-th message.
        period: usize,
    },
    /// Flip a byte of every outgoing payload — the shape a wrong (or
    /// dishonest) task computation takes on the wire.
    Corrupt,
    /// Selective withholding: never send anything to `victim`.
    DropTo {
        /// The starved peer.
        victim: ProviderId,
    },
    /// Send every message twice. Channels deliver exactly once, so a
    /// duplicate can only come from a deviating sender; blocks detect it
    /// as a protocol violation.
    Replay,
}

impl AdversaryKind {
    /// The send-side transform: hand `emit` what a provider following
    /// this strategy actually sends for its `n`-th (0-based) outgoing
    /// message, `payload` to `to` — nothing, one message or two.
    /// [`AdversaryKind::Late`] passes through here, because lateness is a
    /// matter of time, which each driver models for itself.
    pub fn deviate(
        &self,
        n: usize,
        to: ProviderId,
        payload: Bytes,
        mut emit: impl FnMut(ProviderId, Bytes),
    ) {
        match *self {
            AdversaryKind::Honest | AdversaryKind::Late { .. } => emit(to, payload),
            AdversaryKind::Silent { after } => {
                if n < after {
                    emit(to, payload);
                }
            }
            AdversaryKind::Equivocator { victim } if to == victim => {
                emit(to, flip_last(payload, 0xFF));
            }
            AdversaryKind::Equivocator { .. } => emit(to, payload),
            AdversaryKind::GarbageFrames { period } => {
                if (n + 1) % period.max(1) == 0 {
                    // Junk that is not even a valid session frame; the
                    // real message is withheld.
                    emit(to, Bytes::copy_from_slice(&[0xDE, 0xAD, (n & 0xFF) as u8]));
                } else {
                    emit(to, payload);
                }
            }
            AdversaryKind::Corrupt => emit(to, flip_last(payload, 0x55)),
            AdversaryKind::DropTo { victim } => {
                if to != victim {
                    emit(to, payload);
                }
            }
            AdversaryKind::Replay => {
                emit(to, payload.clone());
                emit(to, payload);
            }
        }
    }
}

/// `payload` with its last byte XORed with `mask`; empty payloads pass.
fn flip_last(payload: Bytes, mask: u8) -> Bytes {
    let mut altered = payload.to_vec();
    match altered.last_mut() {
        Some(last) => *last ^= mask,
        None => return payload,
    }
    Bytes::from(altered)
}

/// One deviating provider in a run: who, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Adversary {
    /// The deviating provider.
    pub provider: ProviderId,
    /// Its strategy.
    pub kind: AdversaryKind,
}

impl Adversary {
    /// Pair a provider with a strategy.
    pub fn new(provider: ProviderId, kind: AdversaryKind) -> Adversary {
        Adversary { provider, kind }
    }
}

/// The strategy `roster` assigns to `provider` ([`AdversaryKind::Honest`]
/// when unlisted; the last entry wins when listed twice).
pub fn strategy_for(roster: &[Adversary], provider: ProviderId) -> AdversaryKind {
    roster
        .iter()
        .rev()
        .find(|a| a.provider == provider)
        .map(|a| a.kind)
        .unwrap_or(AdversaryKind::Honest)
}

/// A [`Transport`] wrapper applying an [`AdversaryKind`] to the
/// provider's outgoing messages. Receives pass through untouched (the
/// adversary reads honestly — deviating on reads only hurts itself).
///
/// [`AdversaryKind::Late`] blocks inside `send` rather than parking the
/// message: the provider is *slow*, not lossy. (Parking with deferred
/// release would quietly strand whatever is still parked when the
/// provider's drive loop decides and stops pumping — turning lateness
/// into message loss, which is a different deviation with a different
/// contract.)
#[derive(Debug)]
pub struct AdversaryTransport<T> {
    inner: T,
    kind: AdversaryKind,
    sent: usize,
}

impl<T: Transport> AdversaryTransport<T> {
    /// Wrap `inner` under `kind`.
    pub fn new(inner: T, kind: AdversaryKind) -> AdversaryTransport<T> {
        AdversaryTransport { inner, kind, sent: 0 }
    }
}

impl<T: Transport> Transport for AdversaryTransport<T> {
    fn me(&self) -> ProviderId {
        self.inner.me()
    }

    fn num_providers(&self) -> usize {
        self.inner.num_providers()
    }

    fn send(&mut self, to: ProviderId, payload: Bytes) {
        match self.kind {
            AdversaryKind::Honest => self.inner.send(to, payload),
            kind => {
                if let AdversaryKind::Late { delay } = kind {
                    // Slow, not lossy: stall the provider's loop, then send.
                    std::thread::sleep(delay);
                }
                let n = self.sent;
                self.sent += 1;
                let inner = &mut self.inner;
                kind.deviate(n, to, payload, |to, payload| inner.send(to, payload));
            }
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<(ProviderId, Bytes), RecvError> {
        self.inner.recv_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dauctioneer_net::{LatencyModel, ThreadedHub};

    fn mesh(m: usize) -> Vec<dauctioneer_net::Endpoint> {
        ThreadedHub::new(m, LatencyModel::Zero, 1).take_endpoints()
    }

    fn msg() -> Bytes {
        Bytes::from_static(b"payload")
    }

    /// Everything `kind` emits for `count` consecutive sends of `msg()` to `to`.
    fn emitted(kind: AdversaryKind, to: ProviderId, count: usize) -> Vec<(ProviderId, Bytes)> {
        let mut out = Vec::new();
        for n in 0..count {
            kind.deviate(n, to, msg(), |to, payload| out.push((to, payload)));
        }
        out
    }

    #[test]
    fn honest_and_late_pass_through() {
        for kind in [AdversaryKind::Honest, AdversaryKind::Late { delay: Duration::from_secs(9) }] {
            assert_eq!(emitted(kind, ProviderId(1), 2), vec![(ProviderId(1), msg()); 2]);
        }
    }

    #[test]
    fn silent_stops_after_budget() {
        assert_eq!(emitted(AdversaryKind::Silent { after: 2 }, ProviderId(1), 4).len(), 2);
        assert!(emitted(AdversaryKind::Silent { after: 0 }, ProviderId(1), 4).is_empty());
    }

    #[test]
    fn equivocator_alters_only_the_victim_copy() {
        let kind = AdversaryKind::Equivocator { victim: ProviderId(2) };
        assert_eq!(emitted(kind, ProviderId(1), 1), vec![(ProviderId(1), msg())]);
        let dirty = emitted(kind, ProviderId(2), 1);
        assert_ne!(dirty[0].1, msg());
        assert_eq!(dirty[0].1.len(), msg().len());
    }

    #[test]
    fn corrupt_alters_every_payload() {
        let out = emitted(AdversaryKind::Corrupt, ProviderId(1), 3);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|(to, p)| *to == ProviderId(1) && *p != msg() && p.len() == 7));
    }

    #[test]
    fn drop_to_starves_the_victim_only() {
        let kind = AdversaryKind::DropTo { victim: ProviderId(0) };
        assert!(emitted(kind, ProviderId(0), 3).is_empty());
        assert_eq!(emitted(kind, ProviderId(1), 3).len(), 3);
    }

    #[test]
    fn replay_duplicates_every_message() {
        assert_eq!(
            emitted(AdversaryKind::Replay, ProviderId(1), 1),
            vec![(ProviderId(1), msg()); 2]
        );
    }

    #[test]
    fn garbage_frames_replace_every_period_th_message() {
        let out = emitted(AdversaryKind::GarbageFrames { period: 2 }, ProviderId(1), 4);
        let junk: Vec<_> = out.iter().filter(|(_, p)| *p != msg()).collect();
        assert_eq!(junk.len(), 2);
        assert!(junk.iter().all(|(_, p)| p.len() < 7), "junk must not parse as a session frame");
    }

    #[test]
    fn honest_is_a_pass_through() {
        let mut eps = mesh(2);
        let peer = eps.remove(1);
        let mut honest = AdversaryTransport::new(eps.remove(0), AdversaryKind::Honest);
        honest.send(ProviderId(1), Bytes::from_static(b"hi"));
        let (from, payload) = peer.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(from, ProviderId(0));
        assert_eq!(&payload[..], b"hi");
    }

    #[test]
    fn transport_counts_sends_across_calls() {
        let mut eps = mesh(2);
        let peer = eps.remove(1);
        let mut silent = AdversaryTransport::new(eps.remove(0), AdversaryKind::Silent { after: 2 });
        for _ in 0..5 {
            silent.send(ProviderId(1), Bytes::from_static(b"x"));
        }
        assert!(peer.recv_timeout(Duration::from_secs(1)).is_ok());
        assert!(peer.recv_timeout(Duration::from_secs(1)).is_ok());
        assert!(peer.recv_timeout(Duration::from_millis(30)).is_err(), "third send withheld");
    }

    #[test]
    fn late_stalls_the_sender_but_loses_nothing() {
        let mut eps = mesh(2);
        let peer = eps.remove(1);
        let mut late = AdversaryTransport::new(
            eps.remove(0),
            AdversaryKind::Late { delay: Duration::from_millis(15) },
        );
        let start = std::time::Instant::now();
        late.send(ProviderId(1), Bytes::from_static(b"a"));
        late.send(ProviderId(1), Bytes::from_static(b"b"));
        assert!(start.elapsed() >= Duration::from_millis(28), "each send stalls the loop");
        // Slow, not lossy: both messages arrived, in order, by the time
        // the sends returned — the fair-schedule guarantee.
        let (_, first) = peer.recv_timeout(Duration::from_secs(1)).unwrap();
        let (_, second) = peer.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!((&first[..], &second[..]), (&b"a"[..], &b"b"[..]), "FIFO preserved");
    }

    #[test]
    fn roster_lookup_defaults_to_honest_and_last_wins() {
        let replay = AdversaryKind::Replay;
        let roster = [
            Adversary::new(ProviderId(1), AdversaryKind::Silent { after: 0 }),
            Adversary::new(ProviderId(1), replay),
        ];
        assert_eq!(strategy_for(&roster, ProviderId(0)), AdversaryKind::Honest);
        assert_eq!(strategy_for(&roster, ProviderId(1)), replay);
    }
}
