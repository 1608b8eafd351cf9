//! The Data Transfer building block (§4.2, Property 5).
//!
//! A set `S` of providers (each holding what should be the same value —
//! the output of a replicated task) broadcasts it to a set `O` of
//! receivers. A receiver that observes two different values outputs ⊥.
//! With `|S| > k`, a coalition of at most `k` providers cannot make any
//! receiver accept a forged value: at least one honest sender's copy
//! always reaches every receiver, so a forgery produces a mismatch and ⊥
//! rather than a wrong acceptance.

use bytes::Bytes;
use dauctioneer_types::ProviderId;

use crate::block::{Block, BlockResult, Ctx};

/// The data-transfer block for one edge of the task graph.
#[derive(Debug)]
pub struct DataTransfer {
    me: ProviderId,
    senders: Vec<ProviderId>,
    receivers: Vec<ProviderId>,
    /// This provider's copy of the value, if it is a sender.
    input: Option<Bytes>,
    /// The value this receiver has accepted so far.
    accepted: Option<Bytes>,
    /// Which senders have been heard from.
    heard: Vec<bool>,
    heard_count: usize,
    result: Option<BlockResult<Bytes>>,
}

impl DataTransfer {
    /// Create the block. `senders` and `receivers` must be sorted and
    /// deduplicated; `input` must be `Some` exactly when `me ∈ senders`.
    ///
    /// # Panics
    ///
    /// Panics if `input.is_some() != senders.contains(me)` — a local
    /// wiring error in the task engine, not a protocol condition.
    pub fn new(
        me: ProviderId,
        senders: Vec<ProviderId>,
        receivers: Vec<ProviderId>,
        input: Option<Bytes>,
    ) -> DataTransfer {
        let is_sender = senders.binary_search(&me).is_ok();
        assert_eq!(
            is_sender,
            input.is_some(),
            "input must be provided exactly by senders (me = {me})"
        );
        let heard = vec![false; senders.len()];
        DataTransfer {
            me,
            senders,
            receivers,
            input,
            accepted: None,
            heard,
            heard_count: 0,
            result: None,
        }
    }

    fn abort(&mut self) {
        if self.result.is_none() {
            self.result = Some(BlockResult::Abort);
        }
    }

    fn accept(&mut self, sender_idx: usize, value: Bytes) {
        if self.heard[sender_idx] {
            self.abort();
            return;
        }
        self.heard[sender_idx] = true;
        self.heard_count += 1;
        match &self.accepted {
            None => self.accepted = Some(value),
            Some(prev) => {
                if *prev != value {
                    self.abort();
                    return;
                }
            }
        }
        if self.heard_count == self.senders.len() {
            self.result =
                Some(BlockResult::Value(self.accepted.clone().expect("at least one sender heard")));
        }
    }
}

impl Block for DataTransfer {
    type Output = Bytes;

    fn start(&mut self, ctx: &mut dyn Ctx) {
        let is_receiver = self.receivers.binary_search(&self.me).is_ok();
        if let Some(value) = self.input.clone() {
            // Sender: ship our copy to every receiver.
            for &to in &self.receivers {
                if to != self.me {
                    ctx.send(to, value.clone());
                }
            }
            if is_receiver {
                // Our own copy counts as one sender's voice.
                let idx = self.senders.binary_search(&self.me).expect("checked in new");
                self.accept(idx, value);
            } else {
                // Pure sender: done, the value is its own output.
                self.result = Some(BlockResult::Value(value));
            }
        } else if !is_receiver {
            // Bystander: trivially complete.
            self.result = Some(BlockResult::Value(Bytes::new()));
        }
    }

    fn on_message(&mut self, from: ProviderId, payload: &[u8], _ctx: &mut dyn Ctx) {
        if self.result.is_some() && !matches!(self.result, Some(BlockResult::Value(_))) {
            return;
        }
        if self.result.is_some() {
            // Already decided; late messages must still match or they
            // reveal a violation — but a decided block's output is final,
            // so we simply ignore them.
            return;
        }
        // Only members of S may speak on this channel.
        let Ok(idx) = self.senders.binary_search(&from) else {
            self.abort();
            return;
        };
        self.accept(idx, Bytes::copy_from_slice(payload));
    }

    fn result(&self) -> Option<&BlockResult<Bytes>> {
        self.result.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::OutboxCtx;

    fn p(ids: &[u32]) -> Vec<ProviderId> {
        ids.iter().map(|&i| ProviderId(i)).collect()
    }

    #[test]
    fn receivers_accept_unanimous_senders() {
        // S = {0, 1}, O = {2}; both senders ship "v".
        let mut receiver = DataTransfer::new(ProviderId(2), p(&[0, 1]), p(&[2]), None);
        let mut ctx = OutboxCtx::new(ProviderId(2), 3);
        receiver.start(&mut ctx);
        assert!(receiver.result().is_none());
        receiver.on_message(ProviderId(0), b"v", &mut ctx);
        assert!(receiver.result().is_none(), "must wait for all senders");
        receiver.on_message(ProviderId(1), b"v", &mut ctx);
        assert_eq!(receiver.result(), Some(&BlockResult::Value(Bytes::from_static(b"v"))));
    }

    #[test]
    fn conflicting_values_abort() {
        let mut receiver = DataTransfer::new(ProviderId(2), p(&[0, 1]), p(&[2]), None);
        let mut ctx = OutboxCtx::new(ProviderId(2), 3);
        receiver.start(&mut ctx);
        receiver.on_message(ProviderId(0), b"v", &mut ctx);
        receiver.on_message(ProviderId(1), b"FORGED", &mut ctx);
        assert_eq!(receiver.result(), Some(&BlockResult::Abort));
    }

    #[test]
    fn sender_ships_to_all_receivers_and_completes() {
        let mut sender = DataTransfer::new(
            ProviderId(0),
            p(&[0, 1]),
            p(&[2, 3]),
            Some(Bytes::from_static(b"data")),
        );
        let mut ctx = OutboxCtx::new(ProviderId(0), 4);
        sender.start(&mut ctx);
        let sent = ctx.drain();
        let tos: Vec<_> = sent.iter().map(|(to, _)| *to).collect();
        assert_eq!(tos, p(&[2, 3]));
        assert_eq!(sent[0].1.as_ref(), b"data");
        assert_eq!(sender.result(), Some(&BlockResult::Value(Bytes::from_static(b"data"))));
    }

    #[test]
    fn sender_receiver_counts_own_copy() {
        // S = {0, 1}, O = {0}: provider 0 both sends and receives.
        let mut node =
            DataTransfer::new(ProviderId(0), p(&[0, 1]), p(&[0]), Some(Bytes::from_static(b"x")));
        let mut ctx = OutboxCtx::new(ProviderId(0), 2);
        node.start(&mut ctx);
        assert!(node.result().is_none(), "still needs provider 1's copy");
        node.on_message(ProviderId(1), b"x", &mut ctx);
        assert_eq!(node.result(), Some(&BlockResult::Value(Bytes::from_static(b"x"))));
    }

    #[test]
    fn non_sender_speaking_aborts() {
        let mut receiver = DataTransfer::new(ProviderId(2), p(&[0]), p(&[2]), None);
        let mut ctx = OutboxCtx::new(ProviderId(2), 4);
        receiver.start(&mut ctx);
        receiver.on_message(ProviderId(3), b"intruder", &mut ctx);
        assert_eq!(receiver.result(), Some(&BlockResult::Abort));
    }

    #[test]
    fn duplicate_sender_aborts() {
        let mut receiver = DataTransfer::new(ProviderId(2), p(&[0, 1]), p(&[2]), None);
        let mut ctx = OutboxCtx::new(ProviderId(2), 3);
        receiver.start(&mut ctx);
        receiver.on_message(ProviderId(0), b"v", &mut ctx);
        receiver.on_message(ProviderId(0), b"v", &mut ctx);
        assert_eq!(receiver.result(), Some(&BlockResult::Abort));
    }

    #[test]
    fn bystander_completes_immediately() {
        let mut bystander = DataTransfer::new(ProviderId(5), p(&[0]), p(&[1]), None);
        let mut ctx = OutboxCtx::new(ProviderId(5), 6);
        bystander.start(&mut ctx);
        assert!(matches!(bystander.result(), Some(BlockResult::Value(_))));
        assert!(ctx.drain().is_empty());
    }

    #[test]
    #[should_panic(expected = "input must be provided exactly by senders")]
    fn sender_without_input_is_a_wiring_error() {
        let _ = DataTransfer::new(ProviderId(0), p(&[0, 1]), p(&[2]), None);
    }
}
