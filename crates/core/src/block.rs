//! The building-block abstraction of §4 of the paper.
//!
//! Every protocol piece — bid agreement, input validation, common coin,
//! data transfer, the allocator, and the full auctioneer — is a [`Block`]:
//! a deterministic state machine that is started once, consumes messages,
//! sends messages through a [`Ctx`], and eventually produces a
//! [`BlockResult`]: either a valid value or the special abort value ⊥.
//!
//! Blocks are transport-agnostic: the same state machine runs under the
//! deterministic turn-based game scheduler (`dauctioneer-sim`) used by the
//! correctness and deviation tests, and under real threads
//! (`crate::pool`) used by the wall-clock benchmarks.

use bytes::Bytes;
use dauctioneer_net::frame;
use dauctioneer_types::ProviderId;

/// The outcome of one building block at one provider: a value, or ⊥.
///
/// ⊥ is absorbing: once any sub-block of a composite aborts, the composite
/// aborts, and (per §3.2) the externally-enforced outcome of the whole
/// simulation is ⊥ unless *every* provider outputs the same valid pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockResult<T> {
    /// The block completed with this value.
    Value(T),
    /// The block aborted (⊥): a protocol violation was detected or an
    /// input mismatch made progress impossible.
    Abort,
}

impl<T> BlockResult<T> {
    /// `true` for ⊥.
    pub fn is_abort(&self) -> bool {
        matches!(self, BlockResult::Abort)
    }

    /// The value, if any.
    pub fn as_value(&self) -> Option<&T> {
        match self {
            BlockResult::Value(v) => Some(v),
            BlockResult::Abort => None,
        }
    }

    /// Map the value, preserving ⊥.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> BlockResult<U> {
        match self {
            BlockResult::Value(v) => BlockResult::Value(f(v)),
            BlockResult::Abort => BlockResult::Abort,
        }
    }
}

/// The sending context a block runs in. Implementations deliver to a real
/// transport ([`crate::pool`]), collect into an outbox (the simulator),
/// or wrap a parent context with a channel tag ([`TaggedCtx`]).
pub trait Ctx {
    /// The provider executing this block.
    fn me(&self) -> ProviderId;

    /// Total number of providers `m` in the simulation.
    fn num_providers(&self) -> usize;

    /// Send `payload` to provider `to`. Sending to self is a no-op (blocks
    /// account for their own contribution directly).
    fn send(&mut self, to: ProviderId, payload: Bytes);

    /// Send `payload` to every provider except `me`.
    fn broadcast(&mut self, payload: Bytes) {
        for to in ProviderId::all(self.num_providers()) {
            if to != self.me() {
                self.send(to, payload.clone());
            }
        }
    }
}

/// A deterministic, message-driven protocol state machine.
///
/// Contract:
/// * [`Block::start`] is called exactly once before any message delivery.
/// * [`Block::on_message`] is called for each delivered message. Blocks
///   must tolerate any arrival order across peers (the schedule is
///   adversarial) and treat malformed or duplicate messages as protocol
///   violations that lead to ⊥, never as panics.
/// * Once [`Block::result`] returns `Some`, further messages are ignored
///   and the result never changes.
pub trait Block {
    /// What the block produces.
    type Output;

    /// Begin the protocol (send first-round messages).
    fn start(&mut self, ctx: &mut dyn Ctx);

    /// Handle one delivered message.
    fn on_message(&mut self, from: ProviderId, payload: &[u8], ctx: &mut dyn Ctx);

    /// The block's result, once decided.
    fn result(&self) -> Option<&BlockResult<Self::Output>>;
}

/// A [`Ctx`] that frames every outgoing payload with a channel tag, so a
/// composite block can multiplex its children over the parent's link.
pub struct TaggedCtx<'a> {
    tag: u64,
    parent: &'a mut dyn Ctx,
}

impl<'a> TaggedCtx<'a> {
    /// Wrap `parent`, framing sends with `tag`.
    pub fn new(tag: u64, parent: &'a mut dyn Ctx) -> TaggedCtx<'a> {
        TaggedCtx { tag, parent }
    }
}

impl Ctx for TaggedCtx<'_> {
    fn me(&self) -> ProviderId {
        self.parent.me()
    }

    fn num_providers(&self) -> usize {
        self.parent.num_providers()
    }

    fn send(&mut self, to: ProviderId, payload: Bytes) {
        self.parent.send(to, frame(self.tag, &payload));
    }

    fn broadcast(&mut self, payload: Bytes) {
        // Encode-once: frame the tag a single time and let every peer
        // share the frozen buffer. The default `Ctx::broadcast` would
        // re-run `frame` (an allocation and a copy) per peer; through
        // nested tag layers that multiplies by the stack depth, and it is
        // pure waste — the framed message is identical for all peers.
        self.parent.broadcast(frame(self.tag, &payload));
    }
}

/// A [`Ctx`] that collects sends into an outbox; used by the simulator and
/// by tests.
#[derive(Debug)]
pub struct OutboxCtx {
    me: ProviderId,
    m: usize,
    /// Messages queued by the block, in send order.
    pub outbox: Vec<(ProviderId, Bytes)>,
}

impl OutboxCtx {
    /// A context for provider `me` among `m` providers.
    pub fn new(me: ProviderId, m: usize) -> OutboxCtx {
        OutboxCtx { me, m, outbox: Vec::new() }
    }

    /// Drain the queued messages.
    pub fn drain(&mut self) -> Vec<(ProviderId, Bytes)> {
        std::mem::take(&mut self.outbox)
    }
}

impl Ctx for OutboxCtx {
    fn me(&self) -> ProviderId {
        self.me
    }

    fn num_providers(&self) -> usize {
        self.m
    }

    fn send(&mut self, to: ProviderId, payload: Bytes) {
        if to != self.me {
            self.outbox.push((to, payload));
        }
    }
}

/// Holds a child block that may start later than messages for it arrive.
///
/// In a composite like the auctioneer, a fast peer can finish bid
/// agreement and send allocator messages while we are still agreeing; the
/// slot buffers those until the child is activated, then replays them in
/// arrival order.
#[derive(Debug)]
pub enum SubSlot<B: Block> {
    /// Child not yet constructed; messages buffered.
    Pending(Vec<(ProviderId, Bytes)>),
    /// Child running.
    Active(B),
}

impl<B: Block> Default for SubSlot<B> {
    fn default() -> Self {
        SubSlot::Pending(Vec::new())
    }
}

impl<B: Block> SubSlot<B> {
    /// New empty slot.
    pub fn new() -> SubSlot<B> {
        SubSlot::default()
    }

    /// Deliver a message to the child, or buffer it if not yet active.
    pub fn deliver(&mut self, from: ProviderId, payload: &[u8], ctx: &mut dyn Ctx) {
        match self {
            SubSlot::Pending(buf) => buf.push((from, Bytes::copy_from_slice(payload))),
            SubSlot::Active(block) => block.on_message(from, payload, ctx),
        }
    }

    /// Activate the child: start it and replay buffered messages.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already active (a composite bug, not a
    /// protocol condition).
    pub fn activate(&mut self, mut block: B, ctx: &mut dyn Ctx) {
        let buffered = match self {
            SubSlot::Pending(buf) => std::mem::take(buf),
            SubSlot::Active(_) => panic!("sub-block activated twice"),
        };
        block.start(ctx);
        for (from, payload) in buffered {
            block.on_message(from, &payload, ctx);
        }
        *self = SubSlot::Active(block);
    }

    /// The child, if active.
    pub fn active(&self) -> Option<&B> {
        match self {
            SubSlot::Pending(_) => None,
            SubSlot::Active(b) => Some(b),
        }
    }

    /// The child's result, if active and decided.
    pub fn result(&self) -> Option<&BlockResult<B::Output>> {
        self.active().and_then(|b| b.result())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dauctioneer_net::unframe;

    #[test]
    fn block_result_accessors() {
        let v: BlockResult<u32> = BlockResult::Value(7);
        assert!(!v.is_abort());
        assert_eq!(v.as_value(), Some(&7));
        assert_eq!(v.map(|x| x + 1), BlockResult::Value(8));
        let a: BlockResult<u32> = BlockResult::Abort;
        assert!(a.is_abort());
        assert_eq!(a.as_value(), None);
        assert_eq!(a.map(|x| x + 1), BlockResult::Abort);
    }

    #[test]
    fn outbox_collects_and_skips_self() {
        let mut ctx = OutboxCtx::new(ProviderId(1), 3);
        ctx.broadcast(Bytes::from_static(b"x"));
        let sent = ctx.drain();
        let tos: Vec<_> = sent.iter().map(|(to, _)| *to).collect();
        assert_eq!(tos, vec![ProviderId(0), ProviderId(2)]);
        assert!(ctx.drain().is_empty());
    }

    #[test]
    fn tagged_ctx_frames_sends() {
        let mut outer = OutboxCtx::new(ProviderId(0), 2);
        {
            let mut tagged = TaggedCtx::new(42, &mut outer);
            tagged.send(ProviderId(1), Bytes::from_static(b"inner"));
            assert_eq!(tagged.me(), ProviderId(0));
            assert_eq!(tagged.num_providers(), 2);
        }
        let sent = outer.drain();
        let (tag, payload) = unframe(&sent[0].1).unwrap();
        assert_eq!(tag, 42);
        assert_eq!(payload, b"inner");
    }

    #[test]
    fn tagged_broadcast_encodes_once_and_shares_the_buffer() {
        // The shared-`Bytes` path: a broadcast through two nested tag
        // layers (channel inside session, as the engine stacks them) must
        // produce per-peer copies that all point at the SAME backing
        // buffer — i.e. exactly one `frame` encode per layer per message,
        // never one per peer.
        let mut outer = OutboxCtx::new(ProviderId(0), 5);
        {
            let mut session = TaggedCtx::new(7, &mut outer);
            let mut channel = TaggedCtx::new(42, &mut session);
            channel.broadcast(Bytes::from_static(b"round payload"));
        }
        let sent = outer.drain();
        assert_eq!(sent.len(), 4, "one copy per peer");
        let first = &sent[0].1;
        for (_, payload) in &sent {
            assert_eq!(
                payload.as_ptr(),
                first.as_ptr(),
                "per-peer broadcast copies must share one frozen buffer"
            );
        }
        // And the bytes are the correctly double-framed message.
        let (tag, inner) = unframe(first).unwrap();
        assert_eq!(tag, 7);
        let (tag, body) = unframe(inner).unwrap();
        assert_eq!(tag, 42);
        assert_eq!(body, b"round payload");
    }

    /// A block that records what it saw (test double).
    struct Probe {
        started: bool,
        seen: Vec<(ProviderId, Vec<u8>)>,
        result: Option<BlockResult<u32>>,
    }

    impl Block for Probe {
        type Output = u32;
        fn start(&mut self, _ctx: &mut dyn Ctx) {
            self.started = true;
        }
        fn on_message(&mut self, from: ProviderId, payload: &[u8], _ctx: &mut dyn Ctx) {
            self.seen.push((from, payload.to_vec()));
            self.result = Some(BlockResult::Value(self.seen.len() as u32));
        }
        fn result(&self) -> Option<&BlockResult<u32>> {
            self.result.as_ref()
        }
    }

    #[test]
    fn subslot_buffers_until_activation_and_replays_in_order() {
        let mut ctx = OutboxCtx::new(ProviderId(0), 2);
        let mut slot: SubSlot<Probe> = SubSlot::new();
        slot.deliver(ProviderId(1), b"first", &mut ctx);
        slot.deliver(ProviderId(1), b"second", &mut ctx);
        assert!(slot.result().is_none());
        slot.activate(Probe { started: false, seen: Vec::new(), result: None }, &mut ctx);
        let probe = slot.active().unwrap();
        assert!(probe.started);
        assert_eq!(probe.seen.len(), 2);
        assert_eq!(probe.seen[0].1, b"first");
        assert_eq!(probe.seen[1].1, b"second");
        assert_eq!(slot.result(), Some(&BlockResult::Value(2)));
        // Further messages go straight through.
        slot.deliver(ProviderId(1), b"third", &mut ctx);
        assert_eq!(slot.result(), Some(&BlockResult::Value(3)));
    }

    #[test]
    #[should_panic(expected = "activated twice")]
    fn subslot_rejects_double_activation() {
        let mut ctx = OutboxCtx::new(ProviderId(0), 2);
        let mut slot: SubSlot<Probe> = SubSlot::new();
        slot.activate(Probe { started: false, seen: Vec::new(), result: None }, &mut ctx);
        slot.activate(Probe { started: false, seen: Vec::new(), result: None }, &mut ctx);
    }
}
