//! The parallel allocator (§4.2 of the paper, Fig. 3).
//!
//! Chains **input validation** → **common coin** → the **task graph**
//! execution of the allocation algorithm, with **data transfer** blocks
//! realising the graph's edges. Each task runs replicated on ≥ k+1
//! providers; receivers of a transfer accept a value only when every
//! replica shipped the same bytes, so a coalition of ≤ k providers can at
//! worst force ⊥, never a wrong result — condition (2) of Property 2,
//! *resilience to collusive influence*.
//!
//! The coin's only output is the [`SharedRng`] material the tasks are
//! seeded with, so it runs only for programs that read it
//! ([`AllocatorProgram::reads_shared_randomness`]). For the others the
//! tasks start as soon as validation passes, under a fixed material, and
//! a coin frame from a peer is a protocol violation (⊥).
//!
//! The concrete allocation algorithm is supplied as an
//! [`AllocatorProgram`]: its task graph, per-task computation, and final
//! assembly. `crate::adapters` provides the programs for the production
//! mechanisms.

use std::sync::Arc;

use bytes::Bytes;
use dauctioneer_mechanisms::SharedRng;
use dauctioneer_net::unframe;
use dauctioneer_types::{AuctionResult, BidVector, Encode, ProviderId};
use rand::RngCore;

use crate::block::{Block, BlockResult, Ctx, SubSlot, TaggedCtx};
use crate::blocks::common_coin::{CoinValue, CommonCoin};
use crate::blocks::data_transfer::DataTransfer;
use crate::blocks::input_validation::InputValidation;
use crate::config::FrameworkConfig;
use crate::distribution::Distribution;
use crate::task_graph::{TaskGraphSpec, TaskId, TransferEdge};

/// Channel tags inside the allocator.
const TAG_VALIDATION: u64 = 1;
const TAG_COIN: u64 = 2;
const TAG_EDGE_BASE: u64 = 16;

/// The material handed to every task of a program that reads no shared
/// randomness: with no coin to draw it, any constant will do.
const UNREAD_MATERIAL: [u8; 32] = [0; 32];

/// A concrete allocation algorithm plugged into the parallel allocator.
///
/// Implementations must be deterministic given `(bids, shared)` — every
/// replica of a task must produce byte-identical output, because receivers
/// of the data-transfer block compare the replicas' bytes and abort on any
/// difference.
pub trait AllocatorProgram: Send + Sync {
    /// The task decomposition for this configuration.
    ///
    /// # Errors
    ///
    /// Implementations may fail for configurations they cannot decompose
    /// for (e.g. fewer providers than a group needs); the framework treats
    /// this as a construction error, not a runtime ⊥.
    fn task_graph(&self, cfg: &FrameworkConfig) -> TaskGraphSpec;

    /// Execute one task. `dep_values[i]` is the output of `deps[i]` in the
    /// task's declared order; `spec` is the graph returned by
    /// [`AllocatorProgram::task_graph`] (so programs can recover their own
    /// decomposition parameters without duplicating state).
    fn run_task(
        &self,
        task: TaskId,
        spec: &TaskGraphSpec,
        bids: &BidVector,
        dep_values: &[Bytes],
        shared: &SharedRng,
    ) -> Bytes;

    /// Decode the final task's output into the auction result. `None`
    /// signals malformed bytes, which aborts the allocator.
    fn finish(&self, bids: &BidVector, final_value: &Bytes) -> Option<AuctionResult>;

    /// Short machine-readable name of the mechanism this program executes
    /// (mirrors `Mechanism::name`). Recorded on epoch outcomes and inside
    /// journal seal content for mechanism provenance.
    fn name(&self) -> &'static str {
        "custom"
    }

    /// Whether any task reads the `shared` material it is given. When
    /// `false`, the allocator skips the common coin — three broadcasts —
    /// and hands every task one fixed material instead.
    ///
    /// Answer `false` only if every task's output is byte-identical under
    /// every material; otherwise the outcome would be fixed in advance by
    /// a constant the coin was meant to make unpredictable.
    fn reads_shared_randomness(&self) -> bool {
        true
    }
}

/// The parallel-allocator block run by one provider.
pub struct ParallelAllocator<P: AllocatorProgram> {
    cfg: FrameworkConfig,
    me: ProviderId,
    program: Arc<P>,
    bids: BidVector,
    spec: TaskGraphSpec,
    edges: Vec<TransferEdge>,
    validation: SubSlot<InputValidation>,
    /// Stays pending (and never buffers) when the program reads no shared
    /// randomness.
    coin: SubSlot<CommonCoin>,
    /// The coin, built in `new` (it draws local randomness) and taken by
    /// `start`; never built for a program that reads no shared randomness.
    pending_coin: Option<CommonCoin>,
    transfers: Vec<SubSlot<DataTransfer>>,
    /// Transfer edge index → activated yet?
    transfer_started: Vec<bool>,
    shared: Option<SharedRng>,
    task_values: Vec<Option<Bytes>>,
    result: Option<BlockResult<AuctionResult>>,
}

impl<P: AllocatorProgram> ParallelAllocator<P> {
    /// Create the allocator for provider `me`, with the *agreed* bid
    /// vector from bid agreement. Local randomness (coin contribution)
    /// comes from `rng`, which is not drawn from when the program reads no
    /// shared randomness.
    pub fn new(
        cfg: FrameworkConfig,
        me: ProviderId,
        program: Arc<P>,
        bids: BidVector,
        rng: &mut dyn RngCore,
    ) -> ParallelAllocator<P> {
        let spec = program.task_graph(&cfg);
        let edges = spec.transfer_edges();
        let n_tasks = spec.len();
        let n_edges = edges.len();
        let (pending_coin, shared) = if program.reads_shared_randomness() {
            (Some(CommonCoin::new(me, cfg.m, Distribution::UniformUnit, rng)), None)
        } else {
            (None, Some(SharedRng::from_material(&UNREAD_MATERIAL)))
        };
        ParallelAllocator {
            cfg,
            me,
            program,
            bids,
            spec,
            edges,
            validation: SubSlot::new(),
            coin: SubSlot::new(),
            pending_coin,
            transfers: (0..n_edges).map(|_| SubSlot::new()).collect(),
            transfer_started: vec![false; n_edges],
            shared,
            task_values: vec![None; n_tasks],
            result: None,
        }
    }

    fn abort(&mut self) {
        if self.result.is_none() {
            self.result = Some(BlockResult::Abort);
        }
    }

    /// The value this provider holds for `task`, if any.
    fn value_of(&self, task: TaskId) -> Option<&Bytes> {
        self.task_values[task.index()].as_ref()
    }

    /// Store a task value (computed locally or received via transfer).
    fn store_value(&mut self, task: TaskId, value: Bytes) {
        self.task_values[task.index()] = Some(value);
    }

    /// Run every task whose dependencies are satisfied; start outgoing
    /// transfers for freshly computed values; finish when the final task's
    /// value is in hand.
    fn poll(&mut self, ctx: &mut dyn Ctx) {
        if self.result.is_some() {
            return;
        }
        // Sub-block aborts are absorbing.
        if self.validation.result().is_some_and(BlockResult::is_abort)
            || self.coin.result().is_some_and(BlockResult::is_abort)
            || self.transfers.iter().any(|t| t.result().is_some_and(BlockResult::is_abort))
        {
            self.abort();
            return;
        }
        // Both gates must pass before any computation (`shared` is set from
        // the start when there is no coin).
        let validated = matches!(self.validation.result(), Some(BlockResult::Value(_)));
        if self.shared.is_none() {
            if let Some(BlockResult::Value(CoinValue { material, .. })) = self.coin.result() {
                self.shared = Some(SharedRng::from_material(material));
            }
        }
        if !validated || self.shared.is_none() {
            return;
        }

        // Harvest completed transfers into task values.
        for (i, edge) in self.edges.iter().enumerate() {
            if self.task_values[edge.from.index()].is_none()
                && edge.receivers.binary_search(&self.me).is_ok()
            {
                if let Some(BlockResult::Value(v)) = self.transfers[i].result() {
                    self.task_values[edge.from.index()] = Some(v.clone());
                }
            }
        }

        // Execute ready tasks in topological order.
        loop {
            let mut progressed = false;
            for idx in 0..self.spec.len() {
                let task = TaskId(idx as u32);
                if self.task_values[idx].is_some() || !self.spec.executes(self.me, task) {
                    continue;
                }
                let deps = &self.spec.tasks()[idx].deps;
                let dep_values: Option<Vec<Bytes>> =
                    deps.iter().map(|d| self.value_of(*d).cloned()).collect();
                let Some(dep_values) = dep_values else {
                    continue;
                };
                let shared = self.shared.as_ref().expect("gated above");
                let output =
                    self.program.run_task(task, &self.spec, &self.bids, &dep_values, shared);
                self.store_value(task, output);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }

        // Start transfers for which we are a sender holding the value (or
        // a pure receiver — receivers activate immediately so buffered
        // messages drain).
        for i in 0..self.edges.len() {
            if self.transfer_started[i] {
                continue;
            }
            let edge = &self.edges[i];
            let i_send = edge.senders.binary_search(&self.me).is_ok();
            let i_receive = edge.receivers.binary_search(&self.me).is_ok();
            let input = if i_send {
                match self.value_of(edge.from) {
                    Some(v) => Some(v.clone()),
                    None => continue, // not computed yet
                }
            } else {
                None
            };
            if !i_send && !i_receive {
                // Bystander: activate trivially so the slot completes.
                let block =
                    DataTransfer::new(self.me, edge.senders.clone(), edge.receivers.clone(), None);
                let mut tagged = TaggedCtx::new(TAG_EDGE_BASE + i as u64, ctx);
                self.transfer_started[i] = true;
                self.transfers[i].activate(block, &mut tagged);
                continue;
            }
            let block =
                DataTransfer::new(self.me, edge.senders.clone(), edge.receivers.clone(), input);
            let mut tagged = TaggedCtx::new(TAG_EDGE_BASE + i as u64, ctx);
            self.transfer_started[i] = true;
            self.transfers[i].activate(block, &mut tagged);
        }

        // Re-check aborts and harvest again after activations.
        if self.transfers.iter().any(|t| t.result().is_some_and(BlockResult::is_abort)) {
            self.abort();
            return;
        }
        let mut harvested = false;
        for (i, edge) in self.edges.iter().enumerate() {
            if self.task_values[edge.from.index()].is_none()
                && edge.receivers.binary_search(&self.me).is_ok()
            {
                if let Some(BlockResult::Value(v)) = self.transfers[i].result() {
                    self.task_values[edge.from.index()] = Some(v.clone());
                    harvested = true;
                }
            }
        }
        if harvested {
            // New inputs may unlock more tasks (and their transfers).
            self.poll(ctx);
            return;
        }

        // Final output: the last task runs on every provider.
        let final_task = self.spec.final_task();
        if let Some(value) = self.value_of(final_task) {
            match self.program.finish(&self.bids, value) {
                Some(result) => self.result = Some(BlockResult::Value(result)),
                None => self.abort(),
            }
        }
    }
}

impl<P: AllocatorProgram> Block for ParallelAllocator<P> {
    type Output = AuctionResult;

    fn start(&mut self, ctx: &mut dyn Ctx) {
        // Input validation on the canonical encoding of the agreed bids.
        let input = self.bids.encode_to_bytes();
        let validation =
            InputValidation::new(self.me, self.cfg.m, input, self.cfg.validation_hash_only);
        {
            let mut tagged = TaggedCtx::new(TAG_VALIDATION, ctx);
            self.validation.activate(validation, &mut tagged);
        }
        // Common coin, if the program reads it (runs concurrently with
        // validation — its value is input-independent, and both must
        // succeed before any task runs).
        if let Some(coin) = self.pending_coin.take() {
            let mut tagged = TaggedCtx::new(TAG_COIN, ctx);
            self.coin.activate(coin, &mut tagged);
        }
        self.poll(ctx);
    }

    fn on_message(&mut self, from: ProviderId, payload: &[u8], ctx: &mut dyn Ctx) {
        if self.result.is_some() {
            return;
        }
        let Ok((tag, inner)) = unframe(payload) else {
            self.abort();
            return;
        };
        match tag {
            TAG_VALIDATION => {
                let mut tagged = TaggedCtx::new(TAG_VALIDATION, ctx);
                self.validation.deliver(from, inner, &mut tagged);
            }
            // Without a coin, a coin frame is an unknown tag.
            TAG_COIN if self.coin.active().is_some() => {
                let mut tagged = TaggedCtx::new(TAG_COIN, ctx);
                self.coin.deliver(from, inner, &mut tagged);
            }
            t if t >= TAG_EDGE_BASE && ((t - TAG_EDGE_BASE) as usize) < self.transfers.len() => {
                let i = (t - TAG_EDGE_BASE) as usize;
                let mut tagged = TaggedCtx::new(t, ctx);
                self.transfers[i].deliver(from, inner, &mut tagged);
            }
            _ => {
                self.abort();
                return;
            }
        }
        self.poll(ctx);
    }

    fn result(&self) -> Option<&BlockResult<AuctionResult>> {
        self.result.as_ref()
    }
}
