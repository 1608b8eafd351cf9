//! Allocator programs for the production mechanisms.
//!
//! * [`DoubleAuctionProgram`] — §5.2.1: the double auction's dominant cost
//!   is sorting, so its "decomposition" is a single task replicated on all
//!   providers and the data-transfer block is never invoked.
//! * [`StandardAuctionProgram`] — §5.2.2 / Algorithm 1: Task 1 computes
//!   the allocation on every provider; Task 2 is split into
//!   `c = ⌊m/(k+1)⌋` groups, each computing the VCG payments of an `n/c`
//!   slice of the users; Task 3 gathers the payment slices (via data
//!   transfer) and assembles the result on every provider.
//! * [`CombinatorialAuctionProgram`] — one node-budgeted NP-hard winner
//!   determination dominates and pay-as-bid payments are free, so like
//!   the double auction it is a single task replicated on all providers.
//!   The node budget makes the replicated searches stop at the same node.
//! * [`DivisibleAuctionProgram`] — the water-fill allocation is cheap but
//!   Clarke pivots need one re-solve per winner, so it parallelises
//!   exactly like Algorithm 1: payment slices across provider groups.
//! * [`DynProgram`] — type erasure over `Arc<dyn AllocatorProgram>`, so a
//!   runtime-selected mechanism (the market's spec factory) flows through
//!   the generic `ParallelAllocator<P>` APIs as one concrete type.
//!
//! Only the standard and combinatorial programs read the common coin's
//! material: their branch-and-bound shuffles provider order from it. The
//! double and divisible programs answer `false` to
//! [`AllocatorProgram::reads_shared_randomness`], so their allocator runs
//! no coin.

use std::sync::Arc;

use bytes::Bytes;
use dauctioneer_mechanisms::{
    CombinatorialAuction, DivisibleAuction, DoubleAuction, Mechanism, SharedRng, StandardAuction,
};
use dauctioneer_types::{
    Allocation, AuctionResult, BidVector, Decode, Encode, Money, UserId, Writer,
};

use crate::allocator::AllocatorProgram;
use crate::config::FrameworkConfig;
use crate::task_graph::{TaskGraphSpec, TaskId, TaskSpec};

/// The contiguous user-id slice `[lo, hi)` assigned to payment group `g`
/// of `c` (shared by the Algorithm-1-shaped programs).
fn user_slice(n_users: usize, g: usize, c: usize) -> (usize, usize) {
    let lo = g * n_users / c;
    let hi = (g + 1) * n_users / c;
    (lo, hi)
}

/// Encode a payment slice.
fn encode_payments(payments: &[(UserId, Money)]) -> Bytes {
    let mut w = Writer::new();
    w.put_u64(payments.len() as u64);
    for (user, amount) in payments {
        user.encode(&mut w);
        amount.encode(&mut w);
    }
    w.finish()
}

/// Decode a payment slice.
fn decode_payments(bytes: &Bytes) -> Option<Vec<(UserId, Money)>> {
    let mut r = dauctioneer_types::Reader::new(bytes);
    let len = r.get_u64().ok()?;
    let mut out = Vec::with_capacity(len.min(4096) as usize);
    for _ in 0..len {
        let user = UserId::decode(&mut r).ok()?;
        let amount = Money::decode(&mut r).ok()?;
        out.push((user, amount));
    }
    (r.remaining() == 0).then_some(out)
}

/// The Algorithm-1 task graph: allocation everywhere, one payment task
/// per provider group, a final gather everywhere.
fn algorithm1_task_graph(cfg: &FrameworkConfig) -> TaskGraphSpec {
    let all: Vec<_> = cfg.providers().collect();
    let groups = cfg.payment_groups();
    let c = groups.len();
    let mut tasks = Vec::with_capacity(c + 2);
    // Task 1: allocation, replicated everywhere.
    tasks.push(TaskSpec { deps: vec![], executors: all.clone() });
    // Task 2.g: payments of slice g, on group g.
    for group in groups {
        tasks.push(TaskSpec { deps: vec![TaskId(0)], executors: group });
    }
    // Task 3: gather everything, everywhere.
    let deps = (0..=c as u32).map(TaskId).collect();
    tasks.push(TaskSpec { deps, executors: all });
    TaskGraphSpec::new(tasks, cfg.m, cfg.k).expect("algorithm-1 decomposition is valid")
}

/// The single-task program for the double auction.
#[derive(Debug, Clone, Default)]
pub struct DoubleAuctionProgram {
    mechanism: DoubleAuction,
}

impl DoubleAuctionProgram {
    /// Create the program.
    pub fn new() -> DoubleAuctionProgram {
        DoubleAuctionProgram { mechanism: DoubleAuction::new() }
    }
}

impl AllocatorProgram for DoubleAuctionProgram {
    fn task_graph(&self, cfg: &FrameworkConfig) -> TaskGraphSpec {
        // One task executed by everyone; no transfers (§5.2.1).
        TaskGraphSpec::new(
            vec![TaskSpec { deps: vec![], executors: cfg.providers().collect() }],
            cfg.m,
            cfg.k,
        )
        .expect("single global task is always valid")
    }

    fn run_task(
        &self,
        _task: TaskId,
        _spec: &TaskGraphSpec,
        bids: &BidVector,
        _dep_values: &[Bytes],
        shared: &SharedRng,
    ) -> Bytes {
        self.mechanism.run(bids, shared).encode_to_bytes()
    }

    fn finish(&self, _bids: &BidVector, final_value: &Bytes) -> Option<AuctionResult> {
        AuctionResult::decode_all(final_value).ok()
    }

    fn name(&self) -> &'static str {
        self.mechanism.name()
    }

    /// The sort-and-match clearing draws nothing from the material.
    fn reads_shared_randomness(&self) -> bool {
        false
    }
}

/// The Algorithm-1 program for the standard auction.
#[derive(Debug, Clone)]
pub struct StandardAuctionProgram {
    mechanism: StandardAuction,
}

impl StandardAuctionProgram {
    /// Create the program around a configured [`StandardAuction`].
    pub fn new(mechanism: StandardAuction) -> StandardAuctionProgram {
        StandardAuctionProgram { mechanism }
    }

    /// The mechanism (e.g. for a centralised baseline run).
    pub fn mechanism(&self) -> &StandardAuction {
        &self.mechanism
    }
}

impl AllocatorProgram for StandardAuctionProgram {
    fn task_graph(&self, cfg: &FrameworkConfig) -> TaskGraphSpec {
        algorithm1_task_graph(cfg)
    }

    fn run_task(
        &self,
        task: TaskId,
        spec: &TaskGraphSpec,
        bids: &BidVector,
        dep_values: &[Bytes],
        shared: &SharedRng,
    ) -> Bytes {
        // Graph shape: task 0 = allocation, tasks 1..=c = payment slices,
        // last task = gather; hence c = len − 2.
        let c = spec.len() - 2;
        if task.index() == 0 {
            // Task 1: the allocation.
            return self.mechanism.solve_allocation(bids, shared).encode_to_bytes();
        }
        if task == spec.final_task() {
            // Task 3: gather allocation + every payment slice, assemble.
            let Ok(allocation) = Allocation::decode_all(&dep_values[0]) else {
                return Bytes::new(); // malformed → finish() will reject
            };
            let mut all_payments: Vec<(UserId, Money)> = Vec::new();
            for slice in &dep_values[1..] {
                match decode_payments(slice) {
                    Some(mut p) => all_payments.append(&mut p),
                    None => return Bytes::new(),
                }
            }
            return self.mechanism.assemble(bids, allocation, &all_payments).encode_to_bytes();
        }
        // Task 2.g: VCG payments of the g-th user slice.
        let g = task.index() - 1;
        let Ok(allocation) = Allocation::decode_all(&dep_values[0]) else {
            return Bytes::new();
        };
        let n = bids.num_users();
        let (lo, hi) = user_slice(n, g, c);
        let payments: Vec<(UserId, Money)> = (lo..hi)
            .map(|u| UserId(u as u32))
            .filter(|u| !allocation.user_total(*u).is_zero())
            .map(|u| (u, self.mechanism.payment_for_user(u, bids, &allocation, shared)))
            .collect();
        encode_payments(&payments)
    }

    fn finish(&self, bids: &BidVector, final_value: &Bytes) -> Option<AuctionResult> {
        let result = AuctionResult::decode_all(final_value).ok()?;
        (result.allocation.num_users() == bids.num_users()).then_some(result)
    }

    fn name(&self) -> &'static str {
        self.mechanism.name()
    }
}

/// The single-task program for the combinatorial auction.
///
/// Winner determination is one node-budgeted NP-hard solve and pay-as-bid
/// payments fall out of it for free, so the whole mechanism runs as a
/// single task replicated on every provider (like the double auction).
/// The budget is counted in *nodes*, so every replica's search stops at
/// the same node and the byte-compared outputs agree.
#[derive(Debug, Clone)]
pub struct CombinatorialAuctionProgram {
    mechanism: CombinatorialAuction,
}

impl CombinatorialAuctionProgram {
    /// Create the program around a configured [`CombinatorialAuction`].
    pub fn new(mechanism: CombinatorialAuction) -> CombinatorialAuctionProgram {
        CombinatorialAuctionProgram { mechanism }
    }

    /// The mechanism (e.g. for a centralised baseline run).
    pub fn mechanism(&self) -> &CombinatorialAuction {
        &self.mechanism
    }
}

impl AllocatorProgram for CombinatorialAuctionProgram {
    fn task_graph(&self, cfg: &FrameworkConfig) -> TaskGraphSpec {
        TaskGraphSpec::new(
            vec![TaskSpec { deps: vec![], executors: cfg.providers().collect() }],
            cfg.m,
            cfg.k,
        )
        .expect("single global task is always valid")
    }

    fn run_task(
        &self,
        _task: TaskId,
        _spec: &TaskGraphSpec,
        bids: &BidVector,
        _dep_values: &[Bytes],
        shared: &SharedRng,
    ) -> Bytes {
        self.mechanism.run(bids, shared).encode_to_bytes()
    }

    fn finish(&self, bids: &BidVector, final_value: &Bytes) -> Option<AuctionResult> {
        let result = AuctionResult::decode_all(final_value).ok()?;
        (result.allocation.num_users() == bids.num_users()).then_some(result)
    }

    fn name(&self) -> &'static str {
        self.mechanism.name()
    }
}

/// The Algorithm-1 program for the divisible auction.
///
/// The descending-β water-fill is cheap, but each winner's Clarke pivot
/// is one re-solve — independent across winners, so the payment tasks are
/// sliced across provider groups exactly like the standard auction's
/// Task 2.
#[derive(Debug, Clone)]
pub struct DivisibleAuctionProgram {
    mechanism: DivisibleAuction,
}

impl DivisibleAuctionProgram {
    /// Create the program around a configured [`DivisibleAuction`].
    pub fn new(mechanism: DivisibleAuction) -> DivisibleAuctionProgram {
        DivisibleAuctionProgram { mechanism }
    }

    /// The mechanism (e.g. for a centralised baseline run).
    pub fn mechanism(&self) -> &DivisibleAuction {
        &self.mechanism
    }
}

impl AllocatorProgram for DivisibleAuctionProgram {
    fn task_graph(&self, cfg: &FrameworkConfig) -> TaskGraphSpec {
        algorithm1_task_graph(cfg)
    }

    fn run_task(
        &self,
        task: TaskId,
        spec: &TaskGraphSpec,
        bids: &BidVector,
        dep_values: &[Bytes],
        _shared: &SharedRng,
    ) -> Bytes {
        // Same graph shape as the standard auction: c = len − 2.
        let c = spec.len() - 2;
        if task.index() == 0 {
            return self.mechanism.solve_allocation(bids).encode_to_bytes();
        }
        if task == spec.final_task() {
            let Ok(allocation) = Allocation::decode_all(&dep_values[0]) else {
                return Bytes::new();
            };
            let mut all_payments: Vec<(UserId, Money)> = Vec::new();
            for slice in &dep_values[1..] {
                match decode_payments(slice) {
                    Some(mut p) => all_payments.append(&mut p),
                    None => return Bytes::new(),
                }
            }
            return self.mechanism.assemble(bids, allocation, &all_payments).encode_to_bytes();
        }
        let g = task.index() - 1;
        let Ok(allocation) = Allocation::decode_all(&dep_values[0]) else {
            return Bytes::new();
        };
        let n = bids.num_users();
        let (lo, hi) = user_slice(n, g, c);
        let payments: Vec<(UserId, Money)> = (lo..hi)
            .map(|u| UserId(u as u32))
            .filter(|u| !allocation.user_total(*u).is_zero())
            .map(|u| (u, self.mechanism.payment_for_user(u, bids, &allocation)))
            .collect();
        encode_payments(&payments)
    }

    fn finish(&self, bids: &BidVector, final_value: &Bytes) -> Option<AuctionResult> {
        let result = AuctionResult::decode_all(final_value).ok()?;
        (result.allocation.num_users() == bids.num_users()).then_some(result)
    }

    fn name(&self) -> &'static str {
        self.mechanism.name()
    }

    /// The water-fill and its Clarke pivots draw nothing from the material.
    fn reads_shared_randomness(&self) -> bool {
        false
    }
}

/// Type erasure over `Arc<dyn AllocatorProgram>`.
///
/// The generic runtimes take a concrete `P: AllocatorProgram`; the market
/// selects its mechanism at *runtime* from a spec string. `DynProgram`
/// bridges the two: wrap whichever program the factory built and hand the
/// wrapper to the generic APIs.
#[derive(Clone)]
pub struct DynProgram {
    inner: Arc<dyn AllocatorProgram>,
}

impl DynProgram {
    /// Wrap a program.
    pub fn new(inner: Arc<dyn AllocatorProgram>) -> DynProgram {
        DynProgram { inner }
    }
}

impl AllocatorProgram for DynProgram {
    fn task_graph(&self, cfg: &FrameworkConfig) -> TaskGraphSpec {
        self.inner.task_graph(cfg)
    }

    fn run_task(
        &self,
        task: TaskId,
        spec: &TaskGraphSpec,
        bids: &BidVector,
        dep_values: &[Bytes],
        shared: &SharedRng,
    ) -> Bytes {
        self.inner.run_task(task, spec, bids, dep_values, shared)
    }

    fn finish(&self, bids: &BidVector, final_value: &Bytes) -> Option<AuctionResult> {
        self.inner.finish(bids, final_value)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn reads_shared_randomness(&self) -> bool {
        self.inner.reads_shared_randomness()
    }
}
