//! The full distributed auctioneer (§4.1, Fig. 1 of the paper): the chain
//! **Bid Agreement → Allocator**, run by each provider.
//!
//! The provider inputs the vector `b̄ⱼ` of bids it collected from bidders;
//! the bid agreement makes all providers output one agreed `b̄`; the
//! allocator validates that agreement, draws the common coin if the
//! allocation algorithm reads shared randomness, executes the
//! task-decomposed algorithm, and outputs either the pair
//! `(x, p̄)` or ⊥. By Theorem 1 of the paper, any implementation of these
//! blocks correctly simulates the auctioneer and is a k-resilient
//! equilibrium for `m > 2k`; the deviation tests in `dauctioneer-sim`
//! exercise exactly the detectable-deviation paths that make it so.

use std::sync::Arc;

use dauctioneer_net::unframe;
use dauctioneer_types::{BidVector, Outcome, ProviderId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::allocator::{AllocatorProgram, ParallelAllocator};
use crate::block::{Block, BlockResult, Ctx, SubSlot, TaggedCtx};
use crate::blocks::bid_agreement::BidAgreement;
use crate::config::FrameworkConfig;

/// Channel tags at the top level.
const TAG_BID_AGREEMENT: u64 = 1;
const TAG_ALLOCATOR: u64 = 2;

/// One provider's instance of the distributed auctioneer.
///
/// # Example
///
/// Construction; driving the block requires a runtime — see
/// [`crate::batch::run_session`] for the threaded one.
///
/// ```
/// use std::sync::Arc;
/// use dauctioneer_core::{Auctioneer, FrameworkConfig, DoubleAuctionProgram};
/// use dauctioneer_types::{BidVector, ProviderId};
///
/// let cfg = FrameworkConfig::new(3, 1, 2, 0);
/// let program = Arc::new(DoubleAuctionProgram::new());
/// let collected = BidVector::all_neutral(2); // what this provider saw
/// let auctioneer = Auctioneer::new_seeded(cfg, ProviderId(0), program, collected, 42);
/// assert!(auctioneer.outcome().is_none()); // not yet run
/// ```
pub struct Auctioneer<P: AllocatorProgram> {
    cfg: FrameworkConfig,
    me: ProviderId,
    program: Arc<P>,
    collected: Option<BidVector>,
    rng: StdRng,
    bid_agreement: SubSlot<BidAgreement>,
    allocator: SubSlot<ParallelAllocator<P>>,
    result: Option<BlockResult<dauctioneer_types::AuctionResult>>,
}

impl<P: AllocatorProgram> Auctioneer<P> {
    /// Create the auctioneer for provider `me`, inputting the bids this
    /// provider collected. `rng` supplies all of this provider's *local*
    /// randomness (consensus coin contributions, commitment nonces).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (`m ≤ 2k`) or the collected
    /// vector's shape does not match the configuration — both are local
    /// programming errors.
    pub fn new(
        cfg: FrameworkConfig,
        me: ProviderId,
        program: Arc<P>,
        collected: BidVector,
        rng: StdRng,
    ) -> Auctioneer<P> {
        cfg.validate().expect("invalid framework configuration");
        assert_eq!(collected.num_users(), cfg.n_users, "collected bids shape mismatch");
        assert_eq!(collected.num_asks(), cfg.n_asks, "collected asks shape mismatch");
        assert!(me.index() < cfg.m, "provider id out of range");
        Auctioneer {
            cfg,
            me,
            program,
            collected: Some(collected),
            rng,
            bid_agreement: SubSlot::new(),
            allocator: SubSlot::new(),
            result: None,
        }
    }

    /// Convenience constructor with a `u64` seed for the local RNG.
    pub fn new_seeded(
        cfg: FrameworkConfig,
        me: ProviderId,
        program: Arc<P>,
        collected: BidVector,
        seed: u64,
    ) -> Auctioneer<P> {
        Self::new(cfg, me, program, collected, StdRng::seed_from_u64(seed))
    }

    /// The provider running this instance.
    pub fn me(&self) -> ProviderId {
        self.me
    }

    /// The framework configuration.
    pub fn config(&self) -> &FrameworkConfig {
        &self.cfg
    }

    /// The simulation outcome, in the domain vocabulary (§3.2): the agreed
    /// `(x, p̄)` or ⊥.
    pub fn outcome(&self) -> Option<Outcome> {
        self.result.as_ref().map(|r| match r {
            BlockResult::Value(result) => Outcome::Agreed(result.clone()),
            BlockResult::Abort => Outcome::Abort,
        })
    }

    fn poll(&mut self, ctx: &mut dyn Ctx) {
        if self.result.is_some() {
            return;
        }
        // Bid agreement → allocator hand-off.
        match self.bid_agreement.result().cloned() {
            Some(BlockResult::Abort) => {
                self.result = Some(BlockResult::Abort);
                return;
            }
            Some(BlockResult::Value(agreed)) => {
                if self.allocator.active().is_none() {
                    let allocator = ParallelAllocator::new(
                        self.cfg.clone(),
                        self.me,
                        Arc::clone(&self.program),
                        agreed,
                        &mut self.rng,
                    );
                    let mut tagged = TaggedCtx::new(TAG_ALLOCATOR, ctx);
                    self.allocator.activate(allocator, &mut tagged);
                }
            }
            None => return,
        }
        if let Some(result) = self.allocator.result() {
            self.result = Some(result.clone());
        }
    }
}

impl<P: AllocatorProgram> Block for Auctioneer<P> {
    type Output = dauctioneer_types::AuctionResult;

    fn start(&mut self, ctx: &mut dyn Ctx) {
        let collected = self.collected.take().expect("start called once");
        let agreement = BidAgreement::new(self.me, self.cfg.m, &collected, &mut self.rng);
        {
            let mut tagged = TaggedCtx::new(TAG_BID_AGREEMENT, ctx);
            self.bid_agreement.activate(agreement, &mut tagged);
        }
        self.poll(ctx);
    }

    fn on_message(&mut self, from: ProviderId, payload: &[u8], ctx: &mut dyn Ctx) {
        if self.result.is_some() {
            return;
        }
        let Ok((tag, inner)) = unframe(payload) else {
            self.result = Some(BlockResult::Abort);
            return;
        };
        match tag {
            TAG_BID_AGREEMENT => {
                let mut tagged = TaggedCtx::new(TAG_BID_AGREEMENT, ctx);
                self.bid_agreement.deliver(from, inner, &mut tagged);
            }
            TAG_ALLOCATOR => {
                let mut tagged = TaggedCtx::new(TAG_ALLOCATOR, ctx);
                self.allocator.deliver(from, inner, &mut tagged);
            }
            _ => {
                self.result = Some(BlockResult::Abort);
                return;
            }
        }
        self.poll(ctx);
    }

    fn result(&self) -> Option<&BlockResult<dauctioneer_types::AuctionResult>> {
        self.result.as_ref()
    }
}
