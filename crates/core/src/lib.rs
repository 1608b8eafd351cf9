//! # The distributed auctioneer
//!
//! A reproduction of Khan, Vilaça, Rodrigues and Freitag, *A Distributed
//! Auctioneer for Resource Allocation in Decentralized Systems* (ICDCS
//! 2016): a framework of distributed protocols that lets `m` mutually
//! distrusting resource providers jointly **simulate a trusted
//! auctioneer**, such that following the protocol is a *k-resilient (ex
//! post) equilibrium* — no coalition of up to `k` providers can profit by
//! deviating, under any fair asynchronous schedule, provided `m > 2k` and
//! providers prefer the auction to complete over it aborting.
//!
//! ## Architecture (Fig. 1 and Fig. 3 of the paper)
//!
//! ```text
//!  bids b̄ⱼ ──► [Bid Agreement] ──► b̄ ──► [Allocator] ──► (x, p̄) or ⊥
//!                    │                       │
//!          per-bit rational consensus        ├── Input Validation
//!          (commit–echo–reveal + coin)       ├── Common Coin (only for programs
//!                                            │   that read shared randomness)
//!                                            └── Task graph + Data Transfer
//! ```
//!
//! * [`Auctioneer`] — the top-level block each provider runs.
//! * [`blocks`] — the four building blocks, each independently usable and
//!   independently tested against the properties of §4.
//! * [`ParallelAllocator`] / [`AllocatorProgram`] — the task-graph
//!   execution of the allocation algorithm; ≥ k+1 replicas per task.
//! * [`DoubleAuctionProgram`] / [`StandardAuctionProgram`] /
//!   [`CombinatorialAuctionProgram`] / [`DivisibleAuctionProgram`] — the
//!   mechanism programs: the sequential double auction, the Algorithm-1
//!   parallelisation of the (1−ε)-optimal VCG standard auction, the
//!   node-budgeted multi-unit combinatorial auction, and the divisible
//!   Clarke-pivot VCG auction. [`DynProgram`] erases any of them behind
//!   `Arc<dyn AllocatorProgram>` for runtime mechanism selection.
//! * [`engine::SessionEngine`] — the shared per-provider protocol loop
//!   (session framing, dispatch, external ⊥) that every driver runs: the
//!   threaded [`SessionPool`] (behind [`batch::run_session`] and
//!   [`batch::run_batch`]), and `dauctioneer-sim`'s simulator
//!   (turn-based and virtual-time schedules).
//! * [`batch::run_batch`] — N concurrent sessions multiplexed over one
//!   shared provider mesh, with throughput reporting.
//! * [`adversary`] — adversarial provider strategies (silent, late,
//!   equivocating, garbage-sending, corrupting, starving, replaying), one
//!   transform shared by the transport wrapper and the simulator,
//!   composing with `dauctioneer-net`'s seeded link-fault chaos plane so
//!   the k-resilience claims are testable end to end.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use dauctioneer_core::{run_session, DoubleAuctionProgram, FrameworkConfig, RunOptions};
//! use dauctioneer_types::{BidVector, UserBid, ProviderAsk, Money, Bw};
//!
//! // Three providers simulate the auctioneer for a 2-user double auction.
//! let cfg = FrameworkConfig::new(3, 1, 2, 1);
//! let bids = BidVector::builder(2, 1)
//!     .user_bid(0, UserBid::new(Money::from_f64(1.2), Bw::from_f64(0.5)))
//!     .user_bid(1, UserBid::new(Money::from_f64(0.9), Bw::from_f64(0.5)))
//!     .provider_ask(0, ProviderAsk::new(Money::from_f64(0.2), Bw::from_f64(2.0)))
//!     .build();
//! let report = run_session(
//!     &cfg,
//!     Arc::new(DoubleAuctionProgram::new()),
//!     vec![bids; 3],               // every provider collected the same bids
//!     &RunOptions::default(),
//! )?;                              // an invalid run is a `RunError`, not a panic
//! assert!(!report.unanimous().is_abort());
//! # Ok::<(), dauctioneer_core::RunError>(())
//! ```

pub mod adapters;
pub mod adversary;
pub mod allocator;
pub mod auctioneer;
pub mod batch;
pub mod block;
pub mod blocks;
pub mod config;
pub mod distribution;
pub mod engine;
pub mod exchange;
pub mod pool;
pub mod submission;
pub mod task_graph;

pub use adapters::{
    CombinatorialAuctionProgram, DivisibleAuctionProgram, DoubleAuctionProgram, DynProgram,
    StandardAuctionProgram,
};
pub use adversary::{strategy_for, Adversary, AdversaryKind, AdversaryTransport};
pub use allocator::{AllocatorProgram, ParallelAllocator};
pub use auctioneer::Auctioneer;
pub use batch::{
    run_batch, run_batch_with, run_session, validate_collected, BatchConfig, BatchReport,
    BatchSession, BatchSessionReport, RunError, RunOptions, SessionReport, TransportKind,
};
pub use block::{Block, BlockResult, Ctx, OutboxCtx, SubSlot, TaggedCtx};
pub use config::{ConfigError, FrameworkConfig};
pub use distribution::Distribution;
pub use engine::{drive, drive_multi, unanimous, SessionEngine, Transport};
pub use pool::SessionPool;
pub use submission::{BidCollector, SubmissionOutcome};
pub use task_graph::{TaskGraphError, TaskGraphSpec, TaskId, TaskSpec, TransferEdge};
