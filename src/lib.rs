//! # dauctioneer — a distributed auctioneer for decentralized systems
//!
//! Umbrella crate for the reproduction of Khan, Vilaça, Rodrigues and
//! Freitag, *A Distributed Auctioneer for Resource Allocation in
//! Decentralized Systems* (ICDCS 2016). It re-exports the workspace
//! crates under stable module names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `dauctioneer-types` | bids, allocations, payments, wire codec |
//! | [`crypto`] | `dauctioneer-crypto` | SHA-256, commitments, seed derivation |
//! | [`mechanisms`] | `dauctioneer-mechanisms` | double auction, (1−ε)-VCG standard auction, multi-unit XOR-bundle combinatorial auction (node-budgeted branch-and-bound with a bound-reporting greedy fallback), divisible-resource water-filling auction with Clarke-pivot payments |
//! | [`net`] | `dauctioneer-net` | threaded transport, latency models, traffic metrics |
//! | [`core`] | `dauctioneer-core` | the framework: bid agreement, coin, allocator, auctioneer |
//! | [`sim`] | `dauctioneer-sim` | game-theoretic simulator, deviations, utilities |
//! | [`workload`] | `dauctioneer-workload` | the paper's §6 workload generators |
//! | [`market`] | `dauctioneer-market` | continuous epochs, journal + recovery, runtime [`market::MechanismSpec`] selection |
//! | [`telemetry`] | `dauctioneer-telemetry` | metrics registry, scrape endpoint, epoch traces, flight recorder |
//!
//! [`cli`] is this crate's own: the flag table behind the `dauction`
//! binary and the `dauctioneer-bench` binaries.
//!
//! All four production mechanisms run behind the same replicated
//! pipeline and can be selected at runtime from a spec string — see
//! [`market::MechanismSpec`] and the `--mechanism` flag of the
//! `dauction` binary (`double | standard[,eps=PPM] |
//! combinatorial[,budget=NODES] | divisible[,beta=PRICE]`).
//!
//! ## Quick start: one session
//!
//! Run a fully distributed double auction among three providers — this
//! is `examples/quickstart.rs` in miniature: three gateway owners
//! jointly simulate the auctioneer (`k = 1`) for four users bidding for
//! bandwidth at two gateways, then read the agreed allocation and
//! payments off the unanimous outcome:
//!
//! ```
//! use std::sync::Arc;
//! use dauctioneer::core::{run_session, DoubleAuctionProgram, FrameworkConfig, RunOptions};
//! use dauctioneer::types::{BidVector, Bw, Money, ProviderAsk, ProviderId, UserBid, UserId};
//!
//! let cfg = FrameworkConfig::new(3, 1, 4, 2);
//! let bids = BidVector::builder(4, 2)
//!     .user_bid(0, UserBid::new(Money::from_f64(1.20), Bw::from_f64(0.6)))
//!     .user_bid(1, UserBid::new(Money::from_f64(1.05), Bw::from_f64(0.4)))
//!     .user_bid(2, UserBid::new(Money::from_f64(0.90), Bw::from_f64(0.7)))
//!     .user_bid(3, UserBid::new(Money::from_f64(0.80), Bw::from_f64(0.3)))
//!     .provider_ask(0, ProviderAsk::new(Money::from_f64(0.15), Bw::from_f64(1.0)))
//!     .provider_ask(1, ProviderAsk::new(Money::from_f64(0.45), Bw::from_f64(1.0)))
//!     .build();
//!
//! // Every provider collected the same bids; the protocol agrees on
//! // them, validates the agreement, and replicates the allocator.
//! let report = run_session(
//!     &cfg,
//!     Arc::new(DoubleAuctionProgram::new()),
//!     vec![bids.clone(); 3],
//!     &RunOptions::default(),
//! )?; // an invalid run (say m ≤ 2k) is a `RunError`, not a panic
//!
//! // Definition 1: the auction stands iff every provider decided the
//! // same valid (allocation, payments) pair.
//! let outcome = report.unanimous();
//! let result = outcome.as_result().expect("honest run must agree");
//! let winners = UserId::all(4).filter(|u| result.allocation.user_total(*u).as_f64() > 0.0);
//! assert!(winners.count() > 0, "somebody wins bandwidth");
//! let sold: f64 = ProviderId::all(2).map(|p| result.allocation.provider_total(p).as_f64()).sum();
//! assert!(sold > 0.0, "somebody sells bandwidth");
//! assert!(result.payments.is_budget_balanced());
//! # Ok::<(), dauctioneer::core::RunError>(())
//! ```
//!
//! ## Quick start: a batch of concurrent sessions
//!
//! A marketplace clears many auctions at once. [`core::run_batch`]
//! multiplexes N tagged sessions over one shared provider mesh;
//! [`core::run_batch_with`] adds the scaling knobs (hub shards ×
//! in-process or TCP transport) behind the same API:
//!
//! ```
//! use std::sync::Arc;
//! use dauctioneer::core::{
//!     run_batch_with, BatchConfig, BatchSession, DoubleAuctionProgram, FrameworkConfig,
//!     RunOptions,
//! };
//! use dauctioneer::types::SessionId;
//! use dauctioneer::workload::DoubleAuctionWorkload;
//!
//! let cfg = FrameworkConfig::new(3, 1, 10, 3);
//! let sessions = (0..8)
//!     .map(|s| {
//!         let bids = DoubleAuctionWorkload::new(10, 3, 42 + s).generate();
//!         BatchSession::uniform(SessionId(s), bids, 3, 100 + s)
//!     })
//!     .collect();
//! let report = run_batch_with(
//!     &cfg,
//!     Arc::new(DoubleAuctionProgram::new()),
//!     sessions,
//!     &RunOptions::default(),
//!     &BatchConfig::sharded(2), // 2 independent hub shards
//! )?;
//! assert!(report.all_agreed(), "every session cleared");
//! assert!(report.sessions_per_sec() > 0.0);
//! # Ok::<(), dauctioneer::core::RunError>(())
//! ```
//!
//! See the `examples/` directory for larger scenarios: the community-
//! network bandwidth market of the paper's case study, the parallel VCG
//! auction, a session with Byzantine bidders and a deviating provider,
//! and `tcp_market` — the same auction as the first quick start, but
//! carried over a real TCP socket mesh.

pub mod cli;

pub use dauctioneer_core as core;
pub use dauctioneer_crypto as crypto;
pub use dauctioneer_market as market;
pub use dauctioneer_mechanisms as mechanisms;
pub use dauctioneer_net as net;
pub use dauctioneer_sim as sim;
pub use dauctioneer_telemetry as telemetry;
pub use dauctioneer_types as types;
pub use dauctioneer_workload as workload;
