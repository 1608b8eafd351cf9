//! Auction mechanisms for bandwidth allocation.
//!
//! This crate implements the two allocation algorithms `A` that the paper's
//! case study (§5.2) plugs into the distributed auctioneer framework:
//!
//! * [`DoubleAuction`] — the McAfee-style truthful, budget-balanced double
//!   auction of Zheng et al. (*STAR*, IEEE ToC 2014) that the paper uses for
//!   its communication-bound experiment (Fig. 4). Users and providers both
//!   bid; the mechanism sorts providers by ascending unit cost and users by
//!   descending unit value, *water-fills* demand into capacity, and applies
//!   a **trade reduction** at the marginal blocks so that clearing prices
//!   are independent of any included participant's own bid (truthfulness)
//!   and the buyer price never falls below the seller price (budget
//!   balance). Computationally trivial — sorting dominates — hence not
//!   worth parallelising, exactly as §5.2.1 observes.
//!
//! * [`StandardAuction`] — the randomized (1−ε)-optimal VCG auction of
//!   Zhang et al. (INFOCOM 2015) used for the computation-bound experiment
//!   (Fig. 5). Users are single-minded (their whole demand must be placed at
//!   one provider); welfare maximisation is a multiple-knapsack problem
//!   (NP-hard) — the one-option case of XOR-bundle winner determination.
//!   The [`solver`] module provides an exact branch-and-bound
//!   with a fractional relaxation bound, an ε early-stop that trades
//!   optimality for time (the same dial as the paper's (1−ε) guarantee),
//!   and coin-seeded randomized exploration. VCG payments require one
//!   additional NP-hard solve per winner, which is what the distributed
//!   framework parallelises across provider groups (Algorithm 1, Task 2).
//!
//! Two further production mechanisms grow the layer beyond the paper's
//! case study (ROADMAP item 2):
//!
//! * [`CombinatorialAuction`] — multi-unit XOR-bundle clearing after Yen &
//!   Sun's decentralized combinatorial auctions. Winner determination is
//!   the same node-budgeted branch-and-bound ([`solver`]) over bidders
//!   with several XOR options, whose greedy fallback reports a certified
//!   bound on its result when the budget exhausts; payments are
//!   pay-as-bid on the winning option.
//!
//! * [`DivisibleAuction`] — fractional allocation by descending-β
//!   water-filling with exact Clarke-pivot VCG payments, one cheap
//!   re-solve per winner, parallelised across provider groups like the
//!   standard auction's Task 2.
//!
//! All mechanisms implement the [`Mechanism`] trait, so the distributed
//! framework in `dauctioneer-core` and the centralised baseline execute
//! byte-identical allocation code. All randomness is drawn from a
//! [`SharedRng`] expanded deterministically from agreed coin material, so
//! every replica of the computation produces the same result — the property
//! the framework's cross-validation relies on.
//!
//! # Example: centralised execution
//!
//! ```
//! use dauctioneer_mechanisms::{DoubleAuction, Mechanism, SharedRng};
//! use dauctioneer_types::{BidVector, UserBid, ProviderAsk, Money, Bw};
//!
//! let bids = BidVector::builder(2, 1)
//!     .user_bid(0, UserBid::new(Money::from_f64(1.2), Bw::from_f64(0.5)))
//!     .user_bid(1, UserBid::new(Money::from_f64(0.9), Bw::from_f64(0.5)))
//!     .provider_ask(0, ProviderAsk::new(Money::from_f64(0.3), Bw::from_f64(2.0)))
//!     .build();
//! let result = DoubleAuction::new().run(&bids, &SharedRng::from_material(b"seed"));
//! assert!(result.payments.is_budget_balanced());
//! ```

pub mod baselines;
pub mod combinatorial;
pub mod divisible;
pub mod double;
pub mod props;
pub mod shared;
pub mod solver;
pub mod standard;
pub mod traits;

pub use combinatorial::{CombinatorialAuction, CombinatorialAuctionConfig};
pub use divisible::{DivisibleAuction, DivisibleAuctionConfig};
pub use double::DoubleAuction;
pub use shared::SharedRng;
pub use standard::{StandardAuction, StandardAuctionConfig};
pub use traits::Mechanism;
