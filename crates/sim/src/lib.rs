//! Game-theoretic execution harness for the distributed auctioneer.
//!
//! The paper analyses its protocols in the extensive-form game model of
//! Abraham, Dolev and Halpern: time is divided into **turns**, a
//! **schedule** decides which message is delivered next, channels are
//! reliable, and every fair schedule must let every provider move
//! infinitely often (§3.3). This crate implements that model as a
//! single-threaded simulator so the equilibrium claims can be *tested*,
//! and times the same runs on virtual clocks for the §6 figures:
//!
//! * [`SimRunner`] / [`run_auction_sim`] — one message pump driving any
//!   set of protocol [`Block`]s under a chosen [`SchedulePolicy`]: FIFO,
//!   seeded-random and adversarial delay deterministically, or
//!   [`SchedulePolicy::Timed`] over a [`LinkModel`] (the discrete-event
//!   simulation). Every run reports per-provider outcomes, decision
//!   times and its span.
//! * Deviations are `dauctioneer-core`'s [`AdversaryKind`]s — the same
//!   roster the threaded runtimes take: silence, lateness, equivocation,
//!   corruption, selective drops, replay and garbage frames. They let
//!   tests check *k-resilience*: a deviating coalition never improves its
//!   utility — every detectable deviation collapses the outcome to ⊥
//!   (utility 0), and no deviation can steer the outcome to a different
//!   accepted pair (*resilience to collusive influence*).
//! * [`utility`] — the §3.3 utility functions: 0 on ⊥, value − payment
//!   for users, payment − cost for providers.
//!
//! [`Block`]: dauctioneer_core::Block
//! [`AdversaryKind`]: dauctioneer_core::AdversaryKind

pub mod runner;
pub mod schedule;
pub mod utility;

pub use runner::{run_auction_sim, SimReport, SimRunner};
pub use schedule::{LinkModel, SchedulePolicy};
