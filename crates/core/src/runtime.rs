//! The threaded runtime: one OS thread per provider, real message passing.
//!
//! This is the workspace's stand-in for the paper's deployment on Guifi
//! nodes (`docs/ARCHITECTURE.md`, "One engine, two runtimes, two
//! transports"): provider threads give real CPU parallelism for
//! the computation-bound standard auction, and injected link latency
//! reproduces the communication-bound regime of the double auction. A
//! session runs every provider's [`SessionEngine`] to completion (or a
//! deadline, which yields ⊥ — the paper's external abort mechanism) and
//! reports per-provider outcomes, wall-clock time, and traffic counters.
//!
//! The per-provider protocol loop (session framing, dispatch, ⊥
//! handling) lives in [`crate::engine`], shared with the simulator
//! backends, and the mesh/thread scaffolding lives in [`crate::batch`]:
//! a session is simply a batch of one, so this module is only the
//! single-session report shape.
//!
//! [`SessionEngine`]: crate::engine::SessionEngine

use std::sync::Arc;
use std::time::Duration;

use dauctioneer_net::{LatencyModel, TrafficSnapshot};
use dauctioneer_types::{BidVector, Outcome};

use crate::allocator::AllocatorProgram;
use crate::batch::{run_batch, BatchSession};
use crate::config::FrameworkConfig;
use crate::engine::unanimous;

/// Options for a threaded session.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Wall-clock budget; providers that haven't decided by then output ⊥.
    pub deadline: Duration,
    /// Link latency injected between providers.
    pub latency: LatencyModel,
    /// Seed for latency jitter and each provider's local randomness
    /// (provider `j` uses `seed + j + 1`).
    pub seed: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions { deadline: Duration::from_secs(60), latency: LatencyModel::Zero, seed: 0 }
    }
}

/// What a threaded session produced.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Outcome at each provider, by provider index. A correct simulation
    /// yields the same agreed pair everywhere (or ⊥ everywhere).
    pub outcomes: Vec<Outcome>,
    /// Wall-clock duration from session start to the last provider's
    /// decision.
    pub elapsed: Duration,
    /// Traffic counters for the whole session.
    pub traffic: TrafficSnapshot,
}

impl SessionReport {
    /// The unanimous outcome of the session per Definition 1: the agreed
    /// pair if *all* providers output it, else ⊥.
    pub fn unanimous(&self) -> Outcome {
        unanimous(self.outcomes.iter().map(Some))
    }
}

/// Run one full distributed-auction session on threads.
///
/// `collected[j]` is the bid vector provider `j` gathered from the bidders
/// (they may differ — that is exactly what bid agreement resolves).
///
/// # Panics
///
/// Panics if `collected.len() != cfg.m` or the configuration is invalid.
pub fn run_session<P: AllocatorProgram + 'static>(
    cfg: &FrameworkConfig,
    program: Arc<P>,
    collected: Vec<BidVector>,
    options: &RunOptions,
) -> SessionReport {
    // A session is a batch of one: same mesh, threads, seeding
    // (provider `j` draws from `options.seed + j + 1`) and ⊥ handling.
    let spec = BatchSession { session: cfg.session, collected, seed: options.seed };
    let mut report = run_batch(cfg, program, vec![spec], options);
    SessionReport {
        outcomes: report.sessions.remove(0).outcomes,
        elapsed: report.elapsed,
        traffic: report.traffic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::DoubleAuctionProgram;
    use dauctioneer_types::{Bw, Money, ProviderAsk, UserBid, UserId};

    fn bids(n: usize, a: usize) -> BidVector {
        let mut b = BidVector::builder(n, a);
        for i in 0..n {
            b = b.user_bid(
                i,
                UserBid::new(Money::from_f64(1.0 + 0.01 * i as f64), Bw::from_f64(0.5)),
            );
        }
        for j in 0..a {
            b = b.provider_ask(
                j,
                ProviderAsk::new(Money::from_f64(0.1 + 0.1 * j as f64), Bw::from_f64(1.0)),
            );
        }
        b.build()
    }

    #[test]
    fn threaded_double_auction_session_agrees() {
        let cfg = FrameworkConfig::new(3, 1, 4, 2);
        let shared_bids = bids(4, 2);
        let report = run_session(
            &cfg,
            Arc::new(DoubleAuctionProgram::new()),
            vec![shared_bids.clone(); 3],
            &RunOptions::default(),
        );
        let outcome = report.unanimous();
        let result = outcome.as_result().expect("honest run must agree");
        assert!(!result.allocation.is_empty());
        assert!(report.traffic.total_messages() > 0);
        // All three providers returned the identical pair.
        for o in &report.outcomes {
            assert_eq!(o, &outcome);
        }
    }

    #[test]
    fn divergent_collections_still_agree_on_something() {
        // Each provider saw a different bid from user 0 (an equivocating
        // bidder); the session must still converge to one outcome.
        let cfg = FrameworkConfig::new(3, 1, 2, 1);
        let collected: Vec<BidVector> = (0..3)
            .map(|j| {
                BidVector::builder(2, 1)
                    .user_bid(
                        0,
                        UserBid::new(Money::from_f64(1.0 + j as f64 * 0.1), Bw::from_f64(0.4)),
                    )
                    .user_bid(1, UserBid::new(Money::from_f64(0.9), Bw::from_f64(0.4)))
                    .provider_ask(0, ProviderAsk::new(Money::from_f64(0.2), Bw::from_f64(2.0)))
                    .build()
            })
            .collect();
        let report = run_session(
            &cfg,
            Arc::new(DoubleAuctionProgram::new()),
            collected,
            &RunOptions::default(),
        );
        assert!(!report.unanimous().is_abort());
        // Validity: the consistent bidder (user 1) was preserved — check
        // that each provider's outcome equals the unanimous one.
        let unanimous = report.unanimous();
        for o in &report.outcomes {
            assert_eq!(o, &unanimous);
        }
        let _ = UserId(1);
    }

    #[test]
    fn unanimous_of_empty_is_abort() {
        let report = SessionReport {
            outcomes: vec![],
            elapsed: Duration::ZERO,
            traffic: TrafficSnapshot::default(),
        };
        assert!(report.unanimous().is_abort());
    }
}
