//! Seeded workload generators matching the paper's experimental setup
//! (§6.2 and §6.3).
//!
//! Both experiments use the same bidder population: per-unit valuations
//! uniform in `[0.75, 1.25]` and bandwidth demands uniform in `(0, 1]`.
//! They differ in how provider capacity is provisioned:
//!
//! * **Double auction** (§6.2): capacity scales the total requested
//!   bandwidth by a factor uniform in `[0.5, 1.5]` — sometimes scarce,
//!   sometimes abundant — and providers ask a unit cost uniform in
//!   `(0, 1]`.
//! * **Standard auction** (§6.3): capacity scales the per-provider
//!   requested bandwidth by a factor uniform in `[0, 0.25]`, so roughly a
//!   quarter of users can win — the regime where the VCG solver's search
//!   space, and Fig. 5's running time, blows up.
//!
//! Generators are deterministic in their seed, so experiments are
//! reproducible run-to-run and across machines.
//!
//! Both §6 generators are **closed-world**: every bid exists before the
//! auction starts. The [`arrival`] module adds the open-world
//! counterpart — seeded [`ArrivalProcess`] streams (Poisson or uniform
//! inter-arrivals) over the same bidder population, feeding the
//! continuous market service, its example, and the benchmarks.

//! The [`scenarios`] module names the *adversarial* workloads: chaos
//! scenarios pairing link-fault plans with deviating-provider
//! strategies, shared by the chaos test suite, the `chaos_sweep` bench,
//! and the CI chaos matrix.

pub mod arrival;
pub mod scenarios;

pub use arrival::{epoch_supply, ArrivalProcess, Arrivals, BidArrival, InterArrival};
pub use scenarios::{chaos_suite, scenario_by_name, ChaosScenario, Expectation};

use dauctioneer_crypto::{derive_seed, SeedDomain};
use dauctioneer_types::{BidVector, Bw, Money, ProviderAsk, UserBid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Paper §6.2: user valuations are uniform in `[0.75, 1.25]`.
pub const VALUATION_RANGE: (f64, f64) = (0.75, 1.25);
/// Paper §6.2: demands are uniform in `(0, 1]`.
pub const DEMAND_RANGE: (f64, f64) = (0.0, 1.0);

fn rng_for(seed: u64, label: &[u8]) -> StdRng {
    StdRng::from_seed(derive_seed(SeedDomain::Workload, &seed.to_le_bytes(), label))
}

pub(crate) fn gen_valuation(rng: &mut StdRng) -> Money {
    Money::from_f64(rng.gen_range(VALUATION_RANGE.0..=VALUATION_RANGE.1))
}

/// Uniform in `(0, 1]` at micro precision (excludes exact zero, as the
/// paper's open interval demands).
pub(crate) fn gen_demand(rng: &mut StdRng) -> Bw {
    Bw::from_micro(rng.gen_range(1..=1_000_000))
}

/// The double-auction workload of §6.2.
///
/// # Example
///
/// ```
/// use dauctioneer_workload::DoubleAuctionWorkload;
/// let w = DoubleAuctionWorkload::new(100, 8, 42);
/// let bids = w.generate();
/// assert_eq!(bids.num_users(), 100);
/// assert_eq!(bids.num_asks(), 8);
/// // Deterministic in the seed:
/// assert_eq!(bids, DoubleAuctionWorkload::new(100, 8, 42).generate());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoubleAuctionWorkload {
    /// Number of users.
    pub n_users: usize,
    /// Number of providers (who submit asks).
    pub n_providers: usize,
    /// Seed for all draws.
    pub seed: u64,
}

impl DoubleAuctionWorkload {
    /// Create the workload description.
    pub fn new(n_users: usize, n_providers: usize, seed: u64) -> DoubleAuctionWorkload {
        DoubleAuctionWorkload { n_users, n_providers, seed }
    }

    /// Generate the full bid vector: user bids plus provider asks.
    pub fn generate(&self) -> BidVector {
        let mut rng = rng_for(self.seed, b"double-auction");
        let mut builder = BidVector::builder(self.n_users, self.n_providers);
        let mut total_demand = 0.0f64;
        for i in 0..self.n_users {
            let bid = UserBid::new(gen_valuation(&mut rng), gen_demand(&mut rng));
            total_demand += bid.demand().as_f64();
            builder = builder.user_bid(i, bid);
        }
        // Capacity: overall demand split across providers, scaled by a
        // random factor in [0.5, 1.5] (§6.2) so both scarcity and excess
        // occur.
        for j in 0..self.n_providers {
            let scale = rng.gen_range(0.5..=1.5);
            let capacity = Bw::from_f64((total_demand / self.n_providers as f64) * scale);
            let unit_cost = Money::from_micro(rng.gen_range(1..=1_000_000)); // (0, 1]
            builder = builder.provider_ask(j, ProviderAsk::new(unit_cost, capacity));
        }
        builder.build()
    }
}

/// The standard-auction workload of §6.3.
///
/// # Example
///
/// ```
/// use dauctioneer_workload::StandardAuctionWorkload;
/// let w = StandardAuctionWorkload::new(50, 8, 7);
/// let (bids, capacities) = w.generate();
/// assert_eq!(bids.num_users(), 50);
/// assert_eq!(bids.num_asks(), 0); // providers do not bid
/// assert_eq!(capacities.len(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StandardAuctionWorkload {
    /// Number of users.
    pub n_users: usize,
    /// Number of providers (capacity holders; they do not bid).
    pub n_providers: usize,
    /// Seed for all draws.
    pub seed: u64,
}

impl StandardAuctionWorkload {
    /// Create the workload description.
    pub fn new(n_users: usize, n_providers: usize, seed: u64) -> StandardAuctionWorkload {
        StandardAuctionWorkload { n_users, n_providers, seed }
    }

    /// Generate the user bids and the public provider capacities.
    pub fn generate(&self) -> (BidVector, Vec<Bw>) {
        let mut rng = rng_for(self.seed, b"standard-auction");
        let mut builder = BidVector::builder(self.n_users, 0);
        let mut total_demand = 0.0f64;
        for i in 0..self.n_users {
            let bid = UserBid::new(gen_valuation(&mut rng), gen_demand(&mut rng));
            total_demand += bid.demand().as_f64();
            builder = builder.user_bid(i, bid);
        }
        // §6.3: per-provider capacity is the provider's share of overall
        // demand scaled down by a factor in [0, 0.25], so roughly no more
        // than a quarter of users win.
        let capacities = (0..self.n_providers)
            .map(|_| {
                let scale = rng.gen_range(0.0..=0.25);
                Bw::from_f64((total_demand / self.n_providers as f64) * scale)
            })
            .collect();
        (builder.build(), capacities)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dauctioneer_types::UserId;

    #[test]
    fn double_workload_is_deterministic_and_in_range() {
        let w = DoubleAuctionWorkload::new(200, 8, 1);
        let bids = w.generate();
        assert_eq!(bids, w.generate());
        for (_, bid) in bids.valid_user_bids() {
            let v = bid.valuation().as_f64();
            assert!((0.75..=1.25).contains(&v), "valuation out of range: {v}");
            let d = bid.demand().as_f64();
            assert!(d > 0.0 && d <= 1.0, "demand out of range: {d}");
        }
        assert_eq!(bids.num_valid_users(), 200);
        for ask in bids.asks() {
            assert!(ask.unit_cost().is_positive());
            assert!(!ask.capacity().is_zero());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = DoubleAuctionWorkload::new(10, 2, 1).generate();
        let b = DoubleAuctionWorkload::new(10, 2, 2).generate();
        assert_ne!(a, b);
        let (sa, _) = StandardAuctionWorkload::new(10, 2, 1).generate();
        let (sb, _) = StandardAuctionWorkload::new(10, 2, 2).generate();
        assert_ne!(sa, sb);
    }

    #[test]
    fn standard_workload_capacity_is_scarce() {
        let w = StandardAuctionWorkload::new(100, 8, 3);
        let (bids, capacities) = w.generate();
        let total_demand: f64 = bids.valid_user_bids().map(|(_, b)| b.demand().as_f64()).sum();
        let total_capacity: f64 = capacities.iter().map(|c| c.as_f64()).sum();
        // Expected scale factor is 0.125; it can never exceed 0.25.
        assert!(
            total_capacity <= total_demand * 0.25 + 1e-6,
            "capacity {total_capacity} vs demand {total_demand}"
        );
    }

    #[test]
    fn standard_workload_has_no_asks() {
        let (bids, caps) = StandardAuctionWorkload::new(5, 3, 9).generate();
        assert_eq!(bids.num_asks(), 0);
        assert_eq!(caps.len(), 3);
        assert!(bids.user_bid(UserId(4)).is_valid());
    }

    #[test]
    fn workloads_with_zero_users() {
        let bids = DoubleAuctionWorkload::new(0, 2, 1).generate();
        assert_eq!(bids.num_users(), 0);
        let (bids, _) = StandardAuctionWorkload::new(0, 2, 1).generate();
        assert_eq!(bids.num_users(), 0);
    }
}
