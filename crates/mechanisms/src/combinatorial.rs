//! Multi-unit combinatorial auction (ROADMAP item 2).
//!
//! After Yen & Sun's decentralized combinatorial auctions for multi-unit
//! resource allocation: the resource is sold in *indivisible units*, and
//! each bidder submits an XOR set of bundle options — "this many units,
//! wholly at one provider, for this total price". Winner determination
//! ([`crate::solver`]) is NP-hard; the solver is an exact
//! branch-and-bound under a **node budget**, seeded by a greedy
//! incumbent that becomes the approximation-bounded fallback when the
//! budget exhausts. [`CombinatorialAuction::winner_determination`]
//! returns the solver's [`SolveStats`], including the certified
//! `bound_ppm` optimality fraction — the "reports its bound on the
//! result" contract; [`Mechanism::run`] clears with the same search and
//! drops the statistics.
//!
//! The market submits plain [`UserBid`](dauctioneer_types::UserBid)s, so the mechanism *lifts* each
//! valid bid into an XOR bundle deterministically (no randomness, no
//! iteration-order dependence — every replica lifts identically):
//!
//! * demand is quantized up to whole units of the configured quantum;
//! * the **full bundle** asks for all units at the bid's total value;
//! * when the bundle spans ≥ 2 units, a **discounted half-bundle**
//!   fallback asks for ⌈units/2⌉ at 90 % of the proportional price, so
//!   under scarcity a bidder can still win half its bundle.
//!
//! Payments are **pay-as-bid** (first price) on the winning option —
//! standard for budgeted combinatorial winner determination, where exact
//! VCG would require one NP-hard re-solve per winner *at proven
//! optimality* to stay truthful. The discounted lift keeps payments
//! individually rational against the declared linear valuation.

use dauctioneer_types::{
    Allocation, AuctionResult, BidVector, BundleBid, BundleOption, Bw, Money, Payments, ProviderId,
};

use crate::shared::SharedRng;
use crate::solver::{solve_branch_bound, BranchBoundConfig, BundleInstance, Solution, SolveStats};
use crate::traits::Mechanism;

/// Default resource quantum: a quarter of the abstract unit, so typical
/// workload demands (up to one unit) span one to four indivisible units.
pub const DEFAULT_UNIT: Bw = Bw::from_micro(250_000);

/// Default branch-and-bound node budget. Counted in **nodes, never
/// wall-clock**, so replicas and journal recovery replays stop at the
/// same node and clear byte-identically.
pub const DEFAULT_NODE_BUDGET: u64 = 200_000;

/// Configuration of a combinatorial auction: public capacities, the
/// resource quantum, and solver tuning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombinatorialAuctionConfig {
    /// Capacity of each provider, by provider index.
    pub capacities: Vec<Bw>,
    /// The indivisible resource quantum demands are rounded up to.
    pub unit: Bw,
    /// Solver tuning; `max_nodes` is the winner-determination budget
    /// that triggers the greedy fallback.
    pub solver: BranchBoundConfig,
}

impl CombinatorialAuctionConfig {
    /// Configuration with the default quantum and node budget.
    pub fn new(capacities: Vec<Bw>) -> CombinatorialAuctionConfig {
        CombinatorialAuctionConfig {
            capacities,
            unit: DEFAULT_UNIT,
            solver: BranchBoundConfig { max_nodes: DEFAULT_NODE_BUDGET, ..Default::default() },
        }
    }

    /// Override the winner-determination node budget.
    pub fn with_budget(mut self, max_nodes: u64) -> CombinatorialAuctionConfig {
        self.solver.max_nodes = max_nodes;
        self
    }
}

/// The combinatorial-auction mechanism. See the module docs.
///
/// # Example
///
/// ```
/// use dauctioneer_mechanisms::{CombinatorialAuction, CombinatorialAuctionConfig, Mechanism, SharedRng};
/// use dauctioneer_types::{BidVector, UserBid, Money, Bw, UserId};
///
/// let auction = CombinatorialAuction::new(CombinatorialAuctionConfig::new(vec![
///     Bw::from_f64(1.25),
/// ]));
/// let bids = BidVector::builder(2, 0)
///     .user_bid(0, UserBid::new(Money::from_f64(1.2), Bw::from_f64(0.75)))
///     .user_bid(1, UserBid::new(Money::from_f64(0.9), Bw::from_f64(0.75)))
///     .build();
/// let result = auction.run(&bids, &SharedRng::from_material(b"coin"));
/// // Only one full 3-unit bundle fits the 5-unit provider; user 0 wins it
/// // and pays its bid, while user 1 falls back to its 2-unit half bundle.
/// assert_eq!(result.allocation.user_total(UserId(0)), Bw::from_f64(0.75));
/// assert_eq!(result.allocation.user_total(UserId(1)), Bw::from_f64(0.5));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombinatorialAuction {
    config: CombinatorialAuctionConfig,
}

impl CombinatorialAuction {
    /// Create the mechanism with the given configuration.
    pub fn new(config: CombinatorialAuctionConfig) -> CombinatorialAuction {
        assert!(!config.unit.is_zero(), "resource quantum must be positive");
        CombinatorialAuction { config }
    }

    /// The configuration.
    pub fn config(&self) -> &CombinatorialAuctionConfig {
        &self.config
    }

    /// Number of providers.
    pub fn num_providers(&self) -> usize {
        self.config.capacities.len()
    }

    /// Provider capacities in whole units (rounded down — a partial
    /// quantum cannot host an indivisible unit).
    pub fn unit_capacities(&self) -> Vec<u64> {
        self.config.capacities.iter().map(|c| c.micro() / self.config.unit.micro()).collect()
    }

    /// Deterministically lift plain user bids into XOR bundle bids: the
    /// full quantized bundle at the bid's total value, plus a half-bundle
    /// fallback at 90 % of the proportional price when the bundle spans
    /// at least two units.
    pub fn lift_bids(&self, bids: &BidVector) -> Vec<BundleBid> {
        let quantum = self.config.unit.micro();
        bids.valid_user_bids()
            .filter_map(|(user, bid)| {
                let units = bid.demand().micro().div_ceil(quantum).max(1);
                let price = bid.valuation().per_unit(bid.demand());
                if !price.is_positive() {
                    return None;
                }
                let mut options = vec![BundleOption::new(units, price)];
                if units >= 2 {
                    let half_units = units.div_ceil(2);
                    // Proportional price minus a 10 % discount; floors
                    // keep it at or below the linear value of the half.
                    let half_price = Money::from_micro(
                        (price.micro() as i128 * half_units as i128 * 9 / (units as i128 * 10))
                            as i64,
                    );
                    if half_price.is_positive() {
                        options.push(BundleOption::new(half_units, half_price));
                    }
                }
                Some(BundleBid::new(user, options))
            })
            .collect()
    }

    /// Run winner determination and return the canonical instance, the
    /// chosen solution, and the solver statistics — including whether the
    /// node budget forced the greedy fallback and the certified
    /// `bound_ppm` on the result. This is the computationally dominant
    /// step (NP-hard) and what the `winner_determination` bench sweeps.
    pub fn winner_determination(
        &self,
        bids: &BidVector,
        shared: &SharedRng,
    ) -> (BundleInstance, Solution, SolveStats) {
        let instance = BundleInstance::new(&self.lift_bids(bids), &self.unit_capacities());
        let mut rng = shared.rng(b"combinatorial/wd");
        let (solution, stats) = solve_branch_bound(&instance, self.config.solver, &mut rng);
        (instance, solution, stats)
    }

    /// Assemble the auction result from a winner-determination outcome:
    /// winners receive their option's units (clipped at their declared
    /// demand) and pay their bid for it; revenue goes to the hosting
    /// provider.
    pub fn assemble(
        &self,
        bids: &BidVector,
        instance: &BundleInstance,
        solution: &Solution,
    ) -> AuctionResult {
        let mut allocation = Allocation::new(bids.num_users(), self.num_providers());
        let mut payments = Payments::zero(bids.num_users(), self.num_providers());
        for (bid, option, j) in solution.winners(instance) {
            let provider = ProviderId(j as u32);
            let granted = Bw::from_micro(option.units * self.config.unit.micro());
            let demand = bids.user_bid(bid.user).as_bid().map(|b| b.demand()).unwrap_or(granted);
            allocation.add(bid.user, provider, granted.min(demand));
            payments.set_user_payment(bid.user, option.price);
            payments.add_provider_revenue(provider, option.price);
        }
        AuctionResult::new(allocation, payments)
    }
}

impl Mechanism for CombinatorialAuction {
    fn run(&self, bids: &BidVector, shared: &SharedRng) -> AuctionResult {
        let (instance, solution, _stats) = self.winner_determination(bids, shared);
        self.assemble(bids, &instance, &solution)
    }

    fn name(&self) -> &'static str {
        "combinatorial-auction"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::{feasibility_violations, rationality_violations};
    use dauctioneer_types::{UserBid, UserId};

    fn shared() -> SharedRng {
        SharedRng::from_material(b"coin")
    }

    fn auction(caps: &[f64]) -> CombinatorialAuction {
        CombinatorialAuction::new(CombinatorialAuctionConfig::new(
            caps.iter().map(|c| Bw::from_f64(*c)).collect(),
        ))
    }

    fn bids_of(specs: &[(f64, f64)]) -> BidVector {
        let mut b = BidVector::builder(specs.len(), 0);
        for (i, (v, d)) in specs.iter().enumerate() {
            b = b.user_bid(i, UserBid::new(Money::from_f64(*v), Bw::from_f64(*d)));
        }
        b.build()
    }

    #[test]
    fn empty_auction() {
        let a = auction(&[1.0]);
        let r = a.run(&BidVector::all_neutral(3), &shared());
        assert!(r.allocation.is_empty());
        assert_eq!(r.payments.total_user_payments(), Money::ZERO);
    }

    #[test]
    fn lift_quantizes_and_adds_half_fallback() {
        let a = auction(&[1.0]);
        let bids = bids_of(&[(1.2, 0.75), (1.0, 0.2)]);
        let lifted = a.lift_bids(&bids);
        // 0.75 → 3 units; full 3 for 0.9 total, half 2 for 0.9·(2/3)·0.9.
        assert_eq!(lifted[0].options[0], BundleOption::new(3, Money::from_f64(0.9)));
        assert_eq!(lifted[0].options[1].units, 2);
        assert_eq!(lifted[0].options[1].price, Money::from_micro(540_000));
        // 0.2 → a single unit: no half fallback.
        assert_eq!(lifted[1].options.len(), 1);
        assert_eq!(lifted[1].options[0].units, 1);
    }

    #[test]
    fn unit_capacities_round_down() {
        let a = auction(&[1.1, 0.2]);
        assert_eq!(a.unit_capacities(), vec![4, 0]);
    }

    #[test]
    fn scarcity_engages_the_half_bundle() {
        // One provider of 5 units; two 3-unit full bundles cannot both
        // fit, so the lower-value bidder takes its 2-unit half.
        let a = auction(&[1.25]);
        let bids = bids_of(&[(1.2, 0.75), (0.9, 0.75)]);
        let r = a.run(&bids, &shared());
        assert_eq!(r.allocation.user_total(UserId(0)), Bw::from_f64(0.75));
        assert_eq!(r.allocation.user_total(UserId(1)), Bw::from_f64(0.5));
        // Pay-as-bid: winner pays exactly its winning option's price.
        assert_eq!(r.payments.user_payment(UserId(0)), Money::from_f64(0.9));
        assert!(r.payments.is_budget_balanced());
    }

    #[test]
    fn results_are_feasible_and_individually_rational() {
        let a = auction(&[0.9, 0.6]);
        let bids = bids_of(&[(1.25, 0.6), (1.1, 0.45), (0.95, 0.8), (0.8, 0.3), (0.76, 0.5)]);
        let r = a.run(&bids, &shared());
        let caps: Vec<Bw> = a.config().capacities.clone();
        assert!(feasibility_violations(&bids, &r, Some(&caps)).is_empty());
        assert!(rationality_violations(&bids, &r).is_empty());
        assert!(r.payments.is_budget_balanced());
    }

    #[test]
    fn deterministic_across_replicas() {
        let a = auction(&[0.9, 0.7]);
        let bids = bids_of(&[(1.25, 0.5), (1.1, 0.4), (0.95, 0.6), (0.8, 0.3)]);
        let r1 = a.run(&bids, &SharedRng::from_material(b"same"));
        let r2 = a.run(&bids, &SharedRng::from_material(b"same"));
        assert_eq!(r1, r2);
    }

    #[test]
    fn budget_exhaustion_reports_fallback_and_bound() {
        let caps: Vec<f64> = vec![1.0, 0.9, 0.8];
        let a = CombinatorialAuction::new(
            CombinatorialAuctionConfig::new(caps.iter().map(|c| Bw::from_f64(*c)).collect())
                .with_budget(30),
        );
        let specs: Vec<(f64, f64)> =
            (0..14).map(|i| (1.25 - 0.03 * i as f64, 0.3 + 0.05 * (i % 5) as f64)).collect();
        let bids = bids_of(&specs);
        let (instance, solution, stats) = a.winner_determination(&bids, &shared());
        assert!(!stats.complete, "30-node budget must exhaust");
        assert!(stats.bound_ppm > 0);
        assert!(solution.is_feasible(&instance));
        // The assembled result is still feasible and rational.
        let r = a.assemble(&bids, &instance, &solution);
        let capsv: Vec<Bw> = a.config().capacities.clone();
        assert!(feasibility_violations(&bids, &r, Some(&capsv)).is_empty());
        assert!(rationality_violations(&bids, &r).is_empty());
    }
}
