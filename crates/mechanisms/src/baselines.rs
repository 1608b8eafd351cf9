//! Baseline mechanisms for comparison benches and ablations.
//!
//! The paper compares the distributed auctioneer against a *centralised
//! trusted auctioneer running the same algorithm*; these baselines add the
//! orthogonal comparison of the allocation algorithm itself against a
//! cheap greedy heuristic, which the benchmark ablations use to show what
//! the expensive solver buys in welfare.

use dauctioneer_types::{Allocation, AuctionResult, BidVector, Bw, Money, Payments, ProviderId};

use crate::shared::SharedRng;
use crate::solver::{solve_greedy, Instance};
use crate::traits::Mechanism;

/// Greedy first-price standard auction: best-fit-decreasing allocation,
/// winners pay their declared value.
///
/// Fast (`O(n·m)` after sorting) but **not truthful** — winners pay their
/// own bid — and generally suboptimal in welfare. Used as the ablation
/// baseline for the branch-and-bound mechanism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GreedyFirstPrice {
    capacities: Vec<Bw>,
}

impl GreedyFirstPrice {
    /// Create with the given provider capacities.
    pub fn new(capacities: Vec<Bw>) -> GreedyFirstPrice {
        GreedyFirstPrice { capacities }
    }
}

impl Mechanism for GreedyFirstPrice {
    fn run(&self, bids: &BidVector, _shared: &SharedRng) -> AuctionResult {
        let m = self.capacities.len();
        let instance = Instance::from_bids(bids, &self.capacities);
        let solution = solve_greedy(&instance);
        let mut allocation = Allocation::new(bids.num_users(), m);
        let mut payments = Payments::zero(bids.num_users(), m);
        for (item, option, j) in solution.winners(&instance) {
            let provider = ProviderId(j as u32);
            allocation.add(item.user, provider, Bw::from_micro(option.units));
            payments.set_user_payment(item.user, option.price);
            payments.add_provider_revenue(provider, option.price);
        }
        AuctionResult::new(allocation, payments)
    }

    fn name(&self) -> &'static str {
        "greedy-first-price"
    }
}

/// Welfare achieved by a standard-auction allocation under the given bids.
pub fn standard_welfare(bids: &BidVector, allocation: &Allocation) -> Money {
    bids.valid_user_bids()
        .map(|(user, bid)| bid.valuation().per_unit(allocation.user_total(user)))
        .sum()
}

/// Welfare of a double-auction allocation: total user value minus total
/// provider cost (§3.1 of the paper).
pub fn double_welfare(bids: &BidVector, allocation: &Allocation) -> Money {
    let user_value: Money = bids
        .valid_user_bids()
        .map(|(user, bid)| bid.valuation().per_unit(allocation.user_total(user)))
        .sum();
    let provider_cost: Money = bids
        .asks()
        .iter()
        .enumerate()
        .map(|(j, ask)| ask.unit_cost().per_unit(allocation.provider_total(ProviderId(j as u32))))
        .sum();
    user_value - provider_cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard::{StandardAuction, StandardAuctionConfig};
    use dauctioneer_types::{UserBid, UserId};

    fn bids_of(specs: &[(f64, f64)]) -> BidVector {
        let mut b = BidVector::builder(specs.len(), 0);
        for (i, (v, d)) in specs.iter().enumerate() {
            b = b.user_bid(i, UserBid::new(Money::from_f64(*v), Bw::from_f64(*d)));
        }
        b.build()
    }

    #[test]
    fn greedy_first_price_charges_declared_value() {
        let mech = GreedyFirstPrice::new(vec![Bw::from_f64(0.5)]);
        let bids = bids_of(&[(1.0, 0.5)]);
        let r = mech.run(&bids, &SharedRng::from_material(b""));
        assert_eq!(r.payments.user_payment(UserId(0)), Money::from_f64(0.5));
        assert_eq!(r.payments.provider_revenue(ProviderId(0)), Money::from_f64(0.5));
    }

    #[test]
    fn exact_mechanism_weakly_dominates_greedy_welfare() {
        let caps = vec![Bw::from_f64(1.0)];
        let greedy = GreedyFirstPrice::new(caps.clone());
        let exact = StandardAuction::new(StandardAuctionConfig::exact(caps));
        // Instance where greedy is strictly suboptimal.
        let bids = bids_of(&[(1.01, 0.6), (1.0, 0.5), (1.0, 0.5)]);
        let shared = SharedRng::from_material(b"x");
        let wg = standard_welfare(&bids, &greedy.run(&bids, &shared).allocation);
        let we = standard_welfare(&bids, &exact.run(&bids, &shared).allocation);
        assert!(we > wg, "exact {we} should beat greedy {wg}");
    }

    #[test]
    fn double_welfare_subtracts_costs() {
        use dauctioneer_types::ProviderAsk;
        let bids = BidVector::builder(1, 1)
            .user_bid(0, UserBid::new(Money::from_f64(1.0), Bw::from_f64(0.5)))
            .provider_ask(0, ProviderAsk::new(Money::from_f64(0.2), Bw::from_f64(1.0)))
            .build();
        let mut alloc = Allocation::new(1, 1);
        alloc.add(UserId(0), ProviderId(0), Bw::from_f64(0.5));
        // 1.0*0.5 − 0.2*0.5 = 0.4
        assert_eq!(double_welfare(&bids, &alloc), Money::from_f64(0.4));
    }

    #[test]
    fn standard_welfare_of_empty_allocation_is_zero() {
        let bids = bids_of(&[(1.0, 0.5)]);
        let alloc = Allocation::new(1, 1);
        assert_eq!(standard_welfare(&bids, &alloc), Money::ZERO);
    }
}
