//! The (1−ε)-optimal VCG standard auction (§5.2.2 of the paper).
//!
//! Users are single-minded — their whole demand is placed at exactly one
//! provider or not at all — and only users bid; provider capacities are
//! public configuration. The mechanism maximises social welfare with the
//! branch-and-bound solver ([`crate::solver`]) and charges **VCG payments**:
//! a winner pays the externality it imposes on the others,
//!
//! ```text
//! pᵢ = W(b̄₋ᵢ) − (W(x*) − vᵢ·dᵢ)
//! ```
//!
//! which requires *one additional NP-hard solve per winner*. That is the
//! computationally dominant step, and the one the distributed framework
//! parallelises across provider groups (Algorithm 1, Task 2 of the paper).
//! With `ε = 0` the solver is exact and the mechanism is truthful; with
//! `ε > 0` it reproduces the (1−ε) tradeoff of Zhang et al.

use dauctioneer_types::{
    Allocation, AuctionResult, BidVector, Bw, Money, Payments, ProviderId, UserId,
};

use crate::shared::SharedRng;
use crate::solver::{solve_branch_bound, BranchBoundConfig, Instance, Solution};
use crate::traits::Mechanism;

/// Configuration of a standard auction: public capacities and solver
/// tuning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StandardAuctionConfig {
    /// Capacity of each provider, by provider index. The number of
    /// providers is `capacities.len()`.
    pub capacities: Vec<Bw>,
    /// Solver tuning (ε, node cap, shuffling).
    pub solver: BranchBoundConfig,
}

impl StandardAuctionConfig {
    /// Exact (ε = 0) configuration with the given capacities.
    pub fn exact(capacities: Vec<Bw>) -> StandardAuctionConfig {
        StandardAuctionConfig { capacities, solver: BranchBoundConfig::default() }
    }
}

/// The standard-auction mechanism. See the module docs.
///
/// # Example
///
/// ```
/// use dauctioneer_mechanisms::{StandardAuction, StandardAuctionConfig, Mechanism, SharedRng};
/// use dauctioneer_types::{BidVector, UserBid, Money, Bw, UserId};
///
/// let config = StandardAuctionConfig::exact(vec![Bw::from_f64(0.6)]);
/// let auction = StandardAuction::new(config);
/// let bids = BidVector::builder(2, 0)
///     .user_bid(0, UserBid::new(Money::from_f64(1.2), Bw::from_f64(0.6)))
///     .user_bid(1, UserBid::new(Money::from_f64(0.9), Bw::from_f64(0.6)))
///     .build();
/// let result = auction.run(&bids, &SharedRng::from_material(b"coin"));
/// // User 0 wins and pays user 1's displaced value (VCG): 0.9 * 0.6.
/// assert_eq!(result.payments.user_payment(UserId(0)), Money::from_f64(0.54));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StandardAuction {
    config: StandardAuctionConfig,
}

impl StandardAuction {
    /// Create the mechanism with the given configuration.
    pub fn new(config: StandardAuctionConfig) -> StandardAuction {
        StandardAuction { config }
    }

    /// The configuration.
    pub fn config(&self) -> &StandardAuctionConfig {
        &self.config
    }

    /// Number of providers (knapsacks).
    pub fn num_providers(&self) -> usize {
        self.config.capacities.len()
    }

    /// **Task 1 of Algorithm 1**: compute the welfare-maximising
    /// allocation. Deterministic given `bids` and `shared`.
    pub fn solve_allocation(&self, bids: &BidVector, shared: &SharedRng) -> Allocation {
        let instance = Instance::from_bids(bids, &self.config.capacities);
        let solution = self.solve_instance(&instance, shared, b"allocation");
        let mut allocation = Allocation::new(bids.num_users(), self.num_providers());
        for (item, option, j) in solution.winners(&instance) {
            allocation.add(item.user, ProviderId(j as u32), Bw::from_micro(option.units));
        }
        allocation
    }

    /// **Task 2 of Algorithm 1**: the VCG payment of a single user given
    /// the chosen allocation. Independent across users, hence
    /// embarrassingly parallel. Losers pay zero; winners pay their
    /// externality, clamped into `[0, vᵢ·dᵢ]` so individual rationality
    /// survives an approximate solver.
    pub fn payment_for_user(
        &self,
        user: UserId,
        bids: &BidVector,
        chosen: &Allocation,
        shared: &SharedRng,
    ) -> Money {
        if chosen.user_total(user).is_zero() {
            return Money::ZERO;
        }
        let Some(bid) = bids.user_bid(user).as_bid().copied() else {
            return Money::ZERO;
        };
        let own_value = bid.valuation().per_unit(bid.demand());
        let chosen_welfare = self.welfare_of(bids, chosen);
        let instance_without =
            Instance::from_bids(bids, &self.config.capacities).without_user(user);
        let mut context = b"payment/".to_vec();
        context.extend_from_slice(&user.0.to_le_bytes());
        let without = self.solve_instance(&instance_without, shared, &context);
        let externality = without.welfare - (chosen_welfare - own_value);
        externality.max(Money::ZERO).min(own_value)
    }

    /// **Task 3 of Algorithm 1**: assemble the final result from the
    /// allocation and the per-user payments. Provider revenue is the sum of
    /// the payments of the users it hosts.
    pub fn assemble(
        &self,
        bids: &BidVector,
        allocation: Allocation,
        user_payments: &[(UserId, Money)],
    ) -> AuctionResult {
        let mut payments = Payments::zero(bids.num_users(), self.num_providers());
        for (user, amount) in user_payments {
            payments.set_user_payment(*user, *amount);
            // Attribute the revenue to the hosting provider.
            for provider in ProviderId::all(self.num_providers()) {
                if !allocation.get(*user, provider).is_zero() {
                    payments.add_provider_revenue(provider, *amount);
                }
            }
        }
        AuctionResult::new(allocation, payments)
    }

    /// Social welfare of an allocation under the given bids.
    pub fn welfare_of(&self, bids: &BidVector, allocation: &Allocation) -> Money {
        bids.valid_user_bids()
            .map(|(user, bid)| bid.valuation().per_unit(allocation.user_total(user)))
            .sum()
    }

    fn solve_instance(&self, instance: &Instance, shared: &SharedRng, context: &[u8]) -> Solution {
        let mut rng = shared.rng(context);
        let (solution, _stats) = solve_branch_bound(instance, self.config.solver, &mut rng);
        solution
    }
}

impl Mechanism for StandardAuction {
    fn run(&self, bids: &BidVector, shared: &SharedRng) -> AuctionResult {
        let allocation = self.solve_allocation(bids, shared);
        let winners = allocation.winners();
        let user_payments: Vec<(UserId, Money)> = winners
            .iter()
            .map(|&u| (u, self.payment_for_user(u, bids, &allocation, shared)))
            .collect();
        self.assemble(bids, allocation, &user_payments)
    }

    fn name(&self) -> &'static str {
        "standard-auction"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dauctioneer_types::UserBid;

    fn shared() -> SharedRng {
        SharedRng::from_material(b"coin")
    }

    fn auction(caps: &[f64]) -> StandardAuction {
        StandardAuction::new(StandardAuctionConfig::exact(
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
    fn single_winner_pays_displaced_value() {
        let a = auction(&[0.6]);
        let bids = bids_of(&[(1.2, 0.6), (0.9, 0.6)]);
        let r = a.run(&bids, &shared());
        assert_eq!(r.allocation.user_total(UserId(0)), Bw::from_f64(0.6));
        assert_eq!(r.allocation.user_total(UserId(1)), Bw::ZERO);
        // VCG: winner pays what the loser would have gotten: 0.9 * 0.6.
        assert_eq!(r.payments.user_payment(UserId(0)), Money::from_f64(0.54));
        assert_eq!(r.payments.user_payment(UserId(1)), Money::ZERO);
    }

    #[test]
    fn no_competition_means_zero_payment() {
        let a = auction(&[2.0]);
        let bids = bids_of(&[(1.0, 0.5)]);
        let r = a.run(&bids, &shared());
        assert_eq!(r.allocation.user_total(UserId(0)), Bw::from_f64(0.5));
        assert_eq!(r.payments.user_payment(UserId(0)), Money::ZERO);
    }

    #[test]
    fn payments_are_individually_rational() {
        let a = auction(&[0.9, 0.7]);
        let bids = bids_of(&[(1.25, 0.5), (1.1, 0.4), (0.95, 0.6), (0.8, 0.3), (0.76, 0.2)]);
        let r = a.run(&bids, &shared());
        for (user, bid) in bids.valid_user_bids() {
            let got = r.allocation.user_total(user);
            let value = bid.valuation().per_unit(got);
            let paid = r.payments.user_payment(user);
            assert!(paid <= value, "{user}: pays {paid} for value {value}");
            assert!(paid >= Money::ZERO);
            if got.is_zero() {
                assert_eq!(paid, Money::ZERO);
            }
        }
    }

    #[test]
    fn single_minded_all_or_nothing_at_one_provider() {
        let a = auction(&[0.5, 0.5]);
        let bids = bids_of(&[(1.2, 0.5), (1.1, 0.5), (0.9, 0.5)]);
        let r = a.run(&bids, &shared());
        for user in UserId::all(3) {
            let total = r.allocation.user_total(user);
            assert!(total.is_zero() || total == Bw::from_f64(0.5));
            // At most one provider hosts the user.
            let hosts =
                ProviderId::all(2).filter(|p| !r.allocation.get(user, *p).is_zero()).count();
            assert!(hosts <= 1);
        }
        // Exactly the two top-value users win.
        assert!(!r.allocation.user_total(UserId(0)).is_zero());
        assert!(!r.allocation.user_total(UserId(1)).is_zero());
        assert!(r.allocation.user_total(UserId(2)).is_zero());
    }

    #[test]
    fn provider_revenue_follows_hosted_users() {
        let a = auction(&[0.6]);
        let bids = bids_of(&[(1.2, 0.6), (0.9, 0.6)]);
        let r = a.run(&bids, &shared());
        assert_eq!(r.payments.provider_revenue(ProviderId(0)), Money::from_f64(0.54));
        assert_eq!(r.payments.total_user_payments(), r.payments.total_provider_revenues());
    }

    #[test]
    fn truthful_on_exact_instances() {
        // With ε = 0 the mechanism is VCG: no unilateral lie may increase a
        // user's utility. Check a grid of lies for every user.
        let a = auction(&[0.8, 0.5]);
        let true_bids = bids_of(&[(1.2, 0.5), (1.0, 0.4), (0.9, 0.6), (0.8, 0.3)]);
        let honest = a.run(&true_bids, &shared());
        for (user, bid) in true_bids.valid_user_bids() {
            let true_value = bid.valuation();
            let honest_utility = true_value.per_unit(honest.allocation.user_total(user))
                - honest.payments.user_payment(user);
            for lie_factor in [0.5, 0.8, 1.2, 2.0, 5.0] {
                let lie = bid.with_valuation(Money::from_f64(true_value.as_f64() * lie_factor));
                let lied = a.run(&true_bids.with_user_entry(user, lie.into()), &shared());
                let lied_utility = true_value.per_unit(lied.allocation.user_total(user))
                    - lied.payments.user_payment(user);
                assert!(
                    lied_utility <= honest_utility,
                    "{user} gains by lying ×{lie_factor}: {lied_utility} > {honest_utility}"
                );
            }
        }
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
    fn task_decomposition_equals_monolithic_run() {
        // Running Task 1 + parallel Task 2 + Task 3 by hand must equal run().
        let a = auction(&[0.9, 0.7]);
        let bids = bids_of(&[(1.25, 0.5), (1.1, 0.4), (0.95, 0.6), (0.8, 0.3)]);
        let s = shared();
        let allocation = a.solve_allocation(&bids, &s);
        let payments: Vec<(UserId, Money)> = allocation
            .winners()
            .into_iter()
            .map(|u| (u, a.payment_for_user(u, &bids, &allocation, &s)))
            .collect();
        let assembled = a.assemble(&bids, allocation, &payments);
        assert_eq!(assembled, a.run(&bids, &s));
    }

    #[test]
    fn welfare_of_matches_allocation() {
        let a = auction(&[1.0]);
        let bids = bids_of(&[(1.0, 0.5), (0.8, 0.5)]);
        let mut alloc = Allocation::new(2, 1);
        alloc.add(UserId(0), ProviderId(0), Bw::from_f64(0.5));
        alloc.add(UserId(1), ProviderId(0), Bw::from_f64(0.5));
        assert_eq!(a.welfare_of(&bids, &alloc), Money::from_f64(0.9));
    }
}
