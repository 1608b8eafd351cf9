//! Greedy best-fit-decreasing heuristic: the branch-and-bound's initial
//! incumbent — the result a budgeted search falls back to — and the fast
//! baseline mechanism in the benchmark ablations.

use dauctioneer_types::Money;

use super::{Bidder, Instance, Solution};

/// Greedily assign bidders to providers; `O(n·options·m)`.
///
/// Bidders are visited in canonical density order; each takes its
/// highest-price option that still fits somewhere (ties by lower option
/// index), placed on the provider with the *least* residual capacity that
/// accommodates it (best fit), which keeps large residuals for large later
/// bids.
///
/// # Example
///
/// ```
/// use dauctioneer_mechanisms::solver::{solve_greedy, Instance};
/// use dauctioneer_types::{BidVector, UserBid, Money, Bw};
///
/// let bids = BidVector::builder(1, 0)
///     .user_bid(0, UserBid::new(Money::from_f64(1.0), Bw::from_f64(0.4)))
///     .build();
/// let inst = Instance::from_bids(&bids, &[Bw::from_f64(1.0)]);
/// let sol = solve_greedy(&inst);
/// assert_eq!(sol.choice, vec![Some((0, 0))]);
/// ```
pub fn solve_greedy<B: Bidder>(instance: &Instance<B>) -> Solution {
    let mut residual = instance.capacities.clone();
    let mut solution = Solution::empty(instance.len());
    for (idx, bidder) in instance.bidders.iter().enumerate() {
        let mut best: Option<(usize, usize, Money)> = None;
        for (oi, opt) in bidder.options().iter().enumerate() {
            // Best fit: the tightest provider that still accommodates the
            // option; ties broken by lower provider index for determinism.
            let slot = residual
                .iter()
                .enumerate()
                .filter(|(_, r)| **r >= opt.units)
                .min_by_key(|(j, r)| (**r, *j))
                .map(|(j, _)| j);
            if let Some(j) = slot {
                if best.map_or(true, |(_, _, p)| opt.price > p) {
                    best = Some((oi, j, opt.price));
                }
            }
        }
        if let Some((oi, j, price)) = best {
            residual[j] -= bidder.options()[oi].units;
            solution.choice[idx] = Some((oi, j));
            solution.welfare += price;
        }
    }
    solution
}
