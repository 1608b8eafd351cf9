//! Winner determination: one branch-and-bound for the standard and the
//! combinatorial auction.
//!
//! Each bidder names mutually exclusive [`BundleOption`]s ("this many units
//! for this total price"), at most one of which wins, wholly at one
//! provider of fixed unit capacity. A single-minded standard-auction user
//! is the one-option case in micro-units of bandwidth (Yen & Sun's
//! multi-unit formulation). [`solve_branch_bound`] is the exact search with
//! the paper's (1−ε) dial and a node budget, [`solve_greedy`] its incumbent
//! and the fast baseline, [`solve_exhaustive`] the ground truth for tests.
//!
//! Per instance kind only construction, canonical order and fractional
//! bound differ: [`Item`]s sort and bound at their per-unit value (rounded
//! down), [`BundleBid`]s at their best option's density (rounded up). Both
//! implement [`Bidder`]; the rest is one statically dispatched code path.

pub mod branch_bound;
pub mod exhaustive;
pub mod greedy;

use std::cmp::Ordering;

use dauctioneer_types::{BidVector, BundleBid, BundleOption, Bw, Money, UserId};

pub use branch_bound::{solve_branch_bound, BranchBoundConfig, SolveStats};
pub use exhaustive::solve_exhaustive;
pub use greedy::solve_greedy;

/// One bidder of a winner-determination instance, as the solvers see it.
pub trait Bidder {
    /// The bidder's mutually exclusive options, in declared order.
    fn options(&self) -> &[BundleOption];

    /// This bidder's share of the pooled fractional relaxation when
    /// `left > 0` units remain in the pool: the units it takes, and an
    /// upper bound on the value any of its options earns from them.
    fn relaxed(&self, left: u64) -> (u64, Money);
}

/// A winner-determination instance: bidders in canonical order (so every
/// replica sorts and searches identically) and provider capacities in
/// units.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance<B = Item> {
    /// Bidders in canonical, density-descending order.
    pub bidders: Vec<B>,
    /// Provider capacities in units, by provider index.
    pub capacities: Vec<u64>,
}

/// The multi-unit XOR-bundle instance of the combinatorial auction.
pub type BundleInstance = Instance<BundleBid>;

impl<B: Bidder> Instance<B> {
    /// Number of bidders.
    pub fn len(&self) -> usize {
        self.bidders.len()
    }

    /// `true` if there are no bidders.
    pub fn is_empty(&self) -> bool {
        self.bidders.is_empty()
    }

    /// Upper bound on the welfare achievable from bidder `from` onward with
    /// `pooled_residual` units pooled across all providers. Pooling and
    /// fractional placement only add feasible points, and filling the pool
    /// in canonical density order is the relaxation's optimum, so the bound
    /// is admissible for branch-and-bound pruning.
    pub fn fractional_bound(&self, from: usize, pooled_residual: u64) -> Money {
        let mut left = pooled_residual;
        let mut bound = Money::ZERO;
        for bidder in &self.bidders[from..] {
            if left == 0 {
                break;
            }
            let (take, value) = bidder.relaxed(left);
            bound += value;
            left -= take;
        }
        bound
    }
}

/// A single-minded standard-auction user: one option of its whole demand
/// (in micro-units) for its total declared value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item {
    /// The user this item represents.
    pub user: UserId,
    /// Per-unit declared valuation.
    pub unit_value: Money,
    /// The one option: `demand.micro()` units for `unit_value · demand`.
    pub option: BundleOption,
}

impl Bidder for Item {
    fn options(&self) -> &[BundleOption] {
        std::slice::from_ref(&self.option)
    }

    /// Up to the demand at the item's own per-unit value, rounded down.
    fn relaxed(&self, left: u64) -> (u64, Money) {
        let take = self.option.units.min(left);
        (take, self.unit_value.per_unit(Bw::from_micro(take)))
    }
}

impl Instance {
    /// Build the canonical single-good instance from a bid vector and the
    /// public provider capacities: items by descending per-unit value,
    /// ties by ascending user id. Neutral and invalid bids are skipped;
    /// items whose demand exceeds every capacity can never be placed but
    /// are kept (the solvers skip them naturally).
    pub fn from_bids(bids: &BidVector, capacities: &[Bw]) -> Instance {
        let mut bidders: Vec<Item> = bids
            .valid_user_bids()
            .map(|(user, b)| Item {
                user,
                unit_value: b.valuation(),
                option: BundleOption::new(b.demand().micro(), b.valuation().per_unit(b.demand())),
            })
            .collect();
        bidders.sort_by(|a, b| b.unit_value.cmp(&a.unit_value).then(a.user.cmp(&b.user)));
        Instance { bidders, capacities: capacities.iter().map(|c| c.micro()).collect() }
    }

    /// The instance with one user's item removed — the `b̄₋ᵢ` sub-instance
    /// VCG payments are computed on.
    pub fn without_user(&self, user: UserId) -> Instance {
        Instance {
            bidders: self.bidders.iter().copied().filter(|it| it.user != user).collect(),
            capacities: self.capacities.clone(),
        }
    }
}

/// Compare two options by exact per-unit density, cross-multiplied so
/// rounding never reorders: `a.price/a.units > b.price/b.units` ⇔
/// `a.price·b.units > b.price·a.units`.
fn denser(a: &BundleOption, b: &BundleOption) -> Ordering {
    (a.price.micro() as i128 * b.units as i128).cmp(&(b.price.micro() as i128 * a.units as i128))
}

/// The option of `bid` with the best density (ties by lower option index).
fn best_option(bid: &BundleBid) -> &BundleOption {
    bid.options
        .iter()
        .reduce(|best, o| if denser(o, best).is_gt() { o } else { best })
        .expect("valid bundle bids have at least one option")
}

impl Bidder for BundleBid {
    fn options(&self) -> &[BundleOption] {
        &self.options
    }

    /// Up to `max_units` at the best option's density. Every option `o`
    /// satisfies `o.price ≤ density·o.units ≤ density·max_units`; the
    /// share rounds *up* so integer division never undercuts a real
    /// option's price.
    fn relaxed(&self, left: u64) -> (u64, Money) {
        let best = best_option(self);
        let take = self.max_units().min(left);
        let num = best.price.micro() as i128 * take as i128;
        let den = best.units as i128;
        (take, Money::from_micro(((num + den - 1) / den) as i64))
    }
}

impl BundleInstance {
    /// Build the canonical instance. Invalid bids (empty, zero-unit or
    /// non-positive-price options) are dropped; bids whose smallest
    /// option exceeds every capacity can never win but are kept (the
    /// solvers skip them naturally).
    pub fn new(bids: &[BundleBid], capacities: &[u64]) -> BundleInstance {
        let mut bidders: Vec<BundleBid> = bids.iter().filter(|b| b.is_valid()).cloned().collect();
        // Descending best density, ties by ascending user id.
        bidders.sort_by(|a, b| denser(best_option(b), best_option(a)).then(a.user.cmp(&b.user)));
        Instance { bidders, capacities: capacities.to_vec() }
    }
}

/// A solution to an [`Instance`]: for each bidder (in instance order) the
/// winning `(option index, provider index)`, or `None` for losers. At
/// most one option per bidder by construction — the XOR constraint is
/// structural.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// Winning `(option, provider)` per bidder, in instance order.
    pub choice: Vec<Option<(usize, usize)>>,
    /// Total welfare (sum of winning option prices).
    pub welfare: Money,
}

impl Solution {
    /// The empty (all-losers) solution.
    pub fn empty(n_bidders: usize) -> Solution {
        Solution { choice: vec![None; n_bidders], welfare: Money::ZERO }
    }

    /// Every winner with its winning option and provider index, in
    /// instance order.
    pub fn winners<'a, B: Bidder>(
        &'a self,
        instance: &'a Instance<B>,
    ) -> impl Iterator<Item = (&'a B, BundleOption, usize)> + 'a {
        self.choice
            .iter()
            .zip(&instance.bidders)
            .filter_map(|(c, bidder)| c.map(|(oi, j)| (bidder, bidder.options()[oi], j)))
    }

    /// Recompute welfare from an instance (sanity check in tests).
    pub fn compute_welfare<B: Bidder>(&self, instance: &Instance<B>) -> Money {
        self.winners(instance).map(|(_, option, _)| option.price).sum()
    }

    /// Verify unit-capacity feasibility against an instance.
    pub fn is_feasible<B: Bidder>(&self, instance: &Instance<B>) -> bool {
        let mut used = vec![0u64; instance.capacities.len()];
        for (c, bidder) in self.choice.iter().zip(&instance.bidders) {
            let Some((oi, j)) = *c else { continue };
            let (Some(option), Some(u)) = (bidder.options().get(oi), used.get_mut(j)) else {
                return false;
            };
            *u += option.units;
        }
        used.iter().zip(&instance.capacities).all(|(u, c)| u <= c)
    }
}

#[cfg(test)]
mod tests {
    use super::branch_bound::PPM;
    use super::*;
    use dauctioneer_types::UserBid;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bids_of(specs: &[(f64, f64)]) -> BidVector {
        let mut b = BidVector::builder(specs.len(), 0);
        for (i, (v, d)) in specs.iter().enumerate() {
            b = b.user_bid(i, UserBid::new(Money::from_f64(*v), Bw::from_f64(*d)));
        }
        b.build()
    }

    /// Single-good instance from `(unit value, demand)` users.
    fn single(users: &[(f64, f64)], caps: &[f64]) -> Instance {
        let caps: Vec<Bw> = caps.iter().map(|c| Bw::from_f64(*c)).collect();
        Instance::from_bids(&bids_of(users), &caps)
    }

    fn bid(user: u32, options: &[(u64, f64)]) -> BundleBid {
        BundleBid::new(
            UserId(user),
            options.iter().map(|(u, p)| BundleOption::new(*u, Money::from_f64(*p))).collect(),
        )
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn exact<B: Bidder>(inst: &Instance<B>) -> (Solution, SolveStats) {
        solve_branch_bound(inst, BranchBoundConfig::default(), &mut rng())
    }

    #[test]
    fn instances_sort_canonically() {
        // Single-good: by per-unit value, ties by user id.
        let inst = single(&[(1.0, 0.5), (1.2, 0.3), (1.0, 0.2)], &[1.0]);
        let order: Vec<UserId> = inst.bidders.iter().map(|i| i.user).collect();
        assert_eq!(order, vec![UserId(1), UserId(0), UserId(2)]);
        // Bundle: by best option density — user 2's is 1.5, user 0's 1.2,
        // user 1's 1.0.
        let bids =
            [bid(0, &[(5, 6.0)]), bid(1, &[(2, 2.0), (4, 3.0)]), bid(2, &[(2, 3.0), (6, 4.0)])];
        let inst = BundleInstance::new(&bids, &[10]);
        let order: Vec<UserId> = inst.bidders.iter().map(|b| b.user).collect();
        assert_eq!(order, vec![UserId(2), UserId(0), UserId(1)]);
    }

    #[test]
    fn instances_drop_neutral_and_invalid_bids() {
        let bids = BidVector::builder(2, 0)
            .user_bid(0, UserBid::new(Money::from_f64(1.0), Bw::from_f64(0.5)))
            .neutral(1)
            .build();
        assert_eq!(Instance::from_bids(&bids, &[Bw::from_f64(1.0)]).len(), 1);
        let bids = [bid(0, &[(2, 1.0)]), bid(1, &[]), bid(2, &[(0, 1.0)])];
        let inst = BundleInstance::new(&bids, &[4]);
        assert_eq!(inst.len(), 1);
        assert_eq!(inst.bidders[0].user, UserId(0));
    }

    #[test]
    fn single_good_items_are_one_option_bidders() {
        let inst = single(&[(1.2, 0.5)], &[1.0, 0.5]);
        let item = inst.bidders[0];
        assert_eq!(item.options(), &[BundleOption::new(500_000, Money::from_f64(0.6))]);
        assert_eq!(inst.capacities, vec![1_000_000, 500_000]);
    }

    #[test]
    fn without_user_removes_one_item() {
        let inst = single(&[(1.0, 0.5), (0.9, 0.3)], &[1.0]);
        let sub = inst.without_user(UserId(0));
        assert_eq!(sub.len(), 1);
        assert_eq!(sub.bidders[0].user, UserId(1));
        assert_eq!(sub.capacities, inst.capacities);
    }

    #[test]
    fn single_good_bound_truncates_fractionally() {
        let inst = single(&[(1.0, 0.6), (0.8, 0.6)], &[0.6, 0.6]);
        // Both users fit exactly; bound with pooled capacity 1.2 covers both.
        let bound = inst.fractional_bound(0, Bw::from_f64(1.2).micro());
        assert_eq!(bound, Money::from_f64(1.0 * 0.6 + 0.8 * 0.6));
        // Tighter pool truncates fractionally.
        let bound = inst.fractional_bound(0, Bw::from_f64(0.9).micro());
        assert_eq!(bound, Money::from_f64(1.0 * 0.6 + 0.8 * 0.3));
    }

    #[test]
    fn bundle_bound_dominates_any_single_option() {
        // A low-density big option must still be covered by the bound.
        let inst = BundleInstance::new(&[bid(0, &[(1, 10.0), (5, 30.0)])], &[5]);
        let bound = inst.fractional_bound(0, 5);
        assert!(bound >= Money::from_f64(30.0), "bound {bound} must cover the 30.0 option");
    }

    #[test]
    fn bundle_bound_rounds_up_over_options() {
        // price 1.0 for 3 units: floor(unit_price)·3 would lose a micro.
        let inst = BundleInstance::new(&[bid(0, &[(3, 1.0)])], &[3]);
        assert!(inst.fractional_bound(0, 3) >= Money::from_f64(1.0));
    }

    #[test]
    fn solution_welfare_and_feasibility() {
        let inst = single(&[(1.0, 0.5), (0.9, 0.6)], &[0.5, 0.6]);
        let sol = Solution {
            choice: vec![Some((0, 0)), Some((0, 1))],
            welfare: Money::from_f64(1.0 * 0.5 + 0.9 * 0.6),
        };
        assert!(sol.is_feasible(&inst));
        assert_eq!(sol.compute_welfare(&inst), sol.welfare);
        let bad = Solution { choice: vec![Some((0, 1)), Some((0, 1))], welfare: Money::ZERO };
        assert!(!bad.is_feasible(&inst));
        let no_such_option = Solution { choice: vec![Some((1, 0)), None], welfare: Money::ZERO };
        assert!(!no_such_option.is_feasible(&inst));
        let s = Solution::empty(3);
        assert_eq!(s.welfare, Money::ZERO);
        assert_eq!(s.choice, vec![None, None, None]);
    }

    fn check_empty<B: Bidder>(inst: &Instance<B>) {
        let (sol, stats) = exact(inst);
        assert_eq!(sol.welfare, Money::ZERO);
        assert!(stats.complete);
        assert_eq!(stats.bound_ppm, PPM);
        assert_eq!(solve_greedy(inst).welfare, Money::ZERO);
        assert_eq!(solve_exhaustive(inst).welfare, Money::ZERO);
    }

    #[test]
    fn empty_instance() {
        check_empty(&single(&[], &[1.0]));
        check_empty(&BundleInstance::new(&[], &[4]));
    }

    fn check_matches_exhaustive<B: Bidder>(inst: &Instance<B>) {
        let (sol, stats) = exact(inst);
        let best = solve_exhaustive(inst);
        assert!(stats.complete);
        assert_eq!(sol.welfare, best.welfare);
        assert!(sol.is_feasible(inst));
        assert_eq!(sol.compute_welfare(inst), sol.welfare);
        assert!(stats.root_bound >= best.welfare);
    }

    #[test]
    fn matches_exhaustive_on_small_instances() {
        let users = [(1.2, 0.3), (1.1, 0.5), (0.9, 0.7), (0.8, 0.4)];
        check_matches_exhaustive(&single(&users, &[1.0]));
        check_matches_exhaustive(&single(&users, &[0.6, 0.6]));
        check_matches_exhaustive(&single(&[(1.0, 0.9), (1.0, 0.9), (1.0, 0.9)], &[1.0, 1.0]));
        check_matches_exhaustive(&single(
            &[(1.25, 0.1), (0.76, 1.0), (1.0, 0.55), (0.9, 0.45), (0.8, 0.3)],
            &[0.7, 0.8],
        ));
        let cases: Vec<(Vec<BundleBid>, Vec<u64>)> = vec![
            (vec![bid(0, &[(3, 3.0)]), bid(1, &[(4, 4.4), (1, 1.2)])], vec![4]),
            (
                vec![
                    bid(0, &[(2, 2.6), (4, 4.0)]),
                    bid(1, &[(3, 3.3)]),
                    bid(2, &[(1, 1.4), (2, 2.2)]),
                ],
                vec![3, 3],
            ),
            (vec![bid(0, &[(5, 5.5)]), bid(1, &[(5, 5.4)]), bid(2, &[(5, 5.3)])], vec![5, 5]),
            (
                vec![
                    bid(0, &[(1, 1.9)]),
                    bid(1, &[(2, 2.8), (1, 1.1)]),
                    bid(2, &[(4, 4.5), (2, 2.0)]),
                    bid(3, &[(3, 2.9)]),
                ],
                vec![4, 2],
            ),
        ];
        for (bids, caps) in cases {
            check_matches_exhaustive(&BundleInstance::new(&bids, &caps));
        }
    }

    #[test]
    fn exhaustive_finds_known_optima() {
        // cap 1.0: best is the two 0.5-demand items (welfare 1.0), not the
        // denser 0.6 item (welfare 0.606).
        let inst = single(&[(1.01, 0.6), (1.0, 0.5), (1.0, 0.5)], &[1.0]);
        let sol = solve_exhaustive(&inst);
        assert_eq!(sol.welfare, Money::from_f64(1.0));
        assert!(sol.is_feasible(&inst));
        // Both knapsacks used.
        let inst = single(&[(1.0, 0.8), (0.9, 0.8)], &[0.8, 0.8]);
        assert_eq!(solve_exhaustive(&inst).welfare, Money::from_f64(1.0 * 0.8 + 0.9 * 0.8));
    }

    #[test]
    fn exhaustive_rejects_large_instances() {
        // 13 users on 3 providers: 4¹³ leaves.
        let users: Vec<(f64, f64)> = (0..13).map(|_| (1.0, 0.1)).collect();
        let single_good = single(&users, &[1.0, 1.0, 1.0]);
        // 9 two-option bids on 4 providers: 9⁹ leaves.
        let bids: Vec<BundleBid> = (0..9).map(|i| bid(i, &[(1, 1.0), (2, 1.5)])).collect();
        let bundle = BundleInstance::new(&bids, &[9, 9, 9, 9]);
        for run in [
            Box::new(move || drop(solve_exhaustive(&single_good))) as Box<dyn FnOnce() + Send>,
            Box::new(move || drop(solve_exhaustive(&bundle))),
        ] {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .expect_err("oversized instance must be rejected");
            let msg = err.downcast_ref::<String>().expect("formatted panic message");
            assert!(msg.contains("exhaustive solver limited"), "{msg}");
        }
    }

    #[test]
    fn beats_greedy_when_greedy_is_suboptimal() {
        // Greedy (density order) takes the 0.6-demand item first and the
        // 0.5-demand item no longer fits with the third; optimal picks
        // differently. Construct: cap 1.0; items (v=1.01,d=0.6),
        // (v=1.0,d=0.5), (v=1.0,d=0.5). Greedy: takes 0.6 (value .606),
        // then one 0.5 does not fit (0.4 left) → welfare .606.
        // Optimal: the two 0.5s → welfare 1.0.
        let inst = single(&[(1.01, 0.6), (1.0, 0.5), (1.0, 0.5)], &[1.0]);
        let greedy = solve_greedy(&inst);
        let (sol, stats) = exact(&inst);
        assert!(stats.complete);
        assert!(sol.welfare > greedy.welfare, "bb {} vs greedy {}", sol.welfare, greedy.welfare);
        assert_eq!(sol.welfare, Money::from_f64(1.0));
    }

    #[test]
    fn epsilon_stop_returns_near_optimal_quickly() {
        let users: Vec<(f64, f64)> =
            (0..14).map(|i| (1.25 - 0.03 * i as f64, 0.2 + 0.05 * (i % 5) as f64)).collect();
        let inst = single(&users, &[1.1, 0.9]);
        let exact_cfg = BranchBoundConfig::default();
        let (exact, exact_stats) = solve_branch_bound(&inst, exact_cfg, &mut rng());
        let approx_cfg = BranchBoundConfig { epsilon_ppm: 100_000, ..exact_cfg }; // ε = 10%
        let (approx, approx_stats) = solve_branch_bound(&inst, approx_cfg, &mut rng());
        assert!(approx_stats.nodes <= exact_stats.nodes);
        // (1−ε) guarantee relative to the *root bound*, which dominates the optimum.
        let floor = Money::from_micro((exact.welfare.micro() as f64 * 0.9) as i64);
        assert!(approx.welfare >= floor, "approx {} exact {}", approx.welfare, exact.welfare);
    }

    /// A budget-cut search: never over the cap, feasible, at least the
    /// greedy incumbent, and an honest certified bound —
    /// `welfare ≥ bound_ppm·root_bound` (hence `≥ bound_ppm·OPT`, since
    /// `root_bound ≥ OPT`).
    fn check_node_cap<B: Bidder>(inst: &Instance<B>, max_nodes: u64) {
        let cfg = BranchBoundConfig { max_nodes, ..Default::default() };
        let (sol, stats) = solve_branch_bound(inst, cfg, &mut rng());
        assert!(stats.nodes <= max_nodes);
        assert!(!stats.complete, "a {max_nodes}-node budget must exhaust on this instance");
        assert!(sol.is_feasible(inst));
        assert!(sol.welfare >= solve_greedy(inst).welfare);
        let floor = Money::from_micro(
            (stats.root_bound.micro() as i128 * stats.bound_ppm as i128 / PPM as i128) as i64,
        );
        assert!(sol.welfare >= floor, "welfare {} floor {}", sol.welfare, floor);
        assert!(stats.bound_ppm < PPM);
    }

    #[test]
    fn node_cap_truncates_but_stays_feasible() {
        let users: Vec<(f64, f64)> =
            (0..18).map(|i| (1.2 - 0.02 * i as f64, 0.15 + 0.04 * (i % 7) as f64)).collect();
        check_node_cap(&single(&users, &[1.0, 1.0, 0.8]), 50);
        let bids: Vec<BundleBid> = (0..16)
            .map(|i| {
                bid(
                    i,
                    &[
                        (3 + (i as u64 % 4), 3.4 - 0.05 * i as f64),
                        (1 + (i as u64 % 2), 1.3 - 0.02 * i as f64),
                    ],
                )
            })
            .collect();
        check_node_cap(&BundleInstance::new(&bids, &[9, 7, 8]), 40);
    }

    fn check_deterministic<B: Bidder>(inst: &Instance<B>) {
        let cfg = BranchBoundConfig { shuffle_providers: true, ..Default::default() };
        let (a, sa) = solve_branch_bound(inst, cfg, &mut StdRng::seed_from_u64(7));
        let (b, sb) = solve_branch_bound(inst, cfg, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn deterministic_for_equal_seeds_even_with_shuffling() {
        let users: Vec<(f64, f64)> =
            (0..12).map(|i| (1.2 - 0.03 * i as f64, 0.2 + 0.06 * (i % 4) as f64)).collect();
        check_deterministic(&single(&users, &[0.9, 0.7]));
        let bids: Vec<BundleBid> = (0..10)
            .map(|i| bid(i, &[(2 + (i as u64 % 3), 2.5 - 0.07 * i as f64), (1, 0.9)]))
            .collect();
        check_deterministic(&BundleInstance::new(&bids, &[5, 4]));
    }

    #[test]
    fn root_bound_dominates_solution() {
        let users: Vec<(f64, f64)> = (0..8).map(|i| (1.0 + 0.01 * i as f64, 0.3)).collect();
        let inst = single(&users, &[1.0]);
        let (sol, stats) = exact(&inst);
        assert!(stats.root_bound >= sol.welfare);
    }

    /// The first bidder (densest) fits nowhere; the second fits alone.
    fn check_oversized_first<B: Bidder>(inst: &Instance<B>) {
        for sol in [exact(inst).0, solve_greedy(inst)] {
            assert_eq!(sol.choice, vec![None, Some((0, 0))]);
        }
    }

    #[test]
    fn oversized_bids_are_never_placed() {
        check_oversized_first(&single(&[(2.0, 5.0), (1.0, 0.5)], &[1.0]));
        check_oversized_first(&single(&[(1.0, 5.0), (0.9, 0.5)], &[1.0]));
        // User 0 sorts first (density 20/9) and cannot fit.
        check_oversized_first(&BundleInstance::new(
            &[bid(0, &[(9, 20.0)]), bid(1, &[(2, 1.0)])],
            &[3],
        ));
    }

    #[test]
    fn xor_awards_at_most_one_option() {
        let inst = BundleInstance::new(&[bid(0, &[(1, 1.0), (2, 1.9), (3, 2.7)])], &[6]);
        let (sol, _) = exact(&inst);
        // Plenty of capacity for all three, but XOR allows only the best.
        assert_eq!(sol.choice[0], Some((2, 0)));
        assert_eq!(sol.welfare, Money::from_f64(2.7));
    }

    #[test]
    fn greedy_prefers_high_density_items() {
        // Capacity fits only one of the two items; the denser one wins.
        let sol = solve_greedy(&single(&[(2.0, 0.5), (1.0, 0.5)], &[0.5]));
        assert_eq!(sol.choice, vec![Some((0, 0)), None]); // item order is density-sorted
        assert_eq!(sol.welfare, Money::from_f64(1.0));
    }

    #[test]
    fn greedy_best_fit_keeps_room_for_large_items() {
        // Item A (0.4) could go to either provider (caps 0.5, 1.0); best
        // fit picks the 0.5 one, leaving 1.0 free for item B (0.9).
        let sol = solve_greedy(&single(&[(2.0, 0.4), (1.9, 0.9)], &[0.5, 1.0]));
        assert_eq!(sol.choice, vec![Some((0, 0)), Some((0, 1))]);
    }

    #[test]
    fn greedy_tie_between_providers_breaks_by_index() {
        let inst = single(&[(1.0, 0.5)], &[1.0, 1.0]);
        assert_eq!(solve_greedy(&inst).choice, vec![Some((0, 0))]);
        assert_eq!(inst.bidders[0].user, UserId(0));
    }

    fn check_greedy_consistent<B: Bidder>(inst: &Instance<B>) {
        let sol = solve_greedy(inst);
        assert!(sol.is_feasible(inst));
        assert_eq!(sol.compute_welfare(inst), sol.welfare);
        assert!(sol.welfare.is_positive());
    }

    #[test]
    fn greedy_is_feasible_and_welfare_consistent() {
        check_greedy_consistent(&single(
            &[(1.2, 0.7), (1.1, 0.5), (0.9, 0.8), (0.8, 0.2)],
            &[1.0, 0.9],
        ));
        check_greedy_consistent(&BundleInstance::new(
            &[bid(0, &[(3, 3.3), (1, 1.2)]), bid(1, &[(2, 2.5)]), bid(2, &[(4, 3.9), (2, 2.1)])],
            &[4, 3],
        ));
    }
}
