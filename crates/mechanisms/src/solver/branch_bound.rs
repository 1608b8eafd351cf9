//! Branch-and-bound search with a (1−ε) early stop and a node budget.
//!
//! This reproduces the computational profile of Zhang et al.'s randomized
//! (1−ε)-optimal mechanism (the paper's reference \[18\]): an exact search
//! whose running time explodes with the feasible-allocation space, tamed by
//! an ε knob that stops as soon as the incumbent provably reaches a (1−ε)
//! fraction of the optimum. Provider branch orders may be shuffled from the
//! shared coin — the "randomized auction" aspect of \[18\] — but the RNG
//! is drawn only before the search and the budget counts **nodes, never
//! wall-clock**, so every replica and every journal recovery replay
//! explores identically and stops at the same node.

use dauctioneer_types::Money;
use rand::seq::SliceRandom;
use rand::RngCore;

use super::{solve_greedy, Bidder, Instance, Solution};

/// Parts-per-million denominator for the ε knob.
pub const PPM: u64 = 1_000_000;

/// Tuning for [`solve_branch_bound`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchBoundConfig {
    /// Optimality gap ε in parts per million: the search stops once
    /// `incumbent ≥ (1−ε)·root_bound`. `0` demands the exact optimum.
    pub epsilon_ppm: u32,
    /// Hard cap on explored nodes; the incumbent at the cap is returned
    /// with `stats.complete == false`. The traversal is deterministic, so
    /// every replica stops at the same node.
    pub max_nodes: u64,
    /// Randomize the order in which provider branches are tried, using the
    /// caller's RNG (shared-coin-seeded in distributed runs).
    pub shuffle_providers: bool,
}

impl Default for BranchBoundConfig {
    fn default() -> Self {
        BranchBoundConfig { epsilon_ppm: 0, max_nodes: u64::MAX, shuffle_providers: true }
    }
}

/// Search statistics, reported alongside the solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveStats {
    /// Nodes visited.
    pub nodes: u64,
    /// `true` if the search ran to completion (exact optimum, or proven
    /// (1−ε)-optimal when ε > 0); `false` when the node budget cut it
    /// short and the greedy-seeded incumbent was returned.
    pub complete: bool,
    /// Root fractional bound (upper bound on the optimum).
    pub root_bound: Money,
    /// Certified optimality fraction of the returned solution, in parts
    /// per million: `welfare·PPM / root_bound`, clamped to `PPM`. Since
    /// `root_bound ≥ OPT`, the result achieves at least `bound_ppm / PPM`
    /// of the true optimum — the bound a budgeted search reports.
    pub bound_ppm: u64,
}

struct Search<'a, B> {
    instance: &'a Instance<B>,
    max_nodes: u64,
    /// Provider try-order per bidder depth (possibly shuffled).
    provider_orders: Vec<Vec<usize>>,
    /// Residual capacity per provider and choice per bidder on the path.
    residual: Vec<u64>,
    choice: Vec<Option<(usize, usize)>>,
    incumbent: Solution,
    target: Money,
    nodes: u64,
    stopped: bool,
}

/// Solve the instance. Returns the best assignment found and statistics.
///
/// The RNG is consulted only when `config.shuffle_providers` is set, and
/// only *before* the search begins, so equal seeds yield byte-identical
/// traversals on every replica.
///
/// # Example
///
/// ```
/// use dauctioneer_mechanisms::solver::{solve_branch_bound, BranchBoundConfig, BundleInstance};
/// use dauctioneer_types::{BundleBid, BundleOption, Money, UserId};
/// use rand::{SeedableRng, rngs::StdRng};
///
/// let bids = [
///     BundleBid::new(UserId(0), vec![BundleOption::new(3, Money::from_f64(3.0))]),
///     BundleBid::new(UserId(1), vec![
///         BundleOption::new(4, Money::from_f64(4.4)),
///         BundleOption::new(1, Money::from_f64(1.2)),
///     ]),
/// ];
/// let inst = BundleInstance::new(&bids, &[4]);
/// let (sol, stats) = solve_branch_bound(&inst, BranchBoundConfig::default(),
///                                       &mut StdRng::seed_from_u64(1));
/// assert!(stats.complete);
/// assert_eq!(sol.welfare, Money::from_f64(4.4)); // user 1's full bundle beats 3.0 + 1.2
/// ```
pub fn solve_branch_bound<B: Bidder>(
    instance: &Instance<B>,
    config: BranchBoundConfig,
    rng: &mut dyn RngCore,
) -> (Solution, SolveStats) {
    let pooled: u64 = instance.capacities.iter().sum();
    let root_bound = instance.fractional_bound(0, pooled);

    // ε target: stop once incumbent ≥ (1−ε)·root_bound.
    let eps = config.epsilon_ppm.min(PPM as u32) as u64;
    let target = Money::from_micro(
        ((root_bound.micro() as i128 * (PPM - eps) as i128) / PPM as i128) as i64,
    );

    // Branch order per depth, fixed up front so the traversal depends only
    // on the seed.
    let provider_orders = (0..instance.len())
        .map(|_| {
            let mut order: Vec<usize> = (0..instance.capacities.len()).collect();
            if config.shuffle_providers {
                order.shuffle(rng);
            }
            order
        })
        .collect();

    let mut search = Search {
        instance,
        max_nodes: config.max_nodes,
        provider_orders,
        residual: instance.capacities.clone(),
        choice: vec![None; instance.len()],
        incumbent: solve_greedy(instance),
        target,
        nodes: 0,
        stopped: false,
    };
    // The greedy incumbent may already prove (1−ε)-optimality.
    if search.incumbent.welfare < target {
        search.explore(0, Money::ZERO, pooled);
    }

    let complete = !search.stopped || search.incumbent.welfare >= target;
    let bound_ppm = match root_bound.micro() {
        root if root <= 0 => PPM,
        root => ((search.incumbent.welfare.micro() as i128 * PPM as i128 / root as i128) as u64)
            .min(PPM),
    };
    let stats = SolveStats { nodes: search.nodes, complete, root_bound, bound_ppm };
    (search.incumbent, stats)
}

impl<B: Bidder> Search<'_, B> {
    fn explore(&mut self, depth: usize, value: Money, pooled_residual: u64) {
        if self.stopped {
            return;
        }
        self.nodes += 1;
        if self.nodes >= self.max_nodes {
            self.stopped = true;
            return;
        }
        if depth == self.instance.len() {
            if value > self.incumbent.welfare {
                self.incumbent = Solution { choice: self.choice.clone(), welfare: value };
                self.stopped = value >= self.target;
            }
            return;
        }
        // Prune: even the fractional relaxation of the rest cannot beat
        // the incumbent.
        let bound = value + self.instance.fractional_bound(depth, pooled_residual);
        if bound <= self.incumbent.welfare {
            return;
        }

        let bidder = &self.instance.bidders[depth];
        let order = std::mem::take(&mut self.provider_orders[depth]);
        // Assign-branches first (canonical order makes early assignment
        // the greedy-good choice).
        for (oi, opt) in bidder.options().iter().enumerate() {
            // Symmetry breaking per option: two providers with equal
            // residual lead to isomorphic subtrees; explore only the first.
            let mut tried: Vec<u64> = Vec::with_capacity(order.len());
            for &j in &order {
                let residual = self.residual[j];
                if residual < opt.units || tried.contains(&residual) {
                    continue;
                }
                tried.push(residual);
                self.residual[j] -= opt.units;
                self.choice[depth] = Some((oi, j));
                self.explore(depth + 1, value + opt.price, pooled_residual - opt.units);
                self.choice[depth] = None;
                self.residual[j] += opt.units;
                if self.stopped {
                    return;
                }
            }
        }
        self.provider_orders[depth] = order;
        // Skip-branch: the bidder loses.
        self.explore(depth + 1, value, pooled_residual);
    }
}
