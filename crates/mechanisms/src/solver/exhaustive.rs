//! Exhaustive enumeration — ground truth for small instances, so that
//! property tests can compare the branch-and-bound against the optimum.

use dauctioneer_types::Money;

use super::{Bidder, Instance, Solution};

/// Largest enumeration accepted, in leaves `Π(|optionsᵢ|·m + 1)`: 4¹², as
/// for twelve single-good users on three providers.
pub const MAX_EXHAUSTIVE_LEAVES: u64 = 1 << 24;

/// Find the true optimum by enumerating every `(option × provider |
/// skip)` choice per bidder.
///
/// # Panics
///
/// Panics if the instance has more than [`MAX_EXHAUSTIVE_LEAVES`] leaves.
pub fn solve_exhaustive<B: Bidder>(instance: &Instance<B>) -> Solution {
    let m = instance.capacities.len() as u64;
    let leaves = instance
        .bidders
        .iter()
        .fold(1u64, |acc, b| acc.saturating_mul(b.options().len() as u64 * m + 1));
    assert!(
        leaves <= MAX_EXHAUSTIVE_LEAVES,
        "exhaustive solver limited to {MAX_EXHAUSTIVE_LEAVES} leaves, got {leaves}"
    );
    let mut best = Solution::empty(instance.len());
    let mut residual = instance.capacities.clone();
    let mut choice: Vec<Option<(usize, usize)>> = vec![None; instance.len()];
    recurse(instance, 0, Money::ZERO, &mut residual, &mut choice, &mut best);
    best
}

fn recurse<B: Bidder>(
    instance: &Instance<B>,
    depth: usize,
    value: Money,
    residual: &mut [u64],
    choice: &mut Vec<Option<(usize, usize)>>,
    best: &mut Solution,
) {
    if depth == instance.len() {
        if value > best.welfare {
            *best = Solution { choice: choice.clone(), welfare: value };
        }
        return;
    }
    for (oi, opt) in instance.bidders[depth].options().iter().enumerate() {
        for j in 0..residual.len() {
            if residual[j] >= opt.units {
                residual[j] -= opt.units;
                choice[depth] = Some((oi, j));
                recurse(instance, depth + 1, value + opt.price, residual, choice, best);
                choice[depth] = None;
                residual[j] += opt.units;
            }
        }
    }
    // Skip-branch: the bidder loses.
    recurse(instance, depth + 1, value, residual, choice, best);
}
