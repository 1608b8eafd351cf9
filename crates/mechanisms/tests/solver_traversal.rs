//! Pins the winner-determination traversal node for node.
//!
//! Every row runs one instance through the branch-and-bound, the greedy
//! incumbent and (when small enough) the exhaustive reference, and
//! compares a one-line rendering of the results against a recorded
//! value: the chosen `(option, provider)` per bidder, the welfare in
//! micro-units, and for the search the node count, completion flag and
//! root bound. The instances are every hand-written instance of the
//! solver unit tests, single-good and XOR-bundle, plus
//! `standard_vcg`-shaped instances (n = 12 users, m = 5 providers) at
//! ε = 10,000 ppm with the default node budget, and node budgets of 1,
//! 40 and 50. A change to the search order, the bound, the RNG draws or
//! a tie-break moves some row here.
//!
//! On a mismatch the test prints every differing row in the table's own
//! syntax, so an intended traversal change is re-recorded by pasting.

use dauctioneer_mechanisms::combinatorial::DEFAULT_NODE_BUDGET;
use dauctioneer_mechanisms::solver::{
    solve_branch_bound, solve_exhaustive, solve_greedy, Bidder, BranchBoundConfig, BundleInstance,
    Instance, Solution,
};
use dauctioneer_mechanisms::{CombinatorialAuction, CombinatorialAuctionConfig};
use dauctioneer_types::{BidVector, BundleBid, BundleOption, Bw, Money, UserBid, UserId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Instances with at most this many bidders and enumeration leaves also
/// run the exhaustive reference.
const EXHAUSTIVE_BIDDERS: usize = 8;
const EXHAUSTIVE_LEAVES: u64 = 1 << 16;

enum Inst {
    Single(Instance),
    Bundle(BundleInstance),
}

fn render(solution: &Solution) -> String {
    let picks: Vec<String> = solution
        .choice
        .iter()
        .map(|c| c.map_or_else(|| "-".to_string(), |(o, j)| format!("{o}@{j}")))
        .collect();
    format!("w={} [{}]", solution.welfare.micro(), picks.join(" "))
}

/// Run all three solvers and render their results on one line.
fn run<B: Bidder>(inst: &Instance<B>, cfg: BranchBoundConfig, seed: u64) -> String {
    let (bb, stats) = solve_branch_bound(inst, cfg, &mut StdRng::seed_from_u64(seed));
    let m = inst.capacities.len();
    let leaves = inst
        .bidders
        .iter()
        .try_fold(1u64, |acc, b| acc.checked_mul((b.options().len() * m) as u64 + 1));
    let small = inst.len() <= EXHAUSTIVE_BIDDERS && leaves.is_some_and(|l| l <= EXHAUSTIVE_LEAVES);
    format!(
        "bb n={} c={} rb={} {} | greedy {} | exh {}",
        stats.nodes,
        stats.complete as u8,
        stats.root_bound.micro(),
        render(&bb),
        render(&solve_greedy(inst)),
        if small { render(&solve_exhaustive(inst)) } else { "skipped".to_string() }
    )
}

fn single(users: &[(f64, f64)], caps: &[f64]) -> Inst {
    Inst::Single(Instance::from_bids(&bids_of(users), &bw(caps)))
}

fn bids_of(users: &[(f64, f64)]) -> BidVector {
    let mut b = BidVector::builder(users.len(), 0);
    for (i, (v, d)) in users.iter().enumerate() {
        b = b.user_bid(i, UserBid::new(Money::from_f64(*v), Bw::from_f64(*d)));
    }
    b.build()
}

fn bw(caps: &[f64]) -> Vec<Bw> {
    caps.iter().map(|c| Bw::from_f64(*c)).collect()
}

fn bid(user: u32, options: &[(u64, f64)]) -> BundleBid {
    BundleBid::new(
        UserId(user),
        options.iter().map(|(u, p)| BundleOption::new(*u, Money::from_f64(*p))).collect(),
    )
}

fn bundle(bids: Vec<BundleBid>, caps: &[u64]) -> Inst {
    Inst::Bundle(BundleInstance::new(&bids, caps))
}

/// `standard_vcg`'s shape: 12 users with valuations in [0.75, 1.25] and
/// demands up to one unit against five providers of 0.96 each (the
/// epoch supply for 12 expected bids).
fn vcg_users(seed: u64) -> Vec<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..12).map(|_| (rng.gen_range(0.75..1.25), rng.gen_range(0.05..1.0))).collect()
}

const VCG_CAPS: [f64; 5] = [0.96; 5];

fn vcg_bundle(seed: u64) -> Inst {
    let auction = CombinatorialAuction::new(CombinatorialAuctionConfig::new(bw(&VCG_CAPS)));
    let bids = auction.lift_bids(&bids_of(&vcg_users(seed)));
    bundle(bids, &auction.unit_capacities())
}

fn exact() -> BranchBoundConfig {
    BranchBoundConfig::default()
}

fn budget(max_nodes: u64) -> BranchBoundConfig {
    BranchBoundConfig { max_nodes, ..Default::default() }
}

fn vcg_config() -> BranchBoundConfig {
    BranchBoundConfig {
        epsilon_ppm: 10_000,
        max_nodes: DEFAULT_NODE_BUDGET,
        shuffle_providers: true,
    }
}

/// Every row: name, instance, configuration, RNG seed.
fn cases() -> Vec<(&'static str, Inst, BranchBoundConfig, u64)> {
    let eps_users: Vec<(f64, f64)> =
        (0..14).map(|i| (1.25 - 0.03 * i as f64, 0.2 + 0.05 * (i % 5) as f64)).collect();
    let cap_users: Vec<(f64, f64)> =
        (0..18).map(|i| (1.2 - 0.02 * i as f64, 0.15 + 0.04 * (i % 7) as f64)).collect();
    let seed_users: Vec<(f64, f64)> =
        (0..12).map(|i| (1.2 - 0.03 * i as f64, 0.2 + 0.06 * (i % 4) as f64)).collect();
    let root_users: Vec<(f64, f64)> = (0..8).map(|i| (1.0 + 0.01 * i as f64, 0.3)).collect();
    let flat_users: Vec<(f64, f64)> = (0..13).map(|_| (1.0, 0.1)).collect();
    let budget_bids = || -> Vec<BundleBid> {
        (0..16)
            .map(|i| {
                bid(
                    i,
                    &[
                        (3 + (i as u64 % 4), 3.4 - 0.05 * i as f64),
                        (1 + (i as u64 % 2), 1.3 - 0.02 * i as f64),
                    ],
                )
            })
            .collect()
    };
    let seed_bids: Vec<BundleBid> =
        (0..10).map(|i| bid(i, &[(2 + (i as u64 % 3), 2.5 - 0.07 * i as f64), (1, 0.9)])).collect();
    let vcg2 = vcg_users(2);
    let vcg2_inst = Instance::from_bids(&bids_of(&vcg2), &bw(&VCG_CAPS));
    let vcg2_top = vcg2_inst.bidders[0].user;

    vec![
        // Single-good: the branch-and-bound unit tests.
        ("s.empty", single(&[], &[1.0]), exact(), 42),
        ("s.beats_greedy", single(&[(1.01, 0.6), (1.0, 0.5), (1.0, 0.5)], &[1.0]), exact(), 42),
        ("s.exh1", single(&[(1.2, 0.3), (1.1, 0.5), (0.9, 0.7), (0.8, 0.4)], &[1.0]), exact(), 42),
        (
            "s.exh2",
            single(&[(1.2, 0.3), (1.1, 0.5), (0.9, 0.7), (0.8, 0.4)], &[0.6, 0.6]),
            exact(),
            42,
        ),
        ("s.exh3", single(&[(1.0, 0.9), (1.0, 0.9), (1.0, 0.9)], &[1.0, 1.0]), exact(), 42),
        (
            "s.exh4",
            single(&[(1.25, 0.1), (0.76, 1.0), (1.0, 0.55), (0.9, 0.45), (0.8, 0.3)], &[0.7, 0.8]),
            exact(),
            42,
        ),
        ("s.eps_exact", single(&eps_users, &[1.1, 0.9]), exact(), 42),
        (
            "s.eps_10pct",
            single(&eps_users, &[1.1, 0.9]),
            BranchBoundConfig { epsilon_ppm: 100_000, ..exact() },
            42,
        ),
        ("s.cap50", single(&cap_users, &[1.0, 1.0, 0.8]), budget(50), 42),
        ("s.cap40", single(&cap_users, &[1.0, 1.0, 0.8]), budget(40), 42),
        ("s.cap1", single(&cap_users, &[1.0, 1.0, 0.8]), budget(1), 42),
        ("s.cap_exact", single(&cap_users, &[1.0, 1.0, 0.8]), exact(), 42),
        ("s.seed7", single(&seed_users, &[0.9, 0.7]), exact(), 7),
        (
            "s.seed7_unshuffled",
            single(&seed_users, &[0.9, 0.7]),
            BranchBoundConfig { shuffle_providers: false, ..exact() },
            7,
        ),
        ("s.root_bound", single(&root_users, &[1.0]), exact(), 42),
        ("s.oversized", single(&[(2.0, 5.0), (1.0, 0.5)], &[1.0]), exact(), 42),
        // Single-good: the greedy unit tests.
        ("s.density", single(&[(2.0, 0.5), (1.0, 0.5)], &[0.5]), exact(), 42),
        ("s.best_fit", single(&[(2.0, 0.4), (1.9, 0.9)], &[0.5, 1.0]), exact(), 42),
        ("s.oversized_first", single(&[(1.0, 5.0), (0.9, 0.5)], &[1.0]), exact(), 42),
        (
            "s.feasible",
            single(&[(1.2, 0.7), (1.1, 0.5), (0.9, 0.8), (0.8, 0.2)], &[1.0, 0.9]),
            exact(),
            42,
        ),
        ("s.tie", single(&[(1.0, 0.5)], &[1.0, 1.0]), exact(), 42),
        // Single-good: the exhaustive unit tests.
        ("s.two_knapsacks", single(&[(1.0, 0.8), (0.9, 0.8)], &[0.8, 0.8]), exact(), 42),
        ("s.flat13", single(&flat_users, &[1.0]), exact(), 42),
        // Single-good: the instance and solution unit tests.
        ("s.order", single(&[(1.0, 0.5), (1.2, 0.3), (1.0, 0.2)], &[1.0]), exact(), 42),
        ("s.bound", single(&[(1.0, 0.6), (0.8, 0.6)], &[0.6, 0.6]), exact(), 42),
        ("s.welfare", single(&[(1.0, 0.5), (0.9, 0.6)], &[0.5, 0.6]), exact(), 42),
        // Single-good: standard_vcg-shaped.
        ("s.vcg0", single(&vcg_users(0), &VCG_CAPS), vcg_config(), 42),
        ("s.vcg1", single(&vcg_users(1), &VCG_CAPS), vcg_config(), 43),
        ("s.vcg2", single(&vcg2, &VCG_CAPS), vcg_config(), 44),
        ("s.vcg2_without_top", Inst::Single(vcg2_inst.without_user(vcg2_top)), vcg_config(), 45),
        ("s.vcg2_exact", single(&vcg2, &VCG_CAPS), exact(), 44),
        ("s.vcg2_cap1", single(&vcg2, &VCG_CAPS), budget(1), 44),
        ("s.vcg2_cap40", single(&vcg2, &VCG_CAPS), budget(40), 44),
        ("s.vcg2_cap50", single(&vcg2, &VCG_CAPS), budget(50), 44),
        // Bundle: the XOR-bundle unit tests.
        (
            "b.order",
            bundle(
                vec![
                    bid(0, &[(5, 6.0)]),
                    bid(1, &[(2, 2.0), (4, 3.0)]),
                    bid(2, &[(2, 3.0), (6, 4.0)]),
                ],
                &[10],
            ),
            exact(),
            42,
        ),
        (
            "b.invalid",
            bundle(vec![bid(0, &[(2, 1.0)]), bid(1, &[]), bid(2, &[(0, 1.0)])], &[4]),
            exact(),
            42,
        ),
        ("b.bound_big", bundle(vec![bid(0, &[(1, 10.0), (5, 30.0)])], &[5]), exact(), 42),
        ("b.bound_ceil", bundle(vec![bid(0, &[(3, 1.0)])], &[3]), exact(), 42),
        ("b.empty", bundle(vec![], &[4]), exact(), 42),
        (
            "b.greedy",
            bundle(
                vec![
                    bid(0, &[(3, 3.3), (1, 1.2)]),
                    bid(1, &[(2, 2.5)]),
                    bid(2, &[(4, 3.9), (2, 2.1)]),
                ],
                &[4, 3],
            ),
            exact(),
            42,
        ),
        ("b.xor", bundle(vec![bid(0, &[(1, 1.0), (2, 1.9), (3, 2.7)])], &[6]), exact(), 42),
        (
            "b.exh1",
            bundle(vec![bid(0, &[(3, 3.0)]), bid(1, &[(4, 4.4), (1, 1.2)])], &[4]),
            exact(),
            42,
        ),
        (
            "b.exh2",
            bundle(
                vec![
                    bid(0, &[(2, 2.6), (4, 4.0)]),
                    bid(1, &[(3, 3.3)]),
                    bid(2, &[(1, 1.4), (2, 2.2)]),
                ],
                &[3, 3],
            ),
            exact(),
            42,
        ),
        (
            "b.exh3",
            bundle(vec![bid(0, &[(5, 5.5)]), bid(1, &[(5, 5.4)]), bid(2, &[(5, 5.3)])], &[5, 5]),
            exact(),
            42,
        ),
        (
            "b.exh4",
            bundle(
                vec![
                    bid(0, &[(1, 1.9)]),
                    bid(1, &[(2, 2.8), (1, 1.1)]),
                    bid(2, &[(4, 4.5), (2, 2.0)]),
                    bid(3, &[(3, 2.9)]),
                ],
                &[4, 2],
            ),
            exact(),
            42,
        ),
        ("b.budget40", bundle(budget_bids(), &[9, 7, 8]), budget(40), 42),
        ("b.budget50", bundle(budget_bids(), &[9, 7, 8]), budget(50), 42),
        ("b.budget1", bundle(budget_bids(), &[9, 7, 8]), budget(1), 42),
        ("b.budget_default", bundle(budget_bids(), &[9, 7, 8]), vcg_config(), 42),
        ("b.seed7", bundle(seed_bids.clone(), &[5, 4]), exact(), 7),
        (
            "b.seed7_unshuffled",
            bundle(seed_bids, &[5, 4]),
            BranchBoundConfig { shuffle_providers: false, ..exact() },
            7,
        ),
        ("b.oversized", bundle(vec![bid(0, &[(9, 20.0)]), bid(1, &[(2, 1.0)])], &[3]), exact(), 42),
        ("b.flat9", bundle((0..9).map(|i| bid(i, &[(1, 1.0)])).collect(), &[9]), exact(), 42),
        // Bundle: standard_vcg-shaped, lifted by the combinatorial auction.
        ("b.vcg0", vcg_bundle(0), vcg_config(), 42),
        ("b.vcg1", vcg_bundle(1), vcg_config(), 43),
        ("b.vcg2", vcg_bundle(2), vcg_config(), 44),
        ("b.vcg2_exact", vcg_bundle(2), exact(), 44),
        ("b.vcg2_cap1", vcg_bundle(2), budget(1), 44),
        ("b.vcg2_cap40", vcg_bundle(2), budget(40), 44),
        ("b.vcg2_cap50", vcg_bundle(2), budget(50), 44),
    ]
}

/// Recorded results, one per row of [`cases`].
#[rustfmt::skip]
const EXPECTED: &[(&str, &str)] = &[
    ("s.empty", "bb n=0 c=1 rb=0 w=0 [] | greedy w=0 [] | exh w=0 []"),
    ("s.beats_greedy", "bb n=9 c=1 rb=1006000 w=1000000 [- 0@0 0@0] | greedy w=606000 [0@0 - -] | exh w=1000000 [- 0@0 0@0]"),
    ("s.exh1", "bb n=13 c=1 rb=1090000 w=990000 [0@0 - 0@0 -] | greedy w=910000 [0@0 0@0 - -] | exh w=990000 [0@0 - 0@0 -]"),
    ("s.exh2", "bb n=12 c=1 rb=1270000 w=910000 [0@0 0@1 - -] | greedy w=910000 [0@0 0@1 - -] | exh w=910000 [0@0 0@1 - -]"),
    ("s.exh3", "bb n=6 c=1 rb=2000000 w=1800000 [0@0 0@1 -] | greedy w=1800000 [0@0 0@1 -] | exh w=1800000 [0@0 0@1 -]"),
    ("s.exh4", "bb n=48 c=1 rb=1396000 w=1320000 [0@0 0@0 0@1 0@1 -] | greedy w=1320000 [0@0 0@0 0@1 0@1 -] | exh w=1320000 [0@0 0@0 0@1 0@1 -]"),
    ("s.eps_exact", "bb n=195 c=1 rb=2309500 w=2302000 [0@0 0@1 0@0 0@1 0@0 0@0 - 0@1 - - - - - -] | greedy w=1990000 [0@1 0@1 0@1 0@0 0@0 0@0 - - - - - - - -] | exh skipped"),
    ("s.eps_10pct", "bb n=15 c=1 rb=2309500 w=2257500 [0@0 0@1 0@0 0@0 0@1 0@0 0@1 - - - - - - -] | greedy w=1990000 [0@1 0@1 0@1 0@0 0@0 0@0 - - - - - - - -] | exh skipped"),
    ("s.cap50", "bb n=50 c=0 rb=3062000 w=2929800 [0@1 0@0 0@0 0@2 0@2 0@0 0@1 0@0 0@1 - 0@1 - - - - 0@2 - -] | greedy w=2861400 [0@2 0@2 0@2 0@0 0@0 0@0 0@1 0@2 0@1 0@1 - - - - 0@1 - - -] | exh skipped"),
    ("s.cap40", "bb n=40 c=0 rb=3062000 w=2929800 [0@1 0@0 0@0 0@2 0@2 0@0 0@1 0@0 0@1 - 0@1 - - - - 0@2 - -] | greedy w=2861400 [0@2 0@2 0@2 0@0 0@0 0@0 0@1 0@2 0@1 0@1 - - - - 0@1 - - -] | exh skipped"),
    ("s.cap1", "bb n=1 c=0 rb=3062000 w=2861400 [0@2 0@2 0@2 0@0 0@0 0@0 0@1 0@2 0@1 0@1 - - - - 0@1 - - -] | greedy w=2861400 [0@2 0@2 0@2 0@0 0@0 0@0 0@1 0@2 0@1 0@1 - - - - 0@1 - - -] | exh skipped"),
    ("s.cap_exact", "bb n=72167 c=1 rb=3062000 w=3032400 [0@1 0@0 0@0 0@2 0@1 0@0 0@1 0@2 0@2 0@0 - - - - 0@1 0@2 - -] | greedy w=2861400 [0@2 0@2 0@2 0@0 0@0 0@0 0@1 0@2 0@1 0@1 - - - - 0@1 - - -] | exh skipped"),
    ("s.seed7", "bb n=773 c=1 rb=1798800 w=1740000 [- 0@0 0@1 0@1 - 0@0 - 0@0 - - - -] | greedy w=1738800 [0@1 0@1 0@0 0@0 0@0 - - - 0@1 - - -] | exh skipped"),
    ("s.seed7_unshuffled", "bb n=770 c=1 rb=1798800 w=1740000 [- 0@0 0@1 0@0 - 0@0 - 0@1 - - - -] | greedy w=1738800 [0@1 0@1 0@0 0@0 0@0 - - - 0@1 - - -] | exh skipped"),
    ("s.root_bound", "bb n=181 c=1 rb=1058000 w=954000 [0@0 0@0 0@0 - - - - -] | greedy w=954000 [0@0 0@0 0@0 - - - - -] | exh w=954000 [0@0 0@0 0@0 - - - - -]"),
    ("s.oversized", "bb n=2 c=1 rb=2000000 w=500000 [- 0@0] | greedy w=500000 [- 0@0] | exh w=500000 [- 0@0]"),
    ("s.density", "bb n=0 c=1 rb=1000000 w=1000000 [0@0 -] | greedy w=1000000 [0@0 -] | exh w=1000000 [0@0 -]"),
    ("s.best_fit", "bb n=0 c=1 rb=2510000 w=2510000 [0@0 0@1] | greedy w=2510000 [0@0 0@1] | exh w=2510000 [0@0 0@1]"),
    ("s.oversized_first", "bb n=2 c=1 rb=1000000 w=450000 [- 0@0] | greedy w=450000 [- 0@0] | exh w=450000 [- 0@0]"),
    ("s.feasible", "bb n=14 c=1 rb=2020000 w=1720000 [0@0 - 0@1 0@0] | greedy w=1550000 [0@1 0@0 - 0@1] | exh w=1720000 [0@0 - 0@1 0@0]"),
    ("s.tie", "bb n=0 c=1 rb=500000 w=500000 [0@0] | greedy w=500000 [0@0] | exh w=500000 [0@0]"),
    ("s.two_knapsacks", "bb n=0 c=1 rb=1520000 w=1520000 [0@0 0@1] | greedy w=1520000 [0@0 0@1] | exh w=1520000 [0@0 0@1]"),
    ("s.flat13", "bb n=0 c=1 rb=1000000 w=1000000 [0@0 0@0 0@0 0@0 0@0 0@0 0@0 0@0 0@0 0@0 - - -] | greedy w=1000000 [0@0 0@0 0@0 0@0 0@0 0@0 0@0 0@0 0@0 0@0 - - -] | exh skipped"),
    ("s.order", "bb n=0 c=1 rb=1060000 w=1060000 [0@0 0@0 0@0] | greedy w=1060000 [0@0 0@0 0@0] | exh w=1060000 [0@0 0@0 0@0]"),
    ("s.bound", "bb n=0 c=1 rb=1080000 w=1080000 [0@0 0@1] | greedy w=1080000 [0@0 0@1] | exh w=1080000 [0@0 0@1]"),
    ("s.welfare", "bb n=0 c=1 rb=1040000 w=1040000 [0@0 0@1] | greedy w=1040000 [0@0 0@1] | exh w=1040000 [0@0 0@1]"),
    ("s.vcg0", "bb n=0 c=1 rb=3124919 w=3124919 [0@0 0@1 0@0 0@1 0@1 0@2 0@1 0@1 0@2 0@2 0@3 0@3] | greedy w=3124919 [0@0 0@1 0@0 0@1 0@1 0@2 0@1 0@1 0@2 0@2 0@3 0@3] | exh skipped"),
    ("s.vcg1", "bb n=273 c=1 rb=5009448 w=4714923 [0@0 0@1 0@0 0@2 0@3 0@4 - 0@3 - 0@2 0@1 -] | greedy w=4714923 [0@0 0@1 0@0 0@2 0@3 0@4 - 0@3 - 0@2 0@1 -] | exh skipped"),
    ("s.vcg2", "bb n=2421 c=1 rb=5180318 w=4742779 [0@4 - 0@3 0@2 0@2 0@0 0@4 0@1 - - - 0@1] | greedy w=4669958 [0@0 0@1 0@2 0@3 0@3 0@4 0@0 - - - - 0@1] | exh skipped"),
    ("s.vcg2_without_top", "bb n=987 c=1 rb=5063580 w=4594747 [- 0@4 0@1 0@1 0@0 - 0@2 - 0@3 - 0@2] | greedy w=4073764 [0@0 0@1 0@2 0@2 0@3 0@4 - - - - 0@0] | exh skipped"),
    ("s.vcg2_exact", "bb n=2421 c=1 rb=5180318 w=4742779 [0@4 - 0@3 0@2 0@2 0@0 0@4 0@1 - - - 0@1] | greedy w=4669958 [0@0 0@1 0@2 0@3 0@3 0@4 0@0 - - - - 0@1] | exh skipped"),
    ("s.vcg2_cap1", "bb n=1 c=0 rb=5180318 w=4669958 [0@0 0@1 0@2 0@3 0@3 0@4 0@0 - - - - 0@1] | greedy w=4669958 [0@0 0@1 0@2 0@3 0@3 0@4 0@0 - - - - 0@1] | exh skipped"),
    ("s.vcg2_cap40", "bb n=40 c=0 rb=5180318 w=4669958 [0@0 0@1 0@2 0@3 0@3 0@4 0@0 - - - - 0@1] | greedy w=4669958 [0@0 0@1 0@2 0@3 0@3 0@4 0@0 - - - - 0@1] | exh skipped"),
    ("s.vcg2_cap50", "bb n=50 c=0 rb=5180318 w=4669958 [0@0 0@1 0@2 0@3 0@3 0@4 0@0 - - - - 0@1] | greedy w=4669958 [0@0 0@1 0@2 0@3 0@3 0@4 0@0 - - - - 0@1] | exh skipped"),
    ("b.order", "bb n=8 c=1 rb=13800000 w=11000000 [0@0 0@0 0@0] | greedy w=7000000 [1@0 - 1@0] | exh w=11000000 [0@0 0@0 0@0]"),
    ("b.invalid", "bb n=0 c=1 rb=1000000 w=1000000 [0@0] | greedy w=1000000 [0@0] | exh w=1000000 [0@0]"),
    ("b.bound_big", "bb n=4 c=1 rb=50000000 w=30000000 [1@0] | greedy w=30000000 [1@0] | exh w=30000000 [1@0]"),
    ("b.bound_ceil", "bb n=0 c=1 rb=1000000 w=1000000 [0@0] | greedy w=1000000 [0@0] | exh w=1000000 [0@0]"),
    ("b.empty", "bb n=0 c=1 rb=0 w=0 [] | greedy w=0 [] | exh w=0 []"),
    ("b.greedy", "bb n=14 c=1 rb=8200000 w=7900000 [0@0 0@1 1@0] | greedy w=5800000 [0@1 0@0 -] | exh w=7900000 [0@0 0@1 1@0]"),
    ("b.xor", "bb n=5 c=1 rb=3000000 w=2700000 [2@0] | greedy w=2700000 [2@0] | exh w=2700000 [2@0]"),
    ("b.exh1", "bb n=4 c=1 rb=4800000 w=4400000 [0@0 -] | greedy w=4400000 [0@0 -] | exh w=4400000 [0@0 -]"),
    ("b.exh2", "bb n=14 c=1 rb=8000000 w=7300000 [0@0 0@0 0@1] | greedy w=4800000 [1@0 0@1 -] | exh w=7300000 [0@0 0@0 0@1]"),
    ("b.exh3", "bb n=0 c=1 rb=10900000 w=10900000 [0@0 0@1 -] | greedy w=10900000 [0@0 0@1 -] | exh w=10900000 [0@0 0@1 -]"),
    ("b.exh4", "bb n=24 c=1 rb=8075000 w=7600000 [0@0 0@1 - 0@0] | greedy w=6700000 [0@1 0@0 1@0 -] | exh w=7600000 [0@0 0@1 - 0@0]"),
    ("b.budget40", "bb n=40 c=0 rb=28680000 w=20920000 [0@1 0@2 0@2 0@0 0@0 1@0 0@1 1@1 - - - - - - - -] | greedy w=20920000 [0@1 0@2 0@2 0@0 0@0 1@0 0@1 1@1 - - - - - - - -] | exh skipped"),
    ("b.budget50", "bb n=50 c=0 rb=28680000 w=20920000 [0@1 0@2 0@2 0@0 0@0 1@0 0@1 1@1 - - - - - - - -] | greedy w=20920000 [0@1 0@2 0@2 0@0 0@0 1@0 0@1 1@1 - - - - - - - -] | exh skipped"),
    ("b.budget1", "bb n=1 c=0 rb=28680000 w=20920000 [0@1 0@2 0@2 0@0 0@0 1@0 0@1 1@1 - - - - - - - -] | greedy w=20920000 [0@1 0@2 0@2 0@0 0@0 1@0 0@1 1@1 - - - - - - - -] | exh skipped"),
    ("b.budget_default", "bb n=183710 c=1 rb=28680000 w=23460000 [0@1 1@0 0@0 1@2 0@2 1@0 0@1 1@1 0@2 0@0 - - - - - -] | greedy w=20920000 [0@1 0@2 0@2 0@0 0@0 1@0 0@1 1@1 - - - - - - - -] | exh skipped"),
    ("b.seed7", "bb n=0 c=1 rb=9640000 w=9640000 [0@1 0@1 0@0 0@0 1@0 - - - - -] | greedy w=9640000 [0@1 0@1 0@0 0@0 1@0 - - - - -] | exh skipped"),
    ("b.seed7_unshuffled", "bb n=0 c=1 rb=9640000 w=9640000 [0@1 0@1 0@0 0@0 1@0 - - - - -] | greedy w=9640000 [0@1 0@1 0@0 0@0 1@0 - - - - -] | exh skipped"),
    ("b.oversized", "bb n=2 c=1 rb=6666667 w=1000000 [- 0@0] | greedy w=1000000 [- 0@0] | exh w=1000000 [- 0@0]"),
    ("b.flat9", "bb n=0 c=1 rb=9000000 w=9000000 [0@0 0@0 0@0 0@0 0@0 0@0 0@0 0@0 0@0] | greedy w=9000000 [0@0 0@0 0@0 0@0 0@0 0@0 0@0 0@0 0@0] | exh skipped"),
    ("b.vcg0", "bb n=3 c=1 rb=2788468 w=2445836 [1@0 0@1 0@2 0@0 0@3 0@1 0@4 0@2 0@3 0@4 - -] | greedy w=2445836 [1@0 0@1 0@2 0@0 0@3 0@1 0@4 0@2 0@3 0@4 - -] | exh skipped"),
    ("b.vcg1", "bb n=121 c=1 rb=3522430 w=3329190 [0@0 0@1 0@2 0@3 1@4 1@1 - - 1@2 0@4 - -] | greedy w=3329190 [0@0 0@1 0@2 0@3 1@4 1@1 - - 1@2 0@4 - -] | exh skipped"),
    ("b.vcg2", "bb n=143 c=1 rb=3584466 w=3389682 [0@4 1@0 0@3 0@2 - - 0@1 1@4 - - - 0@0] | greedy w=3308919 [0@0 1@1 0@2 0@3 1@4 - - 1@0 - 1@1 - 0@4] | exh skipped"),
    ("b.vcg2_exact", "bb n=143 c=1 rb=3584466 w=3389682 [0@4 1@0 0@3 0@2 - - 0@1 1@4 - - - 0@0] | greedy w=3308919 [0@0 1@1 0@2 0@3 1@4 - - 1@0 - 1@1 - 0@4] | exh skipped"),
    ("b.vcg2_cap1", "bb n=1 c=0 rb=3584466 w=3308919 [0@0 1@1 0@2 0@3 1@4 - - 1@0 - 1@1 - 0@4] | greedy w=3308919 [0@0 1@1 0@2 0@3 1@4 - - 1@0 - 1@1 - 0@4] | exh skipped"),
    ("b.vcg2_cap40", "bb n=40 c=0 rb=3584466 w=3376676 [0@4 1@0 0@3 0@2 - - 0@1 1@4 - 1@0 - -] | greedy w=3308919 [0@0 1@1 0@2 0@3 1@4 - - 1@0 - 1@1 - 0@4] | exh skipped"),
    ("b.vcg2_cap50", "bb n=50 c=0 rb=3584466 w=3389682 [0@4 1@0 0@3 0@2 - - 0@1 1@4 - - - 0@0] | greedy w=3308919 [0@0 1@1 0@2 0@3 1@4 - - 1@0 - 1@1 - 0@4] | exh skipped"),
];

#[test]
fn traversal_matches_the_recorded_table() {
    let rows = cases();
    let mut diffs = Vec::new();
    for (name, inst, cfg, seed) in &rows {
        let got = match inst {
            Inst::Single(i) => run(i, *cfg, *seed),
            Inst::Bundle(i) => run(i, *cfg, *seed),
        };
        if EXPECTED.iter().find(|(n, _)| n == name).map(|(_, want)| *want) != Some(got.as_str()) {
            diffs.push(format!("    (\"{name}\", \"{got}\"),"));
        }
    }
    assert!(diffs.is_empty(), "traversal changed:\n{}", diffs.join("\n"));
    assert_eq!(rows.len(), EXPECTED.len(), "one recorded result per case");
}
