//! Property tests for the auction mechanisms: the §3.1 guarantees hold on
//! arbitrary generated workloads, not just hand-picked cases.

use proptest::prelude::*;

use dauctioneer_mechanisms::props::{
    feasibility_violations, find_profitable_lie, rationality_violations,
};
use dauctioneer_mechanisms::solver::{
    solve_branch_bound, solve_exhaustive, solve_greedy, BranchBoundConfig, BundleInstance, Instance,
};
use dauctioneer_mechanisms::{
    CombinatorialAuction, CombinatorialAuctionConfig, DivisibleAuction, DivisibleAuctionConfig,
    DoubleAuction, Mechanism, SharedRng, StandardAuction, StandardAuctionConfig,
};
use dauctioneer_types::{
    BidEntry, BidVector, BundleBid, BundleOption, Bw, Money, ProviderAsk, ProviderId, UserBid,
    UserId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_user_bid() -> impl Strategy<Value = UserBid> {
    (750_000i64..=1_250_000, 1u64..=1_000_000)
        .prop_map(|(v, d)| UserBid::new(Money::from_micro(v), Bw::from_micro(d)))
}

fn arb_entry() -> impl Strategy<Value = BidEntry> {
    prop_oneof![
        1 => Just(BidEntry::Neutral),
        4 => arb_user_bid().prop_map(BidEntry::Valid),
    ]
}

fn arb_ask() -> impl Strategy<Value = ProviderAsk> {
    (1i64..=1_000_000, 100_000u64..=2_000_000)
        .prop_map(|(c, cap)| ProviderAsk::new(Money::from_micro(c), Bw::from_micro(cap)))
}

fn arb_double_auction_bids() -> impl Strategy<Value = BidVector> {
    (proptest::collection::vec(arb_entry(), 1..20), proptest::collection::vec(arb_ask(), 1..8))
        .prop_map(|(users, asks)| BidVector::from_parts(users, asks))
}

fn arb_standard_instance() -> impl Strategy<Value = (BidVector, Vec<Bw>)> {
    (
        proptest::collection::vec(arb_entry(), 1..9),
        proptest::collection::vec(100_000u64..2_000_000, 1..4),
    )
        .prop_map(|(users, caps)| {
            (
                BidVector::from_parts(users, Vec::new()),
                caps.into_iter().map(Bw::from_micro).collect(),
            )
        })
}

fn arb_bundle_option() -> impl Strategy<Value = BundleOption> {
    (1u64..=5, 100_000i64..=5_000_000)
        .prop_map(|(units, price)| BundleOption::new(units, Money::from_micro(price)))
}

fn arb_bundle_instance() -> impl Strategy<Value = BundleInstance> {
    (
        proptest::collection::vec(proptest::collection::vec(arb_bundle_option(), 1..3), 1..6),
        proptest::collection::vec(1u64..=8, 1..3),
    )
        .prop_map(|(option_sets, caps)| {
            let bids: Vec<BundleBid> = option_sets
                .into_iter()
                .enumerate()
                .map(|(i, options)| BundleBid::new(UserId(i as u32), options))
                .collect();
            BundleInstance::new(&bids, &caps)
        })
}

proptest! {
    /// Double auction: feasibility, individual rationality and budget
    /// balance on every workload.
    #[test]
    fn double_auction_invariants(bids in arb_double_auction_bids()) {
        let result = DoubleAuction::new().run(&bids, &SharedRng::from_material(b"p"));
        prop_assert!(feasibility_violations(&bids, &result, None).is_empty());
        prop_assert!(rationality_violations(&bids, &result).is_empty());
        prop_assert!(result.payments.is_budget_balanced());
        // Quantity bought equals quantity sold.
        let bought: Bw = (0..bids.num_users())
            .map(|u| result.allocation.user_total(UserId(u as u32)))
            .sum();
        let sold: Bw = (0..bids.num_asks())
            .map(|p| result.allocation.provider_total(ProviderId(p as u32)))
            .sum();
        prop_assert_eq!(bought, sold);
        // Sellers are individually rational too: revenue covers cost.
        for p in 0..bids.num_asks() {
            let provider = ProviderId(p as u32);
            let cost = bids.provider_ask(provider).unit_cost()
                .per_unit(result.allocation.provider_total(provider));
            prop_assert!(result.payments.provider_revenue(provider) >= cost);
        }
    }

    /// Double auction: sampled unilateral misreports of the valuation
    /// never increase a user's utility.
    #[test]
    fn double_auction_truthfulness_sampled(bids in arb_double_auction_bids()) {
        let shared = SharedRng::from_material(b"p");
        let lie = find_profitable_lie(
            &DoubleAuction::new(), &bids, &shared, &[0.6, 0.9, 1.1, 1.5],
            dauctioneer_mechanisms::props::prorata_dust_tolerance(&bids),
        );
        prop_assert_eq!(lie, None);
    }

    /// Branch-and-bound with ε = 0 equals exhaustive enumeration.
    #[test]
    fn branch_bound_is_exact((bids, caps) in arb_standard_instance()) {
        let instance = Instance::from_bids(&bids, &caps);
        let (bb, stats) = solve_branch_bound(
            &instance,
            BranchBoundConfig::default(),
            &mut StdRng::seed_from_u64(0),
        );
        let best = solve_exhaustive(&instance);
        prop_assert!(stats.complete);
        prop_assert_eq!(bb.welfare, best.welfare);
        prop_assert!(bb.is_feasible(&instance));
        prop_assert_eq!(bb.compute_welfare(&instance), bb.welfare);
    }

    /// The greedy heuristic never beats the exact solver, and both stay
    /// below the fractional root bound.
    #[test]
    fn solver_ordering_invariants((bids, caps) in arb_standard_instance()) {
        let instance = Instance::from_bids(&bids, &caps);
        let greedy = solve_greedy(&instance);
        let (bb, stats) = solve_branch_bound(
            &instance,
            BranchBoundConfig::default(),
            &mut StdRng::seed_from_u64(1),
        );
        prop_assert!(greedy.welfare <= bb.welfare);
        prop_assert!(bb.welfare <= stats.root_bound);
    }

    /// The full VCG mechanism on arbitrary instances: feasibility,
    /// individual rationality, losers pay nothing, single-minded
    /// allocations.
    #[test]
    fn standard_auction_invariants((bids, caps) in arb_standard_instance()) {
        let auction = StandardAuction::new(StandardAuctionConfig::exact(caps.clone()));
        let result = auction.run(&bids, &SharedRng::from_material(b"q"));
        prop_assert!(feasibility_violations(&bids, &result, Some(&caps)).is_empty());
        prop_assert!(rationality_violations(&bids, &result).is_empty());
        for (user, bid) in bids.valid_user_bids() {
            let got = result.allocation.user_total(user);
            // Single-minded: all-or-nothing.
            prop_assert!(got.is_zero() || got == bid.demand());
            if got.is_zero() {
                prop_assert_eq!(result.payments.user_payment(user), Money::ZERO);
            }
            // At most one provider hosts the user.
            let hosts = (0..caps.len())
                .filter(|p| !result.allocation.get(user, ProviderId(*p as u32)).is_zero())
                .count();
            prop_assert!(hosts <= 1);
        }
        // Payments flow to the hosting providers exactly.
        prop_assert_eq!(
            result.payments.total_user_payments(),
            result.payments.total_provider_revenues()
        );
    }

    /// VCG truthfulness on small exact instances, sampled misreports.
    #[test]
    fn standard_auction_truthfulness_sampled((bids, caps) in arb_standard_instance()) {
        prop_assume!(bids.num_valid_users() <= 6);
        let auction = StandardAuction::new(StandardAuctionConfig::exact(caps));
        let shared = SharedRng::from_material(b"q");
        let lie = find_profitable_lie(&auction, &bids, &shared, &[0.5, 0.9, 1.2, 3.0], Money::ZERO);
        prop_assert_eq!(lie, None);
    }

    /// Bundle branch-and-bound with ε = 0 and no budget equals exhaustive
    /// enumeration, and multi-unit capacity is never exceeded.
    #[test]
    fn bundle_branch_bound_is_exact(inst in arb_bundle_instance()) {
        let (sol, stats) = solve_branch_bound(
            &inst,
            BranchBoundConfig::default(),
            &mut StdRng::seed_from_u64(0),
        );
        let best = solve_exhaustive(&inst);
        prop_assert!(stats.complete);
        prop_assert_eq!(sol.welfare, best.welfare);
        prop_assert!(sol.is_feasible(&inst));
        prop_assert_eq!(sol.compute_welfare(&inst), sol.welfare);
        prop_assert!(stats.root_bound >= best.welfare);
    }

    /// Budgeted winner determination: the greedy fallback stays feasible
    /// and its *reported* bound is honest — the returned welfare is at
    /// least `bound_ppm` of the true optimum on exhaustively-solvable
    /// instances.
    #[test]
    fn bundle_fallback_honors_its_reported_bound(inst in arb_bundle_instance()) {
        // A 1-node budget stops the search immediately: pure greedy fallback.
        let cfg = BranchBoundConfig { max_nodes: 1, ..Default::default() };
        let (sol, stats) = solve_branch_bound(&inst, cfg, &mut StdRng::seed_from_u64(1));
        prop_assert!(sol.is_feasible(&inst));
        let best = solve_exhaustive(&inst);
        let floor = (best.welfare.micro() as i128 * stats.bound_ppm as i128 / 1_000_000) as i64;
        prop_assert!(
            sol.welfare.micro() >= floor,
            "welfare {} below reported bound {} ppm of optimum {}",
            sol.welfare, stats.bound_ppm, best.welfare
        );
    }

    /// The full combinatorial mechanism on arbitrary market bids:
    /// feasibility (capacity and demand), individual rationality of the
    /// pay-as-bid payments against the declared linear valuation, and
    /// budget balance.
    #[test]
    fn combinatorial_auction_invariants((bids, caps) in arb_standard_instance()) {
        let auction = CombinatorialAuction::new(CombinatorialAuctionConfig::new(caps.clone()));
        let result = auction.run(&bids, &SharedRng::from_material(b"c"));
        prop_assert!(feasibility_violations(&bids, &result, Some(&caps)).is_empty());
        prop_assert!(rationality_violations(&bids, &result).is_empty());
        prop_assert!(result.payments.is_budget_balanced());
    }

    /// Divisible VCG: Clarke payments nonnegative, individually rational,
    /// and the water-fill allocates exactly min(total demand, capacity).
    #[test]
    fn divisible_auction_invariants((bids, caps) in arb_standard_instance()) {
        let auction = DivisibleAuction::new(DivisibleAuctionConfig::new(caps.clone()));
        let result = auction.run(&bids, &SharedRng::from_material(b"d"));
        prop_assert!(feasibility_violations(&bids, &result, Some(&caps)).is_empty());
        prop_assert!(rationality_violations(&bids, &result).is_empty());
        prop_assert!(result.payments.is_budget_balanced());
        for (user, _) in bids.valid_user_bids() {
            prop_assert!(result.payments.user_payment(user) >= Money::ZERO);
        }
        let demand: Bw = bids.valid_user_bids().map(|(_, b)| b.demand()).sum();
        let capacity: Bw = caps.iter().copied().sum();
        prop_assert_eq!(result.allocation.total(), demand.min(capacity));
    }
}
