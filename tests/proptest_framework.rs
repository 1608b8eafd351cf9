//! Property-based tests over the full protocol stack: random workloads,
//! random schedules, random bidder misbehaviour.

use std::sync::Arc;

use proptest::prelude::*;

use dauctioneer::core::{DoubleAuctionProgram, FrameworkConfig};
use dauctioneer::mechanisms::{DoubleAuction, Mechanism, SharedRng};
use dauctioneer::sim::{run_auction_sim, SchedulePolicy};
use dauctioneer::types::{BidEntry, BidVector, Bw, Money, Outcome, ProviderAsk, UserBid, UserId};

fn arb_bid() -> impl Strategy<Value = UserBid> {
    (750_000i64..=1_250_000, 1u64..=1_000_000)
        .prop_map(|(v, d)| UserBid::new(Money::from_micro(v), Bw::from_micro(d)))
}

fn arb_ask() -> impl Strategy<Value = ProviderAsk> {
    (1i64..=1_000_000, 100_000u64..=3_000_000)
        .prop_map(|(c, cap)| ProviderAsk::new(Money::from_micro(c), Bw::from_micro(cap)))
}

fn arb_bid_vector(n: usize, a: usize) -> impl Strategy<Value = BidVector> {
    (
        proptest::collection::vec(proptest::option::of(arb_bid()), n),
        proptest::collection::vec(arb_ask(), a),
    )
        .prop_map(move |(users, asks)| {
            let entries =
                users.into_iter().map(|u| u.map(BidEntry::Valid).unwrap_or_default()).collect();
            BidVector::from_parts(entries, asks)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Definition 1 on arbitrary inputs: the distributed double auction
    /// equals the centralised one whenever all providers collected the
    /// same bids — under a random schedule.
    #[test]
    fn distributed_equals_centralised(
        bids in arb_bid_vector(6, 2),
        schedule_seed in 0u64..1000,
        local_seed in 0u64..1000,
    ) {
        let m = 3;
        let cfg = FrameworkConfig::new(m, 1, 6, 2);
        let report = run_auction_sim(
            &cfg,
            Arc::new(DoubleAuctionProgram::new()),
            vec![bids.clone(); m],
            &[],
            SchedulePolicy::SeededRandom(schedule_seed),
            local_seed,
        );
        let centralised = DoubleAuction::new().run(&bids, &SharedRng::from_material(b"x"));
        prop_assert_eq!(report.unanimous(), Outcome::Agreed(centralised));
    }

    /// Validity under arbitrary bidder equivocation: bidders whose bids
    /// reached all providers identically always survive bid agreement with
    /// exactly those bids (we verify via the outcome's budget balance and
    /// agreement; the consistent-slot check runs in the core crate).
    #[test]
    fn equivocating_bidders_never_break_agreement(
        base in arb_bid_vector(4, 2),
        equivocator in 0usize..4,
        deltas in proptest::collection::vec(1i64..100_000, 3),
        schedule_seed in 0u64..1000,
    ) {
        let m = 3;
        let cfg = FrameworkConfig::new(m, 1, 4, 2);
        // Each provider sees a different valuation for the equivocator.
        let views: Vec<BidVector> = (0..m)
            .map(|j| {
                match base.user_bid(UserId(equivocator as u32)).as_bid() {
                    Some(bid) => base.with_user_entry(
                        UserId(equivocator as u32),
                        BidEntry::Valid(bid.with_valuation(
                            bid.valuation() + Money::from_micro(deltas[j]),
                        )),
                    ),
                    None => base.clone(),
                }
            })
            .collect();
        let report = run_auction_sim(
            &cfg,
            Arc::new(DoubleAuctionProgram::new()),
            views,
            &[],
            SchedulePolicy::SeededRandom(schedule_seed),
            schedule_seed,
        );
        let outcome = report.unanimous();
        prop_assert!(!outcome.is_abort(), "bidder equivocation must not abort the auction");
        let result = outcome.as_result().unwrap();
        prop_assert!(result.payments.is_budget_balanced());
        // Consistent bidders' entries survive: rerun centralised on a
        // vector where the equivocator's entry is whatever was agreed —
        // all other entries must match the base.
        for u in 0..4 {
            if u == equivocator { continue; }
            let got = result.allocation.user_total(UserId(u as u32));
            if let Some(bid) = base.user_bid(UserId(u as u32)).as_bid() {
                prop_assert!(got <= bid.demand(), "user {u} over-allocated");
            } else {
                prop_assert!(got.is_zero(), "neutral user {u} allocated");
            }
        }
    }
}
