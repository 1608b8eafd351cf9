//! Empirical checks of the k-resilience claims (Theorem 1 of the paper).
//!
//! k-resilience says: under any fair schedule, no coalition of ≤ k
//! providers can increase any member's expected utility by deviating.
//! These tests enumerate the implemented deviation classes and verify the
//! two facts the proof rests on:
//!
//! 1. **Resilience to collusive influence** — honest providers never
//!    accept an outcome different from the honest outcome; deviations can
//!    only force ⊥.
//! 2. **Solution preference makes ⊥ worthless** — a deviator's utility
//!    under ⊥ is zero, which never exceeds its honest utility (provider
//!    utilities are non-negative in these auctions).

use std::sync::Arc;
use std::time::Duration;

use dauctioneer::core::{Adversary, AdversaryKind, DoubleAuctionProgram, FrameworkConfig};
use dauctioneer::sim::utility::provider_utility;
use dauctioneer::sim::{run_auction_sim, LinkModel, SchedulePolicy};
use dauctioneer::types::{BidVector, Money, Outcome, ProviderId, UserId};
use dauctioneer::workload::DoubleAuctionWorkload;

const M: usize = 3;
const K: usize = 1;
const N_USERS: usize = 12;
const N_ASKS: usize = M;

fn cfg() -> FrameworkConfig {
    FrameworkConfig::new(M, K, N_USERS, N_ASKS)
}

fn workload(seed: u64) -> BidVector {
    DoubleAuctionWorkload::new(N_USERS, N_ASKS, seed).generate()
}

fn honest_outcome(seed: u64) -> Outcome {
    let report = run_auction_sim(
        &cfg(),
        Arc::new(DoubleAuctionProgram::new()),
        vec![workload(seed); M],
        &[],
        SchedulePolicy::SeededRandom(seed),
        seed,
    );
    report.unanimous()
}

fn run_with_deviation(
    seed: u64,
    deviator: usize,
    kind: AdversaryKind,
    policy: SchedulePolicy,
) -> Outcome {
    let report = run_auction_sim(
        &cfg(),
        Arc::new(DoubleAuctionProgram::new()),
        vec![workload(seed); M],
        &[Adversary::new(ProviderId(deviator as u32), kind)],
        policy,
        seed,
    );
    // What matters for influence is what the honest providers accept.
    report.honest_unanimous(&[deviator])
}

/// Every deviation primitive, under a seeded-random schedule and under
/// virtual time: the honest providers' outcome is either the honest
/// outcome or ⊥ — never a different accepted pair. Lateness stays within
/// the model's fair schedule, so it must clear.
#[test]
fn deviations_cannot_steer_the_outcome() {
    let deviations = [
        AdversaryKind::Silent { after: 0 },
        AdversaryKind::Silent { after: 3 },
        AdversaryKind::Late { delay: Duration::from_millis(3) },
        AdversaryKind::GarbageFrames { period: 3 },
        AdversaryKind::Replay,
        AdversaryKind::Corrupt,
        AdversaryKind::DropTo { victim: ProviderId(2) },
        AdversaryKind::Equivocator { victim: ProviderId(1) },
    ];
    for seed in 0..4u64 {
        let honest = honest_outcome(seed);
        assert!(!honest.is_abort(), "baseline must succeed (seed {seed})");
        for kind in deviations {
            let timed = SchedulePolicy::Timed(LinkModel::community_net());
            for policy in [SchedulePolicy::SeededRandom(seed), timed] {
                let outcome = run_with_deviation(seed, 0, kind, policy.clone());
                assert!(
                    outcome.is_abort() || outcome == honest,
                    "{kind:?} steered the outcome under {policy:?} (seed {seed})"
                );
                if let AdversaryKind::Late { .. } = kind {
                    assert_eq!(outcome, honest, "lateness must clear under {policy:?}");
                }
            }
        }
    }
}

/// The deviator's own utility never improves: honest utility is ≥ 0 and
/// every detectable deviation yields ⊥ (utility exactly 0).
#[test]
fn deviating_never_raises_provider_utility() {
    for seed in 0..4u64 {
        let bids = workload(seed);
        let honest = honest_outcome(seed);
        for deviator in 0..M {
            let true_cost = bids.provider_ask(ProviderId(deviator as u32)).unit_cost();
            let honest_utility = provider_utility(ProviderId(deviator as u32), true_cost, &honest);
            assert!(
                honest_utility >= Money::ZERO,
                "honest provider utility must be individually rational"
            );
            let victim = ProviderId(((deviator + 1) % M) as u32);
            let deviant = run_with_deviation(
                seed,
                deviator,
                AdversaryKind::Equivocator { victim },
                SchedulePolicy::SeededRandom(seed),
            );
            let deviant_utility =
                provider_utility(ProviderId(deviator as u32), true_cost, &deviant);
            assert!(
                deviant_utility <= honest_utility,
                "P{deviator} profited by equivocating (seed {seed}): \
                 {deviant_utility} > {honest_utility}"
            );
        }
    }
}

/// Lying about the *input* (the collected bids): the liar contests bits
/// against the honest majority, and per §4.1 the shared coin — which the
/// liar cannot bias (it commits to its randomness before seeing any
/// honest contribution) — settles each contested bit. The liar therefore
/// gets a lottery, not a lever:
///
/// * agreement still holds (no divergence, no abort — the lie is not a
///   detectable protocol violation),
/// * the decided entry is *not* simply the liar's proposal: across seeds
///   the coin sides with the honest bytes in some runs,
/// * whatever is decided remains a well-formed, feasible auction.
#[test]
fn lying_about_collected_bids_cannot_dictate_the_agreement() {
    let mut liar_ever_lost = false;
    for seed in 0..6u64 {
        let bids = workload(seed);
        let liar = 0usize;

        // The liar erases its top competitor users from its own input.
        let mut doctored = bids.clone();
        doctored = doctored.with_user_entry(UserId(0), Default::default());
        doctored = doctored.with_user_entry(UserId(1), Default::default());
        let mut collected = vec![bids.clone(); M];
        collected[liar] = doctored;

        let report = run_auction_sim(
            &cfg(),
            Arc::new(DoubleAuctionProgram::new()),
            collected,
            &[],
            SchedulePolicy::SeededRandom(seed),
            seed,
        );
        let outcome = report.unanimous();
        assert!(
            !outcome.is_abort(),
            "an input lie is not a protocol violation; agreement must hold (seed {seed})"
        );
        let result = outcome.as_result().unwrap();
        // The erased users resolve to coin-settled entries; if either
        // still receives an allocation, the honest copies won that lottery.
        if !result.allocation.user_total(UserId(0)).is_zero()
            || !result.allocation.user_total(UserId(1)).is_zero()
        {
            liar_ever_lost = true;
        }
        assert!(result.payments.is_budget_balanced());
    }
    assert!(
        liar_ever_lost,
        "across seeds, the coin must sometimes side with the honest majority's bytes"
    );
}

/// Asynchrony resilience (the *ex post* part of the equilibrium): the
/// decided outcome is identical under adversarial schedules that starve
/// each provider in turn.
#[test]
fn outcome_is_invariant_under_starvation_schedules() {
    let seed = 2u64;
    let baseline = honest_outcome(seed);
    for victim in 0..M {
        let report = run_auction_sim(
            &cfg(),
            Arc::new(DoubleAuctionProgram::new()),
            vec![workload(seed); M],
            &[],
            SchedulePolicy::DelayProvider { victim: ProviderId(victim as u32), seed: 9 },
            seed,
        );
        assert_eq!(report.unanimous(), baseline, "schedule changed the outcome (victim {victim})");
    }
}
