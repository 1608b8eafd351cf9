//! Coalition experiments: coordinated deviations by up to k providers
//! with m = 5, k = 2 — the paper's middle configuration (§6.2).
//!
//! The k-resilience claim covers *joint* protocols: colluding providers
//! may coordinate arbitrarily. These tests wire coordinated message-level
//! deviations into two members at once and verify the honest majority is
//! unmoved: it accepts the honest outcome or ⊥, never a steered pair.

use std::sync::Arc;

use dauctioneer_core::{Adversary, AdversaryKind, DoubleAuctionProgram, FrameworkConfig};
use dauctioneer_sim::utility::provider_utility;
use dauctioneer_sim::{run_auction_sim, SchedulePolicy};
use dauctioneer_types::{BidVector, Outcome, ProviderId};
use dauctioneer_workload::DoubleAuctionWorkload;

const M: usize = 5;
const K: usize = 2;
const N: usize = 10;

fn cfg() -> FrameworkConfig {
    FrameworkConfig::new(M, K, N, M)
}

fn bids(seed: u64) -> BidVector {
    DoubleAuctionWorkload::new(N, M, seed).generate()
}

fn honest(seed: u64) -> Outcome {
    run_auction_sim(
        &cfg(),
        Arc::new(DoubleAuctionProgram::new()),
        vec![bids(seed); M],
        &[],
        SchedulePolicy::SeededRandom(seed),
        seed,
    )
    .unwrap()
    .unanimous()
}

fn with_coalition(
    seed: u64,
    coalition: &[usize],
    make: impl Fn(usize) -> AdversaryKind,
) -> Outcome {
    let adversaries: Vec<Adversary> = coalition
        .iter()
        .map(|&member| Adversary::new(ProviderId(member as u32), make(member)))
        .collect();
    let report = run_auction_sim(
        &cfg(),
        Arc::new(DoubleAuctionProgram::new()),
        vec![bids(seed); M],
        &adversaries,
        SchedulePolicy::SeededRandom(seed),
        seed,
    )
    .unwrap();
    report.honest_unanimous(coalition)
}

#[test]
fn baseline_succeeds_at_k2() {
    for seed in 0..3 {
        assert!(!honest(seed).is_abort(), "m=5, k=2 honest run must succeed");
    }
}

#[test]
fn two_equivocators_cannot_steer() {
    for seed in 0..3u64 {
        let baseline = honest(seed);
        let outcome = with_coalition(seed, &[0, 1], |member| {
            // Coordinated: each member equivocates toward a different
            // honest victim.
            AdversaryKind::Equivocator { victim: ProviderId((member as u32 + 2) % M as u32) }
        });
        assert!(
            outcome.is_abort() || outcome == baseline,
            "coalition steered the outcome (seed {seed})"
        );
    }
}

#[test]
fn mixed_strategy_coalition_cannot_steer() {
    for seed in 0..3u64 {
        let baseline = honest(seed);
        let outcome = with_coalition(seed, &[1, 3], |member| {
            if member == 1 {
                AdversaryKind::Corrupt
            } else {
                AdversaryKind::DropTo { victim: ProviderId(0) }
            }
        });
        assert!(
            outcome.is_abort() || outcome == baseline,
            "mixed coalition steered the outcome (seed {seed})"
        );
    }
}

#[test]
fn silent_coalition_only_stalls() {
    for seed in 0..2u64 {
        let outcome = with_coalition(seed, &[2, 4], |_| AdversaryKind::Silent { after: 0 });
        // Withholding can deny progress (⊥ via the external abort), but
        // never forges an accepted pair.
        assert!(outcome.is_abort());
    }
}

#[test]
fn coalition_members_never_profit() {
    for seed in 0..3u64 {
        let b = bids(seed);
        let baseline = honest(seed);
        let coalition = [0usize, 1usize];
        let outcome = with_coalition(seed, &coalition, |member| AdversaryKind::Equivocator {
            victim: ProviderId((member as u32 + 3) % M as u32),
        });
        for &member in &coalition {
            let true_cost = b.provider_ask(ProviderId(member as u32)).unit_cost();
            let honest_u = provider_utility(ProviderId(member as u32), true_cost, &baseline);
            let deviant_u = provider_utility(ProviderId(member as u32), true_cost, &outcome);
            assert!(
                deviant_u <= honest_u,
                "coalition member {member} profited (seed {seed}): {deviant_u} > {honest_u}"
            );
        }
    }
}

#[test]
fn larger_coalition_than_k_can_force_abort_but_not_forge() {
    // With 3 > k colluders out of 5, the guarantee weakens to: honest
    // providers may be denied a solution, but with only 2 honest replicas
    // per group remaining, forging still requires agreement of *all*
    // senders a receiver hears — corruption by distinct members yields
    // conflicting copies, hence ⊥, not acceptance.
    for seed in 0..2u64 {
        let baseline = honest(seed);
        let outcome = with_coalition(seed, &[0, 1, 2], |member| AdversaryKind::Equivocator {
            victim: ProviderId(((member + 1) % M) as u32),
        });
        assert!(
            outcome.is_abort() || outcome == baseline,
            "even an oversized coalition of equivocators must not forge (seed {seed})"
        );
    }
}
