//! Named chaos scenarios: the fault-tolerance counterpart of the §6
//! workload generators.
//!
//! A [`ChaosScenario`] pairs a link-level [`FaultPlan`] shape with an
//! optional adversarial provider strategy, so the chaos suite, the
//! `chaos_sweep` bench, and CI all exercise the *same* named conditions
//! and a failure report like "`flaky-net` diverged under TCP at seed
//! 20260728" is reproducible anywhere from its name and seed.
//!
//! Scenario semantics follow the paper's model (§3.3): channels are
//! assumed reliable and FIFO, so **content-preserving** disturbances
//! (delays, late senders) must still clear with the identical honest
//! outcome, while disturbances that *violate* the channel assumptions
//! or the protocol (loss, duplication, reordering, corruption, silence,
//! equivocation, garbage) must degrade into the external ⊥ of §3.2 —
//! never a hang, never two providers clearing different trades. The
//! suite asserts exactly that split.

use std::time::Duration;

use dauctioneer_core::{Adversary, AdversaryKind};
use dauctioneer_net::FaultPlan;
use dauctioneer_types::ProviderId;

/// What a scenario is allowed to do to the session outcome, relative to
/// the fault-free honest outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// The faults are content-preserving and within the model's
    /// assumptions: every session must clear with the identical honest
    /// outcome.
    HonestOnly,
    /// The faults violate the model (loss, duplication, corruption,
    /// deviation): each session ends in the identical honest outcome or
    /// the unanimous ⊥-abort — nothing else.
    HonestOrAbort,
}

/// One named fault-injection condition.
#[derive(Debug, Clone, Copy)]
pub struct ChaosScenario {
    /// Stable name, used in bench rows, CI summaries, and repro notes.
    pub name: &'static str,
    /// Link faults (probabilities; the run's seed is stamped on via
    /// [`ChaosScenario::faults`]), `None` for a clean network.
    pub plan: Option<FaultPlan>,
    /// Strategy of the single deviating provider, if the scenario has
    /// one (assigned to the highest provider id).
    pub adversary: Option<AdversaryKind>,
    /// The outcome contract the suite asserts for this scenario.
    pub expect: Expectation,
}

impl ChaosScenario {
    /// `true` when the scenario includes a deviating provider — the CI
    /// matrix's `faulty=1` axis.
    pub fn has_adversary(&self) -> bool {
        self.adversary.is_some()
    }

    /// `true` when the same seed must reproduce the *identical
    /// per-provider outcome vectors*, run to run and across backends
    /// (in-process channels vs real TCP).
    ///
    /// Fault **decisions** are always a pure function of the seed and
    /// each message's position in its link (see `net::chaos`, whose
    /// property tests prove byte-identical fault traces over a scripted
    /// schedule). Full-run *outcome* identity additionally requires the
    /// outcome to be independent of cross-link scheduling, which the
    /// threaded runtime does not fix. That holds exactly when the
    /// scenario cannot partially abort: either it must clear everything
    /// ([`Expectation::HonestOnly`] — every outcome is the honest one),
    /// it injects nothing, or the deviator sends nothing at all
    /// (crash-from-start: every session ⊥s at every provider). Fault
    /// mixes that abort *some* sessions keep every safety contract
    /// (termination, honest-or-⊥, no divergent clearing) but may clear
    /// a different subset run to run, because which message a fault
    /// lands on downstream depends on what each provider processed
    /// first. (For seed-exact outcome replay of arbitrary content
    /// faults, drive the engines deterministically — single-threaded
    /// round-robin — as the chaos e2e proptest does.)
    pub fn replayable_outcomes(&self) -> bool {
        if self.expect == Expectation::HonestOnly {
            return true; // everything clears: outcomes are the honest ones
        }
        match (self.plan, self.adversary) {
            (None, None) => true,
            // A crash-from-start deviator never sends: no session can
            // complete, every outcome is ⊥, independent of schedule.
            (None, Some(AdversaryKind::Silent { after: 0 })) => true,
            _ => false,
        }
    }

    /// The concrete `(chaos, adversaries)` pair for one run: the plan
    /// reseeded with `seed`, and the adversary (if any) assigned to the
    /// highest provider id of an `m`-provider mesh.
    pub fn faults(&self, seed: u64, m: usize) -> (Option<FaultPlan>, Vec<Adversary>) {
        let plan = self.plan.map(|p| p.reseeded(seed));
        let adversaries = self
            .adversary
            .map(|kind| vec![Adversary::new(ProviderId(m.saturating_sub(1) as u32), kind)])
            .unwrap_or_default();
        (plan, adversaries)
    }
}

/// The full scenario suite, honest baseline first.
pub fn chaos_suite() -> Vec<ChaosScenario> {
    let base = FaultPlan::seeded(0);
    vec![
        ChaosScenario {
            name: "baseline",
            plan: None,
            adversary: None,
            expect: Expectation::HonestOnly,
        },
        ChaosScenario {
            // Pure delay keeps channels reliable and FIFO — the paper's
            // asynchronous fair schedule. Must still clear.
            name: "jitter",
            plan: Some(base.with_delay(0.5, Duration::from_millis(1), Duration::from_millis(8))),
            adversary: None,
            expect: Expectation::HonestOnly,
        },
        ChaosScenario {
            name: "lossy",
            plan: Some(base.with_drop(0.05)),
            adversary: None,
            expect: Expectation::HonestOrAbort,
        },
        ChaosScenario {
            name: "dup-storm",
            plan: Some(base.with_duplicate(0.3)),
            adversary: None,
            expect: Expectation::HonestOrAbort,
        },
        ChaosScenario {
            name: "reorder",
            plan: Some(base.with_reorder(0.2)),
            adversary: None,
            expect: Expectation::HonestOrAbort,
        },
        ChaosScenario {
            name: "corruptor",
            plan: Some(base.with_corrupt(0.05)),
            adversary: None,
            expect: Expectation::HonestOrAbort,
        },
        ChaosScenario {
            name: "flaky-net",
            plan: Some(
                base.with_drop(0.02)
                    .with_duplicate(0.02)
                    .with_reorder(0.05)
                    .with_delay(0.2, Duration::from_millis(1), Duration::from_millis(5))
                    .with_corrupt(0.01),
            ),
            adversary: None,
            expect: Expectation::HonestOrAbort,
        },
        ChaosScenario {
            // A seeded blackout of ~a third of the directed links,
            // healing after 40 messages: sessions whose rounds cross a
            // dead link ⊥ (or clear late, after the heal); nothing may
            // hang or diverge.
            name: "partitioned",
            plan: Some(base.with_partition(0.35, Some(40))),
            adversary: None,
            expect: Expectation::HonestOrAbort,
        },
        ChaosScenario {
            name: "crash-provider",
            plan: None,
            adversary: Some(AdversaryKind::Silent { after: 0 }),
            expect: Expectation::HonestOrAbort,
        },
        ChaosScenario {
            name: "silent-provider",
            plan: None,
            adversary: Some(AdversaryKind::Silent { after: 8 }),
            expect: Expectation::HonestOrAbort,
        },
        ChaosScenario {
            // A modest lateness is an asynchronous schedule, not a
            // deviation: the protocol must still clear.
            name: "late-provider",
            plan: None,
            adversary: Some(AdversaryKind::Late { delay: Duration::from_millis(3) }),
            expect: Expectation::HonestOnly,
        },
        ChaosScenario {
            name: "equivocator",
            plan: None,
            adversary: Some(AdversaryKind::Equivocator { victim: ProviderId(0) }),
            expect: Expectation::HonestOrAbort,
        },
        ChaosScenario {
            name: "garbage-frames",
            plan: None,
            adversary: Some(AdversaryKind::GarbageFrames { period: 3 }),
            expect: Expectation::HonestOrAbort,
        },
        ChaosScenario {
            name: "perfect-storm",
            plan: Some(
                base.with_drop(0.03)
                    .with_duplicate(0.05)
                    .with_reorder(0.05)
                    .with_delay(0.1, Duration::from_millis(1), Duration::from_millis(5))
                    .with_corrupt(0.02),
            ),
            adversary: Some(AdversaryKind::Equivocator { victim: ProviderId(0) }),
            expect: Expectation::HonestOrAbort,
        },
    ]
}

/// Look up one scenario by its stable name.
pub fn scenario_by_name(name: &str) -> Option<ChaosScenario> {
    chaos_suite().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_names_are_unique_and_resolvable() {
        let suite = chaos_suite();
        let mut names: Vec<&str> = suite.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), suite.len(), "duplicate scenario name");
        for s in &suite {
            assert_eq!(scenario_by_name(s.name).unwrap().name, s.name);
        }
        assert!(scenario_by_name("no-such-scenario").is_none());
    }

    #[test]
    fn all_plans_validate() {
        for s in chaos_suite() {
            if let Some(plan) = s.plan {
                plan.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
            }
        }
    }

    #[test]
    fn faults_reseed_and_assign_the_last_provider() {
        let s = scenario_by_name("perfect-storm").unwrap();
        let (plan, adversaries) = s.faults(77, 5);
        assert_eq!(plan.unwrap().seed, 77);
        assert_eq!(adversaries.len(), 1);
        assert_eq!(adversaries[0].provider, ProviderId(4));
        assert!(s.has_adversary());
        let (none_plan, none_adv) = scenario_by_name("baseline").unwrap().faults(77, 3);
        assert!(none_plan.is_none());
        assert!(none_adv.is_empty());
    }

    #[test]
    fn replayability_is_limited_to_schedule_independent_scenarios() {
        for name in ["baseline", "jitter", "late-provider", "crash-provider"] {
            assert!(scenario_by_name(name).unwrap().replayable_outcomes(), "{name}");
        }
        for name in
            ["lossy", "corruptor", "equivocator", "flaky-net", "perfect-storm", "partitioned"]
        {
            assert!(!scenario_by_name(name).unwrap().replayable_outcomes(), "{name}");
        }
    }

    #[test]
    fn matrix_axes_are_both_populated() {
        let suite = chaos_suite();
        assert!(suite.iter().any(|s| !s.has_adversary()), "faulty=0 axis");
        assert!(suite.iter().any(|s| s.has_adversary()), "faulty=1 axis");
        assert!(suite.iter().any(|s| s.expect == Expectation::HonestOnly));
    }
}
