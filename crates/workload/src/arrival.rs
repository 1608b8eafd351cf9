//! Open-world bid arrival processes for the continuous market.
//!
//! The paper's §6 workloads are **closed-world**: all `n` bids exist
//! before the auction starts. A continuous market faces the opposite
//! regime — bids arrive over time and the *service* decides when to
//! clear — so the workload layer needs a notion of *when* each bid
//! lands, not just what it contains. An [`ArrivalProcess`] is that
//! notion: a deterministic, seeded stream of [`BidArrival`]s whose
//! inter-arrival gaps are drawn from an [`InterArrival`] law —
//! memoryless Poisson traffic (the classic open-system model) or
//! bounded-jitter uniform gaps — and whose bid contents come from the
//! same §6.2 bidder population as the closed-world generators, so
//! open- and closed-world results stay comparable.
//!
//! Determinism matters as much here as in the batch workloads: the
//! `serve` CLI, the continuous-market example, the repo benchmark and the
//! `telemetry_overhead` bench all replay the same seeded stream, so a throughput number is
//! attributable to the configuration, not to workload luck.

use std::time::Duration;

use dauctioneer_crypto::{derive_seed, SeedDomain};
use dauctioneer_types::{Bw, Money, ProviderAsk, UserBid, UserId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{gen_demand, gen_valuation};

/// §6.2-shaped supply for a continuous-market epoch expecting about
/// `expected_bids` accepted bids: ascending unit costs and per-provider
/// capacity sized to the expected demand. Identical over-provisioned
/// asks would put all supply in one marginal block, which the McAfee
/// trade reduction *excludes* — an always-empty market; this shape
/// keeps real trades standing. Shared by `dauction serve` and the
/// benchmarks so their markets stay comparable.
pub fn epoch_supply(m: usize, expected_bids: f64) -> Vec<ProviderAsk> {
    // Mean demand is 0.5 per bid; ~20% of arrivals are duplicates.
    let expected_demand = 0.5 * expected_bids * 0.8;
    (0..m)
        .map(|j| {
            ProviderAsk::new(
                Money::from_f64(0.10 + 0.25 * j as f64 / m as f64),
                Bw::from_f64((expected_demand / m as f64).max(0.25)),
            )
        })
        .collect()
}

/// The inter-arrival law of an open-world bid stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InterArrival {
    /// Poisson process: exponentially distributed gaps at `rate_per_sec`
    /// arrivals per second (memoryless, bursty — the standard open-system
    /// traffic model).
    Poisson {
        /// Mean arrival rate in bids per second. Must be positive.
        rate_per_sec: f64,
    },
    /// Uniform gaps in `[min, max]` — bounded jitter around a steady
    /// cadence.
    Uniform {
        /// Smallest possible gap.
        min: Duration,
        /// Largest possible gap (`min ≤ max`).
        max: Duration,
    },
}

/// One bid arrival of an open-world stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BidArrival {
    /// Offset from the stream's start at which the bid arrives.
    pub at: Duration,
    /// The submitting user, uniform over the `n_users` slots (repeat
    /// arrivals by the same user are intentional — the collector's
    /// first-submission-wins rule is part of the open-world regime).
    pub user: UserId,
    /// The bid, drawn from the §6.2 population (valuation uniform in
    /// `[0.75, 1.25]`, demand uniform in `(0, 1]`).
    pub bid: UserBid,
}

/// A deterministic, seeded open-world bid stream.
///
/// # Example
///
/// ```
/// use dauctioneer_workload::ArrivalProcess;
///
/// let p = ArrivalProcess::poisson(8, 1000.0, 42);
/// let burst = p.take(100);
/// assert_eq!(burst.len(), 100);
/// // Deterministic in the seed, monotone in time:
/// assert_eq!(burst, ArrivalProcess::poisson(8, 1000.0, 42).take(100));
/// assert!(burst.windows(2).all(|w| w[0].at <= w[1].at));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalProcess {
    /// Number of user slots arrivals are spread over.
    pub n_users: usize,
    /// The inter-arrival law.
    pub inter: InterArrival,
    /// Seed for all draws (gaps, users, bid contents).
    pub seed: u64,
}

impl ArrivalProcess {
    /// Poisson arrivals at `rate_per_sec` over `n_users` user slots.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_sec` is not positive or `n_users` is zero.
    pub fn poisson(n_users: usize, rate_per_sec: f64, seed: u64) -> ArrivalProcess {
        assert!(rate_per_sec > 0.0, "Poisson rate must be positive");
        assert!(n_users > 0, "at least one user slot");
        ArrivalProcess { n_users, inter: InterArrival::Poisson { rate_per_sec }, seed }
    }

    /// Uniform gaps in `[min, max]` over `n_users` user slots.
    ///
    /// # Panics
    ///
    /// Panics if `min > max` or `n_users` is zero.
    pub fn uniform(n_users: usize, min: Duration, max: Duration, seed: u64) -> ArrivalProcess {
        assert!(min <= max, "uniform gap range is empty");
        assert!(n_users > 0, "at least one user slot");
        ArrivalProcess { n_users, inter: InterArrival::Uniform { min, max }, seed }
    }

    /// The infinite arrival stream as an iterator.
    pub fn iter(&self) -> Arrivals {
        Arrivals {
            rng: StdRng::from_seed(derive_seed(
                SeedDomain::Workload,
                &self.seed.to_le_bytes(),
                b"arrival-process",
            )),
            inter: self.inter,
            n_users: self.n_users,
            clock: Duration::ZERO,
        }
    }

    /// The first `count` arrivals.
    pub fn take(&self, count: usize) -> Vec<BidArrival> {
        self.iter().take(count).collect()
    }

    /// Replay up to `count` arrivals **in real time**: sleep until each
    /// arrival's offset (measured from this call), then hand it to
    /// `deliver`. Stops early when `deliver` returns `false`. Returns
    /// how many arrivals were delivered.
    ///
    /// This is the one paced-replay loop shared by `dauction serve`,
    /// the continuous-market example, and the `telemetry_overhead` bench, so
    /// pacing behaviour (and its edge cases, like un-anchorable far
    /// offsets) is fixed in one place.
    pub fn replay_paced(&self, count: usize, mut deliver: impl FnMut(BidArrival) -> bool) -> usize {
        let started = std::time::Instant::now();
        let mut delivered = 0;
        for arrival in self.iter().take(count) {
            // An offset too large to anchor to the clock cannot be
            // waited for; deliver immediately rather than panicking.
            if let Some(target) = started.checked_add(arrival.at) {
                let now = std::time::Instant::now();
                if target > now {
                    std::thread::sleep(target - now);
                }
            }
            if !deliver(arrival) {
                break;
            }
            delivered += 1;
        }
        delivered
    }
}

/// Iterator over an [`ArrivalProcess`] (infinite; pair with `take`).
#[derive(Debug, Clone)]
pub struct Arrivals {
    rng: StdRng,
    inter: InterArrival,
    n_users: usize,
    clock: Duration,
}

impl Iterator for Arrivals {
    type Item = BidArrival;

    fn next(&mut self) -> Option<BidArrival> {
        let gap = match self.inter {
            InterArrival::Poisson { rate_per_sec } => {
                // Inverse-transform sample of Exp(rate): −ln(1−U)/rate
                // with U ∈ [0, 1); 1−U ∈ (0, 1] keeps ln finite.
                let u: f64 = self.rng.gen_range(0.0..1.0);
                Duration::from_secs_f64((-(1.0 - u).ln()) / rate_per_sec)
            }
            InterArrival::Uniform { min, max } => {
                if min == max {
                    min
                } else {
                    let span = (max - min).as_secs_f64();
                    min + Duration::from_secs_f64(self.rng.gen_range(0.0..span))
                }
            }
        };
        self.clock += gap;
        let user = UserId(self.rng.gen_range(0..self.n_users as u32));
        let bid = UserBid::new(gen_valuation(&mut self.rng), gen_demand(&mut self.rng));
        Some(BidArrival { at: self.clock, user, bid })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_deterministic_and_monotone() {
        let p = ArrivalProcess::poisson(16, 500.0, 7);
        let a = p.take(200);
        let b = p.take(200);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "time must be monotone");
        assert!(a.iter().all(|x| x.user.index() < 16));
        assert!(a.iter().all(|x| x.bid.is_valid()), "population bids are always valid");
    }

    #[test]
    fn poisson_mean_gap_tracks_rate() {
        let p = ArrivalProcess::poisson(4, 1000.0, 3);
        let arrivals = p.take(2000);
        let span = arrivals.last().unwrap().at.as_secs_f64();
        let empirical_rate = 2000.0 / span;
        // Loose band: 2000 exponential draws at λ=1000.
        assert!(
            (800.0..1200.0).contains(&empirical_rate),
            "empirical rate {empirical_rate} far from 1000"
        );
    }

    #[test]
    fn uniform_gaps_stay_in_range() {
        let min = Duration::from_millis(2);
        let max = Duration::from_millis(5);
        let p = ArrivalProcess::uniform(8, min, max, 11);
        let arrivals = p.take(500);
        let mut prev = Duration::ZERO;
        for a in &arrivals {
            let gap = a.at - prev;
            assert!(gap >= min && gap <= max, "gap {gap:?} outside [{min:?}, {max:?}]");
            prev = a.at;
        }
    }

    #[test]
    fn degenerate_uniform_is_a_fixed_cadence() {
        let tick = Duration::from_millis(10);
        let p = ArrivalProcess::uniform(2, tick, tick, 1);
        let arrivals = p.take(5);
        for (i, a) in arrivals.iter().enumerate() {
            assert_eq!(a.at, tick * (i as u32 + 1));
        }
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(
            ArrivalProcess::poisson(8, 100.0, 1).take(10),
            ArrivalProcess::poisson(8, 100.0, 2).take(10)
        );
    }

    #[test]
    fn users_cover_the_population() {
        let p = ArrivalProcess::poisson(4, 100.0, 9);
        let seen: std::collections::HashSet<u32> =
            p.take(100).into_iter().map(|a| a.user.0).collect();
        assert!(seen.len() > 1, "100 arrivals over 4 users must hit several slots");
    }
}
