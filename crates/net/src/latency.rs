//! Per-link latency models.
//!
//! The paper's testbed spans community-network nodes in Barcelona and
//! Taradell — wide-area links with a few milliseconds of latency. The
//! simulator's `LinkModel` draws each message's virtual propagation delay
//! from a [`LatencyModel`], so the figures reproduce the paper's
//! communication-dominated regime (Fig. 4) on a single host; the model is
//! the documented substitution for the physical testbed
//! (`docs/ARCHITECTURE.md`, "One engine, one threaded driver, one
//! simulator"). Real-time runs delay messages with a chaos plan instead:
//! [`FaultPlan::community_net`](crate::FaultPlan::community_net) is the
//! same profile, read from [`COMMUNITY_NET_MICROS`].

use std::time::Duration;

use rand::Rng;

/// One-way delay bounds of the community-network profile, in
/// microseconds, inclusive: intra-community RTTs observed between Guifi
/// nodes (Barcelona ↔ Taradell). The one copy of these numbers.
pub const COMMUNITY_NET_MICROS: (u64, u64) = (1_500, 6_000);

/// How long a message takes from sender to receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LatencyModel {
    /// Immediate delivery (pure-computation benchmarks, unit tests).
    #[default]
    Zero,
    /// Every message takes exactly this many microseconds.
    ConstantMicros(u64),
    /// Uniformly distributed in `[min_micros, max_micros]`.
    UniformMicros {
        /// Lower bound, inclusive.
        min_micros: u64,
        /// Upper bound, inclusive.
        max_micros: u64,
    },
    /// Preset calibrated to intra-community-network RTTs observed between
    /// Guifi nodes (Barcelona ↔ Taradell): one-way delay uniform in
    /// [`COMMUNITY_NET_MICROS`] (1.5–6 ms).
    CommunityNet,
}

impl LatencyModel {
    /// Draw one delivery delay.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Duration {
        match self {
            LatencyModel::Zero => Duration::ZERO,
            LatencyModel::ConstantMicros(us) => Duration::from_micros(*us),
            LatencyModel::UniformMicros { min_micros, max_micros } => {
                debug_assert!(min_micros <= max_micros);
                Duration::from_micros(rng.gen_range(*min_micros..=*max_micros))
            }
            LatencyModel::CommunityNet => {
                let (min, max) = COMMUNITY_NET_MICROS;
                Duration::from_micros(rng.gen_range(min..=max))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_never_delays() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(LatencyModel::Zero.sample(&mut rng), Duration::ZERO);
    }

    #[test]
    fn constant_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = LatencyModel::ConstantMicros(250);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), Duration::from_micros(250));
        }
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = LatencyModel::UniformMicros { min_micros: 100, max_micros: 200 };
        for _ in 0..100 {
            let d = m.sample(&mut rng);
            assert!(d >= Duration::from_micros(100) && d <= Duration::from_micros(200));
        }
    }

    #[test]
    fn community_net_is_milliseconds_scale() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let d = LatencyModel::CommunityNet.sample(&mut rng);
            assert!(d >= Duration::from_micros(1_500) && d <= Duration::from_micros(6_000));
        }
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(LatencyModel::default(), LatencyModel::Zero);
    }
}
