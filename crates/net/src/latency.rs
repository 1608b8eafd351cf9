//! Per-link latency models.
//!
//! The paper's testbed spans community-network nodes in Barcelona and
//! Taradell — wide-area links with a few milliseconds of latency. The
//! threaded transport injects delays drawn from a [`LatencyModel`] so that
//! the benchmark reproduces the paper's communication-dominated regime
//! (Fig. 4) on a single host; the model is the documented substitution for
//! the physical testbed (`docs/ARCHITECTURE.md`, "One engine, one
//! threaded driver, one simulator").

use std::time::Duration;

use rand::Rng;

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
    /// 1.5–6 ms.
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
            LatencyModel::CommunityNet => Duration::from_micros(rng.gen_range(1_500..=6_000)),
        }
    }

    /// `true` when the model never delays (lets transports take a fast
    /// path that skips the delay queue entirely).
    pub fn is_zero(&self) -> bool {
        matches!(self, LatencyModel::Zero) || matches!(self, LatencyModel::ConstantMicros(0))
    }

    /// The maximum possible delay, for sizing timeouts.
    pub fn max_delay(&self) -> Duration {
        match self {
            LatencyModel::Zero => Duration::ZERO,
            LatencyModel::ConstantMicros(us) => Duration::from_micros(*us),
            LatencyModel::UniformMicros { max_micros, .. } => Duration::from_micros(*max_micros),
            LatencyModel::CommunityNet => Duration::from_micros(6_000),
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
        assert!(LatencyModel::Zero.is_zero());
        assert!(LatencyModel::ConstantMicros(0).is_zero());
    }

    #[test]
    fn constant_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = LatencyModel::ConstantMicros(250);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), Duration::from_micros(250));
        }
        assert!(!m.is_zero());
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = LatencyModel::UniformMicros { min_micros: 100, max_micros: 200 };
        for _ in 0..100 {
            let d = m.sample(&mut rng);
            assert!(d >= Duration::from_micros(100) && d <= Duration::from_micros(200));
        }
        assert_eq!(m.max_delay(), Duration::from_micros(200));
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
