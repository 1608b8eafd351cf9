//! Framework configuration: `m`, `k`, and what they imply.

use std::error::Error;
use std::fmt;

use dauctioneer_types::{ProviderId, SessionId};

/// Configuration of one distributed-auctioneer session.
///
/// The paper's implementations require `m > 2k` (a requirement inherited
/// from the rational consensus algorithm, §6); the achievable degree of
/// parallelism is `p = ⌊m/(k+1)⌋` because every task must be replicated on
/// at least `k+1` providers (§4.2).
///
/// # Example
///
/// ```
/// use dauctioneer_core::FrameworkConfig;
///
/// // The paper's Fig. 5 settings: m = 8, k = 1 gives p = 4.
/// let cfg = FrameworkConfig::new(8, 1, 100, 0);
/// assert_eq!(cfg.parallelism(), 4);
/// assert!(FrameworkConfig::new(2, 1, 100, 0).validate().is_err()); // k=1 needs m ≥ 3
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameworkConfig {
    /// Number of providers executing the simulation.
    pub m: usize,
    /// Maximum coalition size tolerated.
    pub k: usize,
    /// Number of user slots in the auction.
    pub n_users: usize,
    /// Number of provider-ask slots (0 for standard auctions, where
    /// providers do not bid).
    pub n_asks: usize,
    /// Session identifier carried by every message.
    pub session: SessionId,
    /// Input validation broadcasts only a hash of the vector instead of
    /// the full vector (ablation knob; default `false` = faithful to the
    /// paper's "broadcast their vectors of bids").
    pub validation_hash_only: bool,
}

/// Error constructing an invalid configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `m > 2k` is violated.
    TooFewProviders {
        /// Providers configured.
        m: usize,
        /// Coalition bound configured.
        k: usize,
    },
    /// No providers at all.
    NoProviders,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::TooFewProviders { m, k } => {
                write!(f, "m > 2k required: m = {m} cannot tolerate coalitions of k = {k}")
            }
            ConfigError::NoProviders => write!(f, "at least one provider required"),
        }
    }
}

impl Error for ConfigError {}

impl FrameworkConfig {
    /// Create a configuration; see [`FrameworkConfig::validate`] for the
    /// constraints.
    pub fn new(m: usize, k: usize, n_users: usize, n_asks: usize) -> FrameworkConfig {
        FrameworkConfig {
            m,
            k,
            n_users,
            n_asks,
            session: SessionId(0),
            validation_hash_only: false,
        }
    }

    /// Use a specific session id.
    pub fn with_session(mut self, session: SessionId) -> FrameworkConfig {
        self.session = session;
        self
    }

    /// Enable hash-only input validation (ablation).
    pub fn with_hash_only_validation(mut self, on: bool) -> FrameworkConfig {
        self.validation_hash_only = on;
        self
    }

    /// Check `m > 2k` and `m ≥ 1`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.m == 0 {
            return Err(ConfigError::NoProviders);
        }
        if self.m <= 2 * self.k {
            return Err(ConfigError::TooFewProviders { m: self.m, k: self.k });
        }
        Ok(())
    }

    /// Maximum parallelism `p = ⌊m/(k+1)⌋` (§6: p = 4 for k = 1, p = 2 for
    /// k = 3 with m = 8).
    pub fn parallelism(&self) -> usize {
        self.m / (self.k + 1)
    }

    /// Partition the `m` providers into `parallelism()` groups of at least
    /// `k+1` members each, leftovers joining the last group. Used for the
    /// payment tasks of the standard auction (Algorithm 1).
    pub fn payment_groups(&self) -> Vec<Vec<ProviderId>> {
        let p = self.parallelism().max(1);
        let mut groups: Vec<Vec<ProviderId>> = Vec::with_capacity(p);
        let base = self.k + 1;
        for g in 0..p {
            groups.push(ProviderId::all(self.m).skip(g * base).take(base).collect());
        }
        // Distribute leftovers onto the last group.
        for leftover in ProviderId::all(self.m).skip(p * base) {
            groups.last_mut().expect("p >= 1").push(leftover);
        }
        groups
    }

    /// All provider ids `0..m`.
    pub fn providers(&self) -> impl Iterator<Item = ProviderId> + Clone {
        ProviderId::all(self.m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameter_mappings() {
        // §6: m = 8; k = 1 → p = 4; k = 3 → p = 2; centralised ≡ p = 1.
        assert_eq!(FrameworkConfig::new(8, 1, 0, 0).parallelism(), 4);
        assert_eq!(FrameworkConfig::new(8, 3, 0, 0).parallelism(), 2);
        assert_eq!(FrameworkConfig::new(8, 2, 0, 0).parallelism(), 2);
    }

    #[test]
    fn validation_enforces_m_gt_2k() {
        assert!(FrameworkConfig::new(3, 1, 0, 0).validate().is_ok());
        assert_eq!(
            FrameworkConfig::new(2, 1, 0, 0).validate(),
            Err(ConfigError::TooFewProviders { m: 2, k: 1 })
        );
        assert_eq!(FrameworkConfig::new(0, 0, 0, 0).validate(), Err(ConfigError::NoProviders));
        assert!(FrameworkConfig::new(1, 0, 0, 0).validate().is_ok());
    }

    #[test]
    fn payment_groups_cover_all_providers_with_min_size() {
        for (m, k) in [(8, 1), (8, 3), (5, 2), (3, 1), (7, 2), (9, 1)] {
            let cfg = FrameworkConfig::new(m, k, 0, 0);
            let groups = cfg.payment_groups();
            assert_eq!(groups.len(), cfg.parallelism());
            let mut seen: Vec<ProviderId> = groups.iter().flatten().copied().collect();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), m, "every provider in exactly one group (m={m}, k={k})");
            for g in &groups {
                assert!(g.len() > k, "group too small for k={k}: {g:?}");
            }
        }
    }

    #[test]
    fn builder_style_setters() {
        let cfg = FrameworkConfig::new(3, 1, 10, 2)
            .with_session(SessionId(9))
            .with_hash_only_validation(true);
        assert_eq!(cfg.session, SessionId(9));
        assert!(cfg.validation_hash_only);
        assert_eq!(cfg.n_users, 10);
        assert_eq!(cfg.n_asks, 2);
    }

    #[test]
    fn error_messages_are_informative() {
        let e = ConfigError::TooFewProviders { m: 2, k: 1 };
        assert!(e.to_string().contains("m > 2k"));
        assert!(ConfigError::NoProviders.to_string().contains("at least one"));
    }
}
