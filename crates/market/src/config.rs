//! Configuration of a continuous market: epoch policy, ingress sizing,
//! and the typed errors rejecting invalid knob combinations up front.

use std::error::Error;
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use dauctioneer_core::{
    Adversary, AdversaryKind, BatchConfig, FrameworkConfig, RunError, TransportKind,
};
use dauctioneer_net::FaultPlan;
use dauctioneer_types::{ProviderAsk, ProviderId};

use crate::journal::{FsyncPolicy, JournalError};
use crate::mechanism::MechanismSpec;

/// When the service closes the open epoch and clears it as one auction
/// session.
///
/// An epoch only opens when its first bid arrives, and an epoch with no
/// accepted bids is never closed — quiet markets cost nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochPolicy {
    /// Close as soon as `n` bids have been **accepted** into the epoch
    /// (submissions rejected by the collector rules do not count).
    ByCount(usize),
    /// Close when the epoch has been open for `d`, measured from its
    /// first accepted submission.
    ByTime(Duration),
    /// Close on whichever comes first: `count` accepted bids or
    /// `max_wait` elapsed — the usual production shape (bounded batch
    /// size *and* bounded staleness).
    Hybrid {
        /// Accepted-bid target that closes the epoch early.
        count: usize,
        /// Staleness bound: the epoch closes after this long even if the
        /// count was not reached.
        max_wait: Duration,
    },
}

/// What [`crate::MarketHandle::submit_bid`] does when the bounded
/// ingress queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Reject the submission immediately
    /// ([`crate::SubmitError::Overloaded`]) and count it as shed. The
    /// submitter learns synchronously; the market never stalls.
    #[default]
    Shed,
    /// Block the submitting thread until the scheduler drains space.
    /// No submission is ever shed, at the cost of propagating the
    /// market's pace back into the submitters.
    Block,
}

/// Durability configuration: where the write-ahead epoch journal
/// lives, how eagerly it reaches the disk, and whether the service
/// resumes an existing journal instead of creating a fresh one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalConfig {
    /// The journal file.
    pub path: PathBuf,
    /// When appended records are fsynced.
    pub fsync: FsyncPolicy,
    /// Recover the journal at `path` (replaying unsealed epochs) instead
    /// of requiring a fresh file.
    pub recover: bool,
}

impl JournalConfig {
    /// Journal to `path` with the default [`FsyncPolicy::Always`] — the
    /// nothing-acknowledged-is-ever-lost setting.
    pub fn new(path: impl Into<PathBuf>) -> JournalConfig {
        JournalConfig { path: path.into(), fsync: FsyncPolicy::Always, recover: false }
    }

    /// Set the fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> JournalConfig {
        self.fsync = fsync;
        self
    }

    /// Recover the existing journal instead of creating a fresh one.
    pub fn recovering(mut self) -> JournalConfig {
        self.recover = true;
        self
    }
}

/// Telemetry-plane sizing for a market: how much post-mortem evidence
/// the service retains in memory. Both rings are bounded; `0` disables
/// that pillar entirely (a disabled flight recorder or trace ring costs
/// one branch per event).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Events the crash flight recorder retains (dumped on SIGUSR1 and
    /// on fail-stop journal errors). `0` disables recording.
    pub flight_capacity: usize,
    /// Finished [`dauctioneer_telemetry::EpochTrace`]s the trace ring
    /// retains. `0` disables per-epoch tracing.
    pub trace_capacity: usize,
    /// Where a fail-stop journal error writes its flight dump before the
    /// process dies; `None` keeps the dump in memory only (still
    /// reachable over SIGUSR1 until the abort).
    pub flight_dump_path: Option<PathBuf>,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig { flight_capacity: 512, trace_capacity: 64, flight_dump_path: None }
    }
}

impl TelemetryConfig {
    /// Telemetry fully off: no flight events, no traces.
    pub fn disabled() -> TelemetryConfig {
        TelemetryConfig { flight_capacity: 0, trace_capacity: 0, flight_dump_path: None }
    }
}

/// Configuration of a [`crate::MarketService`].
#[derive(Debug, Clone)]
pub struct MarketConfig {
    /// Number of providers jointly simulating the auctioneer.
    pub m: usize,
    /// Coalition bound (`m > 2k` required).
    pub k: usize,
    /// User slots per epoch; bids name a [`dauctioneer_types::UserId`]
    /// in `0..n_users`.
    pub n_users: usize,
    /// Provider-ask slots per epoch (0 for a standard-auction market).
    pub n_asks: usize,
    /// Asks attached to **every** epoch at open (index `i` fills ask
    /// slot `i`); streamed asks via
    /// [`crate::MarketHandle::submit_ask`] overwrite them for the open
    /// epoch only. Must not exceed `n_asks` entries.
    pub asks: Vec<ProviderAsk>,
    /// When the open epoch closes.
    pub epoch: EpochPolicy,
    /// Capacity of the bounded ingress queue between submitters and the
    /// epoch scheduler. Must be non-zero.
    pub ingress_capacity: usize,
    /// What a full ingress queue does to submitters.
    pub backpressure: Backpressure,
    /// The message substrate of the persistent provider mesh.
    pub transport: TransportKind,
    /// Independent meshes; each epoch's session is routed to one by the
    /// stable hash of its session id. Clamped to at least 1.
    pub shards: usize,
    /// Wall-clock budget for clearing one epoch; providers undecided by
    /// then output ⊥ for that session.
    pub session_deadline: Duration,
    /// Base seed: epoch `e` runs its session with seed
    /// `seed + (e+1) * 7919` (then the usual per-provider fan-out).
    pub seed: u64,
    /// Session id of the first epoch; epoch `e` is session
    /// `first_session + e`.
    pub first_session: u64,
    /// Seeded link-fault injection on the persistent mesh (drop /
    /// duplicate / reorder / delay / corrupt per link, replayable from
    /// the plan's seed). `None` runs a clean network. Epochs cleared vs
    /// aborted under the plan are counted in
    /// [`crate::MarketStats::epochs_cleared`] /
    /// [`crate::MarketStats::epochs_aborted`].
    pub chaos: Option<FaultPlan>,
    /// Providers running an adversarial strategy instead of the honest
    /// protocol (everyone unlisted is honest).
    pub adversaries: Vec<Adversary>,
    /// Write-ahead epoch journal; `None` runs the market without crash
    /// durability (accepted bids die with the process).
    pub journal: Option<JournalConfig>,
    /// In-memory telemetry retention (flight recorder and epoch traces).
    pub telemetry: TelemetryConfig,
    /// Which mechanism [`crate::MarketService::start_from_spec`] clears
    /// epochs with (ignored by `start`, which takes an explicit
    /// program). Defaults to the double auction.
    pub mechanism: MechanismSpec,
}

impl MarketConfig {
    /// A market with sane defaults: close every 16 accepted bids, shed
    /// on overload, 1024-deep ingress, one in-process mesh.
    pub fn new(m: usize, k: usize, n_users: usize, n_asks: usize) -> MarketConfig {
        MarketConfig {
            m,
            k,
            n_users,
            n_asks,
            asks: Vec::new(),
            epoch: EpochPolicy::ByCount(16),
            ingress_capacity: 1024,
            backpressure: Backpressure::Shed,
            transport: TransportKind::InProc,
            shards: 1,
            session_deadline: Duration::from_secs(60),
            seed: 0,
            first_session: 0,
            chaos: None,
            adversaries: Vec::new(),
            journal: None,
            telemetry: TelemetryConfig::default(),
            mechanism: MechanismSpec::default(),
        }
    }

    /// Clear epochs with `mechanism` (used by
    /// [`crate::MarketService::start_from_spec`]).
    pub fn with_mechanism(mut self, mechanism: MechanismSpec) -> MarketConfig {
        self.mechanism = mechanism;
        self
    }

    /// Set the epoch policy.
    pub fn with_epoch(mut self, epoch: EpochPolicy) -> MarketConfig {
        self.epoch = epoch;
        self
    }

    /// Set the per-epoch default asks.
    pub fn with_asks(mut self, asks: Vec<ProviderAsk>) -> MarketConfig {
        self.asks = asks;
        self
    }

    /// Set transport and shard count.
    pub fn with_transport(mut self, transport: TransportKind, shards: usize) -> MarketConfig {
        self.transport = transport;
        self.shards = shards;
        self
    }

    /// Inject the given link-fault plan into the persistent mesh.
    pub fn with_chaos(mut self, plan: FaultPlan) -> MarketConfig {
        self.chaos = Some(plan);
        self
    }

    /// Run `provider` under `kind` instead of the honest protocol.
    pub fn with_adversary(mut self, provider: ProviderId, kind: AdversaryKind) -> MarketConfig {
        self.adversaries.push(Adversary::new(provider, kind));
        self
    }

    /// Journal accepted bids and sealed epochs to disk.
    pub fn with_journal(mut self, journal: JournalConfig) -> MarketConfig {
        self.journal = Some(journal);
        self
    }

    /// Size the in-memory telemetry retention.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> MarketConfig {
        self.telemetry = telemetry;
        self
    }

    /// The [`FrameworkConfig`] every epoch's session runs under (before
    /// its per-epoch session id is stamped on).
    pub fn framework(&self) -> FrameworkConfig {
        FrameworkConfig::new(self.m, self.k, self.n_users, self.n_asks)
    }

    /// The persistent mesh every epoch's session runs over: what
    /// [`MarketConfig::validate`] checks and [`crate::MarketService::start`]
    /// brings up.
    pub fn batch(&self) -> BatchConfig {
        BatchConfig {
            shards: self.shards,
            transport: self.transport,
            chaos: self.chaos,
            adversaries: self.adversaries.clone(),
        }
    }

    /// Reject invalid knob combinations up front, before any journal,
    /// thread or mesh exists.
    ///
    /// # Errors
    ///
    /// Returns the [`MarketError`] naming the violated constraint; the
    /// run's own checks are [`BatchConfig::validate`]'s, as
    /// [`MarketError::Run`].
    pub fn validate(&self) -> Result<(), MarketError> {
        self.batch().validate(&self.framework()).map_err(MarketError::Run)?;
        if self.n_users == 0 {
            return Err(MarketError::NoUserSlots);
        }
        if self.ingress_capacity == 0 {
            return Err(MarketError::ZeroIngressCapacity);
        }
        match self.epoch {
            EpochPolicy::ByCount(0) => return Err(MarketError::EmptyEpochTarget),
            EpochPolicy::ByTime(d) if d.is_zero() => return Err(MarketError::EmptyEpochTarget),
            EpochPolicy::Hybrid { count: 0, .. } => return Err(MarketError::EmptyEpochTarget),
            EpochPolicy::Hybrid { max_wait, .. } if max_wait.is_zero() => {
                return Err(MarketError::EmptyEpochTarget)
            }
            _ => {}
        }
        if self.asks.len() > self.n_asks {
            return Err(MarketError::TooManyAsks { asks: self.asks.len(), slots: self.n_asks });
        }
        if self.session_deadline.is_zero() {
            return Err(MarketError::ZeroSessionDeadline);
        }
        if let Some(journal) = &self.journal {
            if journal.fsync == FsyncPolicy::EveryN(0) {
                return Err(MarketError::Journal(JournalError::BadFsyncPolicy(
                    "every=0".to_string(),
                )));
            }
        }
        Ok(())
    }
}

/// Why a [`MarketConfig`] cannot run, or a market could not start.
#[derive(Debug)]
pub enum MarketError {
    /// The run itself cannot start: an invalid framework configuration,
    /// an impossible fault plan or an adversary outside the mesh (checked before any journal exists),
    /// or a transport that failed to come up.
    Run(RunError),
    /// `n_users == 0`: no bid could ever be accepted, so no epoch could
    /// ever close.
    NoUserSlots,
    /// `ingress_capacity == 0`: every submission would be shed (or block
    /// forever), so the market could never open an epoch.
    ZeroIngressCapacity,
    /// The epoch policy can never trigger (`ByCount(0)`, a zero
    /// duration, or a hybrid with either).
    EmptyEpochTarget,
    /// More per-epoch default asks than ask slots.
    TooManyAsks {
        /// Default asks configured.
        asks: usize,
        /// Ask slots available (`n_asks`).
        slots: usize,
    },
    /// A zero session deadline would ⊥ every epoch on arrival.
    ZeroSessionDeadline,
    /// The write-ahead journal could not be created, recovered, or is
    /// misconfigured.
    Journal(JournalError),
    /// A mechanism spec string does not parse (unknown mechanism, or a
    /// parameter that does not belong to it).
    MechanismSpec {
        /// The spec text as given.
        spec: String,
        /// Why it was rejected.
        reason: String,
    },
    /// A recovered journal was sealed under a different mechanism than
    /// the one this market is configured to clear with; re-clearing its
    /// unsealed epochs would fork the settlement history.
    MechanismMismatch {
        /// Mechanism name recorded in the journal's seals.
        journaled: String,
        /// Mechanism the market was configured to run.
        configured: String,
    },
}

impl fmt::Display for MarketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarketError::Run(e) => write!(f, "{e}"),
            MarketError::NoUserSlots => {
                write!(f, "n_users must be non-zero: no bid could ever be accepted")
            }
            MarketError::ZeroIngressCapacity => {
                write!(f, "ingress queue capacity must be non-zero")
            }
            MarketError::EmptyEpochTarget => {
                write!(f, "epoch policy can never trigger (zero count or zero duration)")
            }
            MarketError::TooManyAsks { asks, slots } => {
                write!(f, "{asks} default asks configured but only {slots} ask slots")
            }
            MarketError::ZeroSessionDeadline => {
                write!(f, "session deadline must be non-zero or every epoch reads ⊥")
            }
            MarketError::Journal(e) => write!(f, "journal: {e}"),
            MarketError::MechanismSpec { spec, reason } => {
                write!(f, "mechanism spec `{spec}`: {reason}")
            }
            MarketError::MechanismMismatch { journaled, configured } => write!(
                f,
                "journal was sealed under mechanism `{journaled}` but this market is \
                 configured for `{configured}`; refusing to re-clear recovered epochs \
                 under a different mechanism"
            ),
        }
    }
}

impl Error for MarketError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MarketError::Run(e) => Some(e),
            MarketError::Journal(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dauctioneer_core::ConfigError;
    use dauctioneer_types::{Bw, Money, SessionId};

    #[test]
    fn default_config_is_valid() {
        assert!(MarketConfig::new(3, 1, 8, 1).validate().is_ok());
    }

    #[test]
    fn rejects_bad_framework() {
        assert!(matches!(
            MarketConfig::new(2, 1, 8, 0).validate(),
            Err(MarketError::Run(RunError::Framework(ConfigError::TooFewProviders { m: 2, k: 1 })))
        ));
    }

    #[test]
    fn rejects_zero_capacity_ingress() {
        let mut cfg = MarketConfig::new(3, 1, 8, 0);
        cfg.ingress_capacity = 0;
        assert!(matches!(cfg.validate(), Err(MarketError::ZeroIngressCapacity)));
    }

    #[test]
    fn rejects_untriggerable_epoch_policies() {
        for epoch in [
            EpochPolicy::ByCount(0),
            EpochPolicy::ByTime(Duration::ZERO),
            EpochPolicy::Hybrid { count: 0, max_wait: Duration::from_secs(1) },
            EpochPolicy::Hybrid { count: 4, max_wait: Duration::ZERO },
        ] {
            let cfg = MarketConfig::new(3, 1, 8, 0).with_epoch(epoch);
            assert!(matches!(cfg.validate(), Err(MarketError::EmptyEpochTarget)), "{epoch:?}");
        }
    }

    #[test]
    fn rejects_more_asks_than_slots() {
        let ask = ProviderAsk::new(Money::from_f64(0.2), Bw::from_f64(1.0));
        let cfg = MarketConfig::new(3, 1, 8, 1).with_asks(vec![ask; 2]);
        assert!(matches!(cfg.validate(), Err(MarketError::TooManyAsks { asks: 2, slots: 1 })));
    }

    #[test]
    fn rejects_zero_users_and_zero_deadline() {
        assert!(matches!(MarketConfig::new(3, 1, 0, 0).validate(), Err(MarketError::NoUserSlots)));
        let mut cfg = MarketConfig::new(3, 1, 8, 0);
        cfg.session_deadline = Duration::ZERO;
        assert!(matches!(cfg.validate(), Err(MarketError::ZeroSessionDeadline)));
    }

    #[test]
    fn rejects_bad_chaos_plans_and_out_of_range_adversaries() {
        let cfg = MarketConfig::new(3, 1, 8, 0).with_chaos(FaultPlan::seeded(1).with_drop(2.0));
        assert!(matches!(cfg.validate(), Err(MarketError::Run(RunError::Chaos(_)))));
        let cfg =
            MarketConfig::new(3, 1, 8, 0).with_adversary(ProviderId(3), AdversaryKind::Replay);
        assert!(matches!(
            cfg.validate(),
            Err(MarketError::Run(RunError::AdversaryOutOfRange { provider: 3, m: 3 }))
        ));
        let cfg = MarketConfig::new(3, 1, 8, 0)
            .with_chaos(FaultPlan::seeded(1).with_drop(0.1))
            .with_adversary(ProviderId(2), AdversaryKind::Silent { after: 4 });
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn errors_display_their_constraint() {
        assert!(MarketError::ZeroIngressCapacity.to_string().contains("non-zero"));
        let collected = MarketError::Run(RunError::CollectedLength(SessionId(3)));
        assert!(collected.to_string().contains("one collected vector per provider"));
        assert!(MarketError::EmptyEpochTarget.to_string().contains("never trigger"));
    }
}
