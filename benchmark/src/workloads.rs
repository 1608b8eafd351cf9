//! The five workloads: their fixed parameters, how a run is sized from
//! `--seconds`, and the seeded generator that makes every input.
//!
//! The rates here are constants on purpose. A paced rate sits near 30 % of
//! the capacity measured on the reference box (2 cores) and is never derived
//! at run time; a capacity-phase bid count is `nominal capacity × share of
//! the run`, so a faster program finishes the same work sooner instead of
//! being handed more.

use std::path::Path;
use std::time::Duration;

use dauctioneer_core::TransportKind;
use dauctioneer_market::{
    Backpressure, EpochPolicy, FsyncPolicy, JournalConfig, MarketConfig, MechanismSpec,
    TelemetryConfig,
};
use dauctioneer_types::UserBid;
use dauctioneer_workload::{epoch_supply, ArrivalProcess};

/// Seed used when none is given; the digests in `expected_digests.json` are
/// for this seed at `DEFAULT_SECONDS`.
pub const DEFAULT_SEED: u64 = 20_160_627;
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 24.0;
/// `--smoke` runs every workload at 1/20 of its size.
pub const SMOKE_DIVISOR: f64 = 20.0;

/// Share of `--seconds` spent in the paced (open-loop) phase.
const PACED_SHARE: f64 = 0.5;
/// Share of `--seconds` the capacity (closed-loop) phase takes at nominal
/// capacity; the rest of the run is warm-up, drain, checks and the journal's
/// read side.
const CAPACITY_SHARE: f64 = 0.35;
/// The cluster has no paced phase, so its closed loop gets both shares.
const CLUSTER_SHARE: f64 = 0.8;
/// Closed-loop epochs cleared before anything is timed (caches, lazy set-up,
/// TCP windows).
pub const WARMUP_EPOCHS: usize = 32;
/// Unsealed epochs the recovery drill journals before restarting.
pub const RECOVERY_EPOCHS: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    Double,
    Standard,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why the workload exists (the `why` of `BENCHMARK.json`).
    pub why: &'static str,
    pub m: usize,
    pub k: usize,
    pub n_users: usize,
    /// `EpochPolicy::ByCount` target. Users are assigned round-robin, so with
    /// `n_users` a multiple of it no bid is ever a duplicate.
    pub epoch_bids: usize,
    pub mechanism: Mechanism,
    pub transport: TransportKind,
    pub journaled: bool,
    /// `Coordinator` + `run_provider` threads instead of a `MarketService`.
    pub cluster: bool,
    /// Open-loop arrival rate, bids/s (unused by the cluster).
    pub paced_rate: f64,
    /// Capacity measured on the reference box, bids/s; sizes the fixed
    /// closed-loop bid count and nothing else.
    pub nominal_capacity: f64,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "steady_inproc",
        why: "Reference market: time splits between ingress/service folding and core protocol blocks; wire, disk and solver near zero, so wins there must show no change here.",
        m: 3,
        k: 1,
        n_users: 256,
        epoch_bids: 128,
        mechanism: Mechanism::Double,
        transport: TransportKind::InProc,
        journaled: false,
        cluster: false,
        paced_rate: 40_000.0,
        nominal_capacity: 160_000.0,
    },
    Workload {
        name: "small_epochs_tcp",
        why: "Thousands of 8-bid sessions over one loopback MuxMesh: per-epoch fixed cost (rounds, frame encode, reactor wake-ups, pool dispatch) does the work, the allocator almost none.",
        m: 5,
        k: 2,
        n_users: 16,
        epoch_bids: 8,
        mechanism: Mechanism::Double,
        transport: TransportKind::Tcp,
        journaled: false,
        cluster: false,
        paced_rate: 2_000.0,
        nominal_capacity: 7_000.0,
    },
    Workload {
        name: "durable_fsync",
        why: "steady_inproc plus a write-ahead journal with fsync=always: journal append and fsync dominate; group commit should raise capacity here and move nothing on steady_inproc.",
        m: 3,
        k: 1,
        n_users: 256,
        epoch_bids: 128,
        mechanism: Mechanism::Double,
        transport: TransportKind::InProc,
        journaled: true,
        cluster: false,
        paced_rate: 1_000.0,
        nominal_capacity: 4_600.0,
    },
    Workload {
        name: "standard_vcg",
        why: "The paper's parallelised VCG (Algorithm 1): branch-and-bound clearing across allocator tasks is nearly all of the protocol's processor work; solver work shows here and only here.",
        m: 5,
        k: 1,
        n_users: 12,
        epoch_bids: 12,
        mechanism: Mechanism::Standard,
        transport: TransportKind::InProc,
        journaled: false,
        cluster: false,
        paced_rate: 1_200.0,
        nominal_capacity: 4_800.0,
    },
    Workload {
        name: "cluster_epochs",
        why: "The deployed path: coordinator plus three provider threads over loopback control sockets and a fresh mux mesh per epoch; persistent meshes should cut epoch time here only.",
        m: 3,
        k: 1,
        n_users: 64,
        epoch_bids: 64,
        mechanism: Mechanism::Double,
        transport: TransportKind::Tcp,
        journaled: false,
        cluster: true,
        paced_rate: 0.0,
        nominal_capacity: 30_000.0,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Epoch counts of one run, fixed by `--seconds` alone.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub warmup_epochs: usize,
    pub paced_epochs: usize,
    pub capacity_epochs: usize,
}

impl Sizes {
    pub fn total_epochs(&self) -> usize {
        self.warmup_epochs + self.paced_epochs + self.capacity_epochs
    }
}

impl Workload {
    pub fn sizes(&self, seconds: f64) -> Sizes {
        let epochs = |bids: f64| ((bids / self.epoch_bids as f64).round() as usize).max(4);
        if self.cluster {
            return Sizes {
                warmup_epochs: 8,
                paced_epochs: 0,
                capacity_epochs: epochs(self.nominal_capacity * seconds * CLUSTER_SHARE),
            };
        }
        Sizes {
            warmup_epochs: WARMUP_EPOCHS,
            paced_epochs: epochs(self.paced_rate * seconds * PACED_SHARE),
            capacity_epochs: epochs(self.nominal_capacity * seconds * CAPACITY_SHARE),
        }
    }

    pub fn n_asks(&self) -> usize {
        match self.mechanism {
            Mechanism::Double => self.m,
            Mechanism::Standard => 0,
        }
    }

    pub fn mechanism_spec(&self) -> MechanismSpec {
        let text = match self.mechanism {
            Mechanism::Double => "double",
            Mechanism::Standard => "standard",
        };
        text.parse().expect("built-in mechanism spec")
    }

    /// The market under test. Everything not set here is the program's
    /// default (1024-deep ingress, one shard, 60 s session deadline).
    pub fn market_config(
        &self,
        seed: u64,
        journal: Option<&Path>,
        telemetry: TelemetryConfig,
    ) -> MarketConfig {
        let mut config = MarketConfig::new(self.m, self.k, self.n_users, self.n_asks())
            .with_epoch(EpochPolicy::ByCount(self.epoch_bids))
            .with_transport(self.transport, 1)
            .with_mechanism(self.mechanism_spec())
            .with_telemetry(telemetry);
        if self.mechanism == Mechanism::Double {
            config = config.with_asks(epoch_supply(self.m, self.epoch_bids as f64));
        }
        if let Some(path) = journal {
            config = config.with_journal(JournalConfig::new(path).with_fsync(FsyncPolicy::Always));
        }
        // One submitter, blocking ingress: nothing is shed, overload shows
        // as lateness (paced) or as the measured capacity (closed loop).
        config.backpressure = Backpressure::Block;
        config.seed = seed;
        config
    }
}

/// One bid of the paced phase: what to submit and when it is due.
#[derive(Debug, Clone, Copy)]
pub struct PacedBid {
    /// Offset from the start of the paced phase.
    pub due: Duration,
    pub bid: UserBid,
}

/// Every input of one market run, made from the seed before the clock
/// starts. Bid `i` of the whole run (warm-up, then paced, then capacity)
/// belongs to user `i % n_users` and, with `ByCount` epochs fed by one FIFO
/// submitter, to epoch `i / epoch_bids`.
#[derive(Debug)]
pub struct Inputs {
    pub warmup: Vec<UserBid>,
    pub paced: Vec<PacedBid>,
    pub capacity: Vec<UserBid>,
}

impl Inputs {
    pub fn generate(w: &Workload, sizes: Sizes, seed: u64) -> Inputs {
        // Contents follow the paper's §6.2 bidder population; the schedule is
        // a Poisson process at the workload's fixed rate. Users are not
        // taken from the stream: they are assigned round-robin.
        let paced = ArrivalProcess::poisson(w.n_users, w.paced_rate, seed)
            .iter()
            .take(sizes.paced_epochs * w.epoch_bids)
            .map(|a| PacedBid { due: a.at, bid: a.bid })
            .collect();
        let mut closed_loop =
            ArrivalProcess::poisson(w.n_users, 1.0, seed ^ 0x5EED_CA9A_C177).iter().map(|a| a.bid);
        let warmup = closed_loop.by_ref().take(sizes.warmup_epochs * w.epoch_bids).collect();
        let capacity = closed_loop.take(sizes.capacity_epochs * w.epoch_bids).collect();
        Inputs { warmup, paced, capacity }
    }

    pub fn total_bids(&self) -> usize {
        self.warmup.len() + self.paced.len() + self.capacity.len()
    }

    /// Bid `index` of the whole run.
    pub fn bid(&self, index: usize) -> UserBid {
        if index < self.warmup.len() {
            return self.warmup[index];
        }
        let index = index - self.warmup.len();
        if index < self.paced.len() {
            return self.paced[index].bid;
        }
        self.capacity[index - self.paced.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_users_never_collide_within_an_epoch() {
        for w in WORKLOADS.iter().filter(|w| !w.cluster) {
            assert_eq!(w.n_users % w.epoch_bids, 0, "{}", w.name);
            assert!(w.m > 2 * w.k, "{}", w.name);
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        let w = by_name("small_epochs_tcp").unwrap();
        let sizes = w.sizes(1.0);
        let a = Inputs::generate(w, sizes, 7);
        let b = Inputs::generate(w, sizes, 7);
        let c = Inputs::generate(w, sizes, 8);
        assert_eq!(a.total_bids(), sizes.total_epochs() * w.epoch_bids);
        assert!((0..a.total_bids()).all(|i| a.bid(i) == b.bid(i)));
        assert!((0..a.total_bids()).any(|i| a.bid(i) != c.bid(i)));
        assert!(a.paced.windows(2).all(|p| p[0].due <= p[1].due));
    }
}
