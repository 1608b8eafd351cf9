//! The repo benchmark: bid→seal latency and sealed-bid capacity on five
//! workloads, measured from outside the program through its public items,
//! with an outside-in per-layer budget from a separate traced run.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line (driver protocol)
//! benchmark run       [--workload W] [--seed N] [--seconds S] [--rounds R] [--smoke]
//! benchmark trace     [--workload W] [--seed N] [--seconds S] [--smoke]
//! benchmark selfcheck [--rounds R] [--seconds S] [--smoke]
//! benchmark compare A.json B.json
//! benchmark manifest                                         print BENCHMARK.json
//! ```
//!
//! See `README.md` next to this crate for what each number means.

pub mod child;
pub mod cli;
pub mod cluster_run;
pub mod compare;
pub mod json;
pub mod layers;
pub mod market_run;
pub mod metrics;
pub mod parent;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;
