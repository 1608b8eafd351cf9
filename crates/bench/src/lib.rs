//! Benchmark harness utilities: timing, statistics, shared flags and
//! table rendering for the binaries under `src/bin/`.
//!
//! The end-to-end bid→seal numbers and the per-layer costs live in the
//! repo benchmark (`benchmark/`). The binaries here cover what it does
//! not. Some reproduce the paper's evaluation:
//!
//! * `fig4` — double-auction running time vs `n` (§6.2, Figure 4),
//! * `fig5` — standard-auction running time vs `n` and parallelism
//!   (§6.3, Figure 5),
//! * `ablation_blocks` — per-block overhead breakdown (ours),
//! * `ablation_knobs` — hash-only validation and ε sweeps (ours),
//! * `winner_determination` — combinatorial winner determination vs
//!   bid count, and `calibrate` — solver sizing for `fig5`.
//!
//! The others measure what no benchmark workload covers: `chaos_sweep`
//! (the chaos contract suite), `batch_throughput` (multi-session batches
//! and hub shards), `telemetry_overhead` (telemetry plane on vs off) and
//! `mesh_sweep` (the reactor mesh at m = 4…32).
//!
//! Binaries print aligned tables to stdout and, with `--csv`, raw CSV
//! suitable for plotting. `winner_determination` and the four binaries
//! of the second list additionally take `--json`, writing a
//! machine-readable `BENCH_<name>.json` (configuration + results) via
//! [`json`]; `ci/compare_bench.py` gates all of them but
//! `chaos_sweep`'s. Every binary takes `--help`, and exits 2 on an unknown
//! flag or an unusable value ([`dauctioneer::cli`]).
//!
//! [`WithCoin`] forces the allocator's common coin on a program that would
//! skip it, for the figures that reproduce the paper's pipeline.

pub mod json;

use std::time::{Duration, Instant};

use bytes::Bytes;
use dauctioneer::cli::Flags;
use dauctioneer_core::{AllocatorProgram, FrameworkConfig, TaskGraphSpec, TaskId};
use dauctioneer_mechanisms::SharedRng;
use dauctioneer_types::{AuctionResult, BidVector};

/// Runs `P` with the allocator's common coin even if `P` reads no shared
/// randomness, so a figure keeps the paper's full §4.2 pipeline
/// (validation → coin → tasks). Everything else is `P`'s.
#[derive(Debug, Clone, Default)]
pub struct WithCoin<P>(pub P);

impl<P: AllocatorProgram> AllocatorProgram for WithCoin<P> {
    fn task_graph(&self, cfg: &FrameworkConfig) -> TaskGraphSpec {
        self.0.task_graph(cfg)
    }

    fn run_task(
        &self,
        task: TaskId,
        spec: &TaskGraphSpec,
        bids: &BidVector,
        dep_values: &[Bytes],
        shared: &SharedRng,
    ) -> Bytes {
        self.0.run_task(task, spec, bids, dep_values, shared)
    }

    fn finish(&self, bids: &BidVector, final_value: &Bytes) -> Option<AuctionResult> {
        self.0.finish(bids, final_value)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn reads_shared_randomness(&self) -> bool {
        true
    }
}

/// Statistics over repeated measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Arithmetic mean in seconds.
    pub mean_s: f64,
    /// Minimum in seconds.
    pub min_s: f64,
    /// Maximum in seconds.
    pub max_s: f64,
}

impl Stats {
    /// Summarise a set of durations.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn of(samples: &[Duration]) -> Stats {
        assert!(!samples.is_empty(), "no samples");
        let secs: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
        let mean_s = secs.iter().sum::<f64>() / secs.len() as f64;
        let min_s = secs.iter().copied().fold(f64::INFINITY, f64::min);
        let max_s = secs.iter().copied().fold(0.0, f64::max);
        Stats { mean_s, min_s, max_s }
    }
}

/// Time one closure invocation.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// A simple aligned-columns table writer that can also emit CSV.
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    csv: bool,
}

impl Table {
    /// Start a table with the given column names. With `csv`, rendering
    /// produces comma-separated values instead of aligned columns.
    pub fn new(header: &[&str], csv: bool) -> Table {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new(), csv }
    }

    /// Append one row (must match the header length).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        if self.csv {
            let mut out = self.header.join(",");
            out.push('\n');
            for row in &self.rows {
                out.push_str(&row.join(","));
                out.push('\n');
            }
            return out;
        }
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Format seconds with adaptive precision.
pub fn fmt_secs(s: f64) -> String {
    if s < 0.001 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// The flags the figure binaries share: `--csv`, `--rounds N`, `--quick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommonArgs {
    /// Emit CSV instead of an aligned table.
    pub csv: bool,
    /// Measurement rounds per configuration.
    pub rounds: usize,
    /// Reduced sweep for CI / smoke runs.
    pub quick: bool,
}

impl CommonArgs {
    /// Defaults: aligned table, `rounds` rounds, full sweep.
    pub fn new(rounds: usize) -> CommonArgs {
        CommonArgs { csv: false, rounds, quick: false }
    }

    /// `flags` plus the three entries that set these fields.
    pub fn flags<'a>(&'a mut self, flags: Flags<'a>) -> Flags<'a> {
        flags
            .switch("--csv", "emit CSV instead of an aligned table", &mut self.csv)
            .value("--rounds N", "measurement rounds per configuration", &mut self.rounds)
            .switch("--quick", "reduced sweep for CI and smoke runs", &mut self.quick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_summarise() {
        let s = Stats::of(&[
            Duration::from_millis(10),
            Duration::from_millis(20),
            Duration::from_millis(30),
        ]);
        assert!((s.mean_s - 0.020).abs() < 1e-9);
        assert!((s.min_s - 0.010).abs() < 1e-9);
        assert!((s.max_s - 0.030).abs() < 1e-9);
    }

    #[test]
    fn table_renders_aligned_and_csv() {
        let mut t = Table::new(&["n", "time"], false);
        t.row(vec!["100".into(), "1.5ms".into()]);
        let s = t.render();
        assert!(s.contains('n'));
        assert!(s.contains("100"));
        let mut t = Table::new(&["n", "time"], true);
        t.row(vec!["100".into(), "0.0015".into()]);
        assert_eq!(t.render(), "n,time\n100,0.0015\n");
    }

    #[test]
    fn fmt_secs_adapts() {
        assert!(fmt_secs(0.0000005).ends_with("µs"));
        assert!(fmt_secs(0.005).ends_with("ms"));
        assert!(fmt_secs(2.0).ends_with('s'));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new(&["a"], false);
        t.row(vec!["1".into(), "2".into()]);
    }
}
