//! Live observability for a running market: counters, epoch-close
//! latency percentiles, per-reason abort attribution, and sustained
//! throughput.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dauctioneer_net::ChaosStats;
use dauctioneer_telemetry::{AbortReason, Histogram};

use crate::journal::Journal;

/// How many of the most recent epoch latencies the percentile window
/// keeps. Bounds memory and per-snapshot sort cost for a daemon that
/// closes epochs for weeks; 4096 epochs is plenty for stable p50/p99.
pub(crate) const LATENCY_WINDOW: usize = 4096;

/// Shared mutable state behind [`MarketStats`] snapshots.
#[derive(Debug)]
pub(crate) struct StatsShared {
    started: Instant,
    pub(crate) epochs_cleared: AtomicU64,
    pub(crate) epochs_aborted: AtomicU64,
    /// Pool drives that cleared epochs: one per group of epochs a
    /// clearer took off its queue together.
    pub(crate) clear_groups: AtomicU64,
    pub(crate) bids_accepted: AtomicU64,
    pub(crate) bids_rejected_invalid: AtomicU64,
    pub(crate) bids_rejected_duplicate: AtomicU64,
    pub(crate) bids_rejected_unknown: AtomicU64,
    pub(crate) asks_set: AtomicU64,
    pub(crate) asks_rejected: AtomicU64,
    /// Epoch close → unanimous outcome latency, the most recent
    /// [`LATENCY_WINDOW`] samples (one per epoch).
    latencies: Mutex<VecDeque<Duration>>,
    /// The same latencies as a live log₂ histogram (microseconds),
    /// unbounded in time: this is what the scrape endpoint exposes as
    /// cumulative `_bucket` rows, next to the windowed percentiles.
    pub(crate) close_latency_us: Histogram,
    /// Aborted epochs by [`AbortReason`], indexed per
    /// [`AbortReason::ALL`]. Sums to `epochs_aborted` by construction:
    /// both are bumped in [`StatsShared::record_epoch`].
    aborted_by_reason: [AtomicU64; AbortReason::ALL.len()],
    worker_threads: usize,
    /// The mechanism the market clears with; labels
    /// `market_epochs_cleared_total` on the scrape endpoint.
    pub(crate) mechanism: &'static str,
}

impl StatsShared {
    pub(crate) fn new(worker_threads: usize, mechanism: &'static str) -> StatsShared {
        StatsShared {
            started: Instant::now(),
            epochs_cleared: AtomicU64::new(0),
            epochs_aborted: AtomicU64::new(0),
            clear_groups: AtomicU64::new(0),
            bids_accepted: AtomicU64::new(0),
            bids_rejected_invalid: AtomicU64::new(0),
            bids_rejected_duplicate: AtomicU64::new(0),
            bids_rejected_unknown: AtomicU64::new(0),
            asks_set: AtomicU64::new(0),
            asks_rejected: AtomicU64::new(0),
            latencies: Mutex::new(VecDeque::with_capacity(64)),
            close_latency_us: Histogram::new(),
            aborted_by_reason: std::array::from_fn(|_| AtomicU64::new(0)),
            worker_threads,
            mechanism,
        }
    }

    /// Index of `reason` in the per-reason counter array.
    fn reason_slot(reason: AbortReason) -> usize {
        AbortReason::ALL.iter().position(|r| *r == reason).expect("reason in ALL")
    }

    pub(crate) fn record_epoch(&self, latency: Duration, abort: Option<AbortReason>) {
        // The per-epoch survivability split: under fault injection the
        // interesting question is how many epochs still cleared. The
        // closed total is *derived* from the split at snapshot time, so
        // `epochs_closed == epochs_cleared + epochs_aborted` holds in
        // every snapshot by construction, not by update ordering.
        match abort {
            Some(reason) => {
                self.epochs_aborted.fetch_add(1, Ordering::Relaxed);
                self.aborted_by_reason[StatsShared::reason_slot(reason)]
                    .fetch_add(1, Ordering::Relaxed);
            }
            None => {
                self.epochs_cleared.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.close_latency_us.observe(latency.as_micros().min(u64::MAX as u128) as u64);
        let mut window = self.latencies.lock().expect("stats lock");
        if window.len() == LATENCY_WINDOW {
            window.pop_front();
        }
        window.push_back(latency);
    }

    /// Count an abort attribution without closing an epoch: the
    /// journal's fail-stop path records its reason here right before the
    /// process dies, so the flight dump's final stats carry it.
    pub(crate) fn record_abort_reason(&self, reason: AbortReason) {
        self.epochs_aborted.fetch_add(1, Ordering::Relaxed);
        self.aborted_by_reason[StatsShared::reason_slot(reason)].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(
        &self,
        shed_bids: u64,
        shed_asks: u64,
        enqueued: u64,
        queue_depth: usize,
        journal: Option<&Journal>,
        chaos: ChaosStats,
    ) -> MarketStats {
        let latencies: Vec<Duration> =
            self.latencies.lock().expect("stats lock").iter().copied().collect();
        let epochs_cleared = self.epochs_cleared.load(Ordering::Relaxed);
        let epochs_aborted = self.epochs_aborted.load(Ordering::Relaxed);
        let epochs_closed = epochs_cleared + epochs_aborted;
        let uptime = self.started.elapsed();
        MarketStats {
            uptime,
            mechanism: self.mechanism,
            epochs_closed,
            epochs_cleared,
            epochs_aborted,
            clear_groups: self.clear_groups.load(Ordering::Relaxed),
            epochs_aborted_by_reason: AbortBreakdown {
                counts: std::array::from_fn(|i| self.aborted_by_reason[i].load(Ordering::Relaxed)),
            },
            chaos,
            bids_enqueued: enqueued,
            bids_accepted: self.bids_accepted.load(Ordering::Relaxed),
            bids_shed: shed_bids,
            asks_shed: shed_asks,
            bids_rejected_invalid: self.bids_rejected_invalid.load(Ordering::Relaxed),
            bids_rejected_duplicate: self.bids_rejected_duplicate.load(Ordering::Relaxed),
            bids_rejected_unknown: self.bids_rejected_unknown.load(Ordering::Relaxed),
            asks_set: self.asks_set.load(Ordering::Relaxed),
            asks_rejected: self.asks_rejected.load(Ordering::Relaxed),
            queue_depth,
            epoch_latency_p50: percentile(&latencies, 0.50),
            epoch_latency_p99: percentile(&latencies, 0.99),
            sessions_per_sec: if uptime.is_zero() {
                0.0
            } else {
                epochs_closed as f64 / uptime.as_secs_f64()
            },
            worker_threads: self.worker_threads,
            journal_bytes: journal.map_or(0, Journal::bytes_written),
            journal_fsyncs: journal.map_or(0, Journal::fsyncs),
            journal_fsync_mean: journal.map_or(Duration::ZERO, Journal::fsync_mean),
            journal_fsync_max: journal.map_or(Duration::ZERO, Journal::fsync_max),
        }
    }
}

/// Nearest-rank percentile over the recorded samples (zero when none).
fn percentile(samples: &[Duration], q: f64) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = samples.to_vec();
    sorted.sort();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Aborted-epoch counts broken down by [`AbortReason`] — the answer to
/// *why* epochs aborted, where [`MarketStats::epochs_aborted`] only says
/// how many.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AbortBreakdown {
    /// Counts indexed per [`AbortReason::ALL`].
    counts: [u64; AbortReason::ALL.len()],
}

impl AbortBreakdown {
    /// Aborts attributed to `reason`.
    pub fn get(&self, reason: AbortReason) -> u64 {
        self.counts[AbortReason::ALL.iter().position(|r| *r == reason).expect("reason in ALL")]
    }

    /// Sum over all reasons; equals [`MarketStats::epochs_aborted`] in
    /// any snapshot.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(reason, count)` pairs in [`AbortReason::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (AbortReason, u64)> + '_ {
        AbortReason::ALL.into_iter().zip(self.counts.iter().copied())
    }
}

/// Point-in-time view of a running (or just-drained) market.
#[derive(Debug, Clone, PartialEq)]
pub struct MarketStats {
    /// Time since the service started.
    pub uptime: Duration,
    /// The mechanism this market clears epochs with (the program's
    /// `AllocatorProgram::name`).
    pub mechanism: &'static str,
    /// Epochs closed and dispatched as sessions so far
    /// (`epochs_cleared + epochs_aborted`).
    pub epochs_closed: u64,
    /// Epochs whose session reached a unanimous non-⊥ outcome — the
    /// survivability numerator under fault injection.
    pub epochs_cleared: u64,
    /// Epochs whose session read ⊥ (deadline, faults, or adversarial
    /// providers).
    pub epochs_aborted: u64,
    /// Pool drives that cleared epochs. A shard's clearer drives every
    /// epoch already queued for it (up to a small fixed cap) as one
    /// group, so `epochs_closed / clear_groups` is the mean group size:
    /// 1 for a paced market, up to the cap under saturation.
    pub clear_groups: u64,
    /// `epochs_aborted` broken down by [`AbortReason`]; the totals
    /// agree in every snapshot.
    pub epochs_aborted_by_reason: AbortBreakdown,
    /// Faults the chaos plan actually injected into the persistent mesh
    /// (all zeros on a clean network).
    pub chaos: ChaosStats,
    /// Submissions (bids and asks) that entered the ingress queue.
    pub bids_enqueued: u64,
    /// Bids accepted into an epoch's collectors.
    pub bids_accepted: u64,
    /// Bids shed at the full ingress queue
    /// ([`crate::Backpressure::Shed`]).
    pub bids_shed: u64,
    /// Asks shed at the full ingress queue.
    pub asks_shed: u64,
    /// Bids rejected by the §3.2 validity rules (slot reads ⊥).
    pub bids_rejected_invalid: u64,
    /// Bids rejected as duplicates (first submission kept).
    pub bids_rejected_duplicate: u64,
    /// Bids naming an out-of-range user (or asks an out-of-range slot).
    pub bids_rejected_unknown: u64,
    /// Streamed asks applied to an open epoch.
    pub asks_set: u64,
    /// Streamed asks rejected for an out-of-range slot.
    pub asks_rejected: u64,
    /// Submissions currently queued, not yet applied to an epoch.
    pub queue_depth: usize,
    /// Median epoch-close latency (epoch close → unanimous outcome)
    /// over the most recent epochs (bounded window).
    pub epoch_latency_p50: Duration,
    /// 99th-percentile epoch-close latency (nearest rank) over the most
    /// recent epochs (bounded window).
    pub epoch_latency_p99: Duration,
    /// Sustained throughput: epochs closed per second of uptime.
    pub sessions_per_sec: f64,
    /// Provider worker threads spawned at startup (`m × shards`);
    /// constant for the life of the service — epochs never spawn.
    pub worker_threads: usize,
    /// Bytes appended to the write-ahead journal (0 when journaling is
    /// off; includes a recovered journal's valid prefix).
    pub journal_bytes: u64,
    /// Explicit journal fsyncs performed (0 under
    /// [`crate::FsyncPolicy::Never`] until shutdown's final sync).
    pub journal_fsyncs: u64,
    /// Mean journal fsync latency.
    pub journal_fsync_mean: Duration,
    /// Worst journal fsync latency observed.
    pub journal_fsync_max: Duration,
}

impl MarketStats {
    /// Total submissions the service has seen a verdict for (accepted,
    /// shed, or rejected) — asks excluded.
    pub fn bids_seen(&self) -> u64 {
        self.bids_accepted
            + self.bids_shed
            + self.bids_rejected_invalid
            + self.bids_rejected_duplicate
            + self.bids_rejected_unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&ms, 0.50), Duration::from_millis(50));
        assert_eq!(percentile(&ms, 0.99), Duration::from_millis(99));
        assert_eq!(percentile(&ms[..1], 0.99), Duration::from_millis(1));
        assert_eq!(percentile(&[], 0.5), Duration::ZERO);
    }

    #[test]
    fn snapshot_reports_counters() {
        let s = StatsShared::new(6, "double-auction");
        s.bids_accepted.store(10, Ordering::Relaxed);
        s.record_epoch(Duration::from_millis(5), None);
        s.record_epoch(Duration::from_millis(7), Some(AbortReason::Deadline));
        s.clear_groups.store(1, Ordering::Relaxed);
        let snap = s.snapshot(3, 2, 14, 1, None, ChaosStats::default());
        assert_eq!(snap.epochs_closed, 2);
        assert_eq!(snap.clear_groups, 1, "both epochs cleared in one drive");
        assert_eq!(snap.epochs_cleared, 1);
        assert_eq!(snap.epochs_aborted, 1);
        assert_eq!(snap.epochs_cleared + snap.epochs_aborted, snap.epochs_closed);
        assert_eq!(snap.epochs_aborted_by_reason.get(AbortReason::Deadline), 1);
        assert_eq!(snap.epochs_aborted_by_reason.total(), snap.epochs_aborted);
        assert_eq!(snap.bids_accepted, 10);
        assert_eq!(snap.bids_shed, 3);
        assert_eq!(snap.asks_shed, 2);
        assert_eq!(snap.queue_depth, 1);
        assert_eq!(snap.worker_threads, 6);
        assert_eq!(snap.epoch_latency_p50, Duration::from_millis(5));
        assert_eq!(snap.epoch_latency_p99, Duration::from_millis(7));
        assert_eq!(snap.bids_seen(), 13, "shed asks must not count as bids");
        assert!(snap.sessions_per_sec > 0.0);
        assert_eq!(snap.chaos.total(), 0);
        // The live histogram saw both epochs.
        assert_eq!(s.close_latency_us.count(), 2);
        assert_eq!(s.close_latency_us.sum(), 12_000);
    }

    #[test]
    fn abort_breakdown_attributes_every_reason() {
        let s = StatsShared::new(1, "double-auction");
        for reason in AbortReason::ALL {
            s.record_epoch(Duration::from_millis(1), Some(reason));
        }
        s.record_abort_reason(AbortReason::JournalFailStop);
        let snap = s.snapshot(0, 0, 0, 0, None, ChaosStats::default());
        assert_eq!(snap.epochs_aborted, AbortReason::ALL.len() as u64 + 1);
        assert_eq!(snap.epochs_aborted_by_reason.total(), snap.epochs_aborted);
        assert_eq!(snap.epochs_aborted_by_reason.get(AbortReason::JournalFailStop), 2);
        for (reason, count) in snap.epochs_aborted_by_reason.iter() {
            let expected = if reason == AbortReason::JournalFailStop { 2 } else { 1 };
            assert_eq!(count, expected, "{reason}");
        }
    }

    #[test]
    fn latency_window_is_bounded() {
        let s = StatsShared::new(1, "double-auction");
        for i in 0..(LATENCY_WINDOW as u64 + 500) {
            s.record_epoch(Duration::from_micros(i), None);
        }
        let snap = s.snapshot(0, 0, 0, 0, None, ChaosStats::default());
        assert_eq!(snap.epochs_closed, LATENCY_WINDOW as u64 + 500);
        // The window dropped the oldest samples: the median reflects the
        // recent half, not the all-time half.
        assert!(snap.epoch_latency_p50 >= Duration::from_micros(500));
    }
}
