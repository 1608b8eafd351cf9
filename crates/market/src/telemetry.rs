//! The market ↔ registry adapter: re-export a running market's existing
//! counters ([`MarketStats`], [`dauctioneer_net::TrafficSnapshot`],
//! [`dauctioneer_net::ChaosStats`], journal and flight-recorder state)
//! as named metric families on a [`Registry`].
//!
//! Everything here is a scrape-time collector over a [`MarketWatch`]:
//! the market keeps its own counters exactly as before, and one
//! registration call makes them scrapeable — no subsystem grows a
//! metrics dependency on its hot path.

use dauctioneer_net::LivenessMetrics;
use dauctioneer_telemetry::{Family, Histogram, MetricKind, Registry, Sample};

use crate::service::MarketWatch;
use crate::stats::MarketStats;

/// Register every market metric family on `registry`, backed by `watch`.
///
/// Families are collected at scrape time from the same shared state
/// [`crate::MarketService::stats`] reads, so a scrape and a stats call
/// always agree. The set of families (and of `reason`/`kind`/`verdict`
/// label values) is fixed, not data-driven: rows appear with value 0
/// from the first scrape, which is what dashboards and rate() queries
/// want.
///
/// # Example
///
/// ```no_run
/// use dauctioneer_core::DoubleAuctionProgram;
/// use dauctioneer_market::{register_market_metrics, MarketConfig, MarketService};
/// use dauctioneer_telemetry::{MetricsServer, Registry};
/// use std::sync::Arc;
///
/// let market = MarketService::start(
///     MarketConfig::new(3, 1, 4, 1),
///     Arc::new(DoubleAuctionProgram::new()),
/// )
/// .unwrap();
/// let registry = Registry::new();
/// register_market_metrics(&registry, market.watch());
/// let server = MetricsServer::bind("127.0.0.1:9615", registry).unwrap();
/// println!("scrape me at http://{}/metrics", server.local_addr());
/// ```
pub fn register_market_metrics(registry: &Registry, watch: MarketWatch) {
    let stats_watch = watch.clone();
    registry.register_collector(move || market_families(&stats_watch.stats()));
    let histogram_watch = watch.clone();
    registry.register_collector(move || {
        let family = |name: &str, help: &str, histogram: Histogram| Family {
            name: name.into(),
            help: help.into(),
            kind: MetricKind::Histogram,
            samples: histogram.to_samples(&[]),
        };
        vec![
            family(
                "market_epoch_close_latency_us",
                "Epoch close to unanimous outcome latency in microseconds (log2 buckets).",
                histogram_watch.close_latency_histogram(),
            ),
            family(
                "market_journal_commit_records",
                "Journal records made durable per fsync: the group-commit batch (log2 buckets).",
                histogram_watch.journal_commit_histogram(),
            ),
        ]
    });
    let net_watch = watch.clone();
    registry.register_collector(move || net_families(&net_watch));
    registry.register_collector(move || flight_families(&watch));
}

/// Register the peer liveness families on `registry`, backed by the
/// shared counters of a [`dauctioneer_net::LivenessTracker`].
///
/// Exports `net_peers_up` (how many peers the liveness layer currently
/// considers reachable — Up or Suspect), `net_peer_reconnects_total`
/// (rejoins after a declared death) and `net_mesh_bringups_total`
/// (epochs the providers cleared over a freshly dialled mesh instead of
/// the one they keep). The coordinator role registers this next to
/// [`register_market_metrics`]-style families so a scrape during an
/// outage shows the dip, the subsequent reconnect, and the re-dial that
/// made the epoch after it slow.
pub fn register_liveness_metrics(registry: &Registry, metrics: LivenessMetrics) {
    registry.register_collector(move || {
        vec![
            Family::single(
                "net_peers_up",
                "Peers the liveness layer currently considers reachable (Up or Suspect).",
                MetricKind::Gauge,
                metrics.peers_up() as f64,
            ),
            Family::single(
                "net_peer_reconnects_total",
                "Peer rejoins after the liveness layer declared them Down.",
                MetricKind::Counter,
                metrics.reconnects_total() as f64,
            ),
            Family::single(
                "net_mesh_bringups_total",
                "Epochs dispatched with an order to dial a fresh provider mesh \
                 (first epoch, roster change, or the epoch after an abort).",
                MetricKind::Counter,
                metrics.mesh_bringups_total() as f64,
            ),
        ]
    });
}

/// The snapshot-derived families: market counters, abort breakdown,
/// chaos counters, journal durability costs.
fn market_families(stats: &MarketStats) -> Vec<Family> {
    let seconds = |d: std::time::Duration| d.as_secs_f64();
    vec![
        Family::single(
            "market_uptime_seconds",
            "Seconds since the market service started.",
            MetricKind::Gauge,
            seconds(stats.uptime),
        ),
        Family {
            name: "market_epochs_cleared_total".into(),
            help: "Epochs whose session reached a unanimous non-bottom outcome.".into(),
            kind: MetricKind::Counter,
            samples: vec![Sample::labelled(
                "mechanism",
                stats.mechanism,
                stats.epochs_cleared as f64,
            )],
        },
        Family {
            name: "market_epochs_aborted_total".into(),
            help: "Epochs that aborted, by classified reason.".into(),
            kind: MetricKind::Counter,
            samples: stats
                .epochs_aborted_by_reason
                .iter()
                .map(|(reason, count)| Sample::labelled("reason", reason.label(), count as f64))
                .collect(),
        },
        Family::single(
            "market_clear_groups_total",
            "Pool drives that cleared epochs; epochs closed per drive is the mean clear group size.",
            MetricKind::Counter,
            stats.clear_groups as f64,
        ),
        Family {
            name: "market_bids_total".into(),
            help: "Bid submissions by verdict.".into(),
            kind: MetricKind::Counter,
            samples: vec![
                Sample::labelled("verdict", "accepted", stats.bids_accepted as f64),
                Sample::labelled("verdict", "shed", stats.bids_shed as f64),
                Sample::labelled("verdict", "rejected_invalid", stats.bids_rejected_invalid as f64),
                Sample::labelled(
                    "verdict",
                    "rejected_duplicate",
                    stats.bids_rejected_duplicate as f64,
                ),
                Sample::labelled("verdict", "rejected_unknown", stats.bids_rejected_unknown as f64),
            ],
        },
        Family {
            name: "market_asks_total".into(),
            help: "Streamed ask submissions by verdict.".into(),
            kind: MetricKind::Counter,
            samples: vec![
                Sample::labelled("verdict", "set", stats.asks_set as f64),
                Sample::labelled("verdict", "shed", stats.asks_shed as f64),
                Sample::labelled("verdict", "rejected", stats.asks_rejected as f64),
            ],
        },
        Family::single(
            "market_submissions_enqueued_total",
            "Submissions that entered the ingress queue.",
            MetricKind::Counter,
            stats.bids_enqueued as f64,
        ),
        Family::single(
            "market_ingress_queue_depth",
            "Submissions queued, not yet folded into an epoch.",
            MetricKind::Gauge,
            stats.queue_depth as f64,
        ),
        Family {
            name: "market_epoch_close_latency_seconds".into(),
            help: "Epoch close latency percentiles over the recent-epoch window.".into(),
            kind: MetricKind::Summary,
            samples: vec![
                Sample::labelled("quantile", "0.5", seconds(stats.epoch_latency_p50)),
                Sample::labelled("quantile", "0.99", seconds(stats.epoch_latency_p99)),
            ],
        },
        Family::single(
            "market_sessions_per_second",
            "Sustained throughput: epochs closed per second of uptime.",
            MetricKind::Gauge,
            stats.sessions_per_sec,
        ),
        Family::single(
            "market_worker_threads",
            "Provider worker threads spawned at startup (m x shards).",
            MetricKind::Gauge,
            stats.worker_threads as f64,
        ),
        Family {
            name: "chaos_faults_injected_total".into(),
            help: "Faults the chaos plan injected into the persistent mesh, by kind.".into(),
            kind: MetricKind::Counter,
            samples: vec![
                Sample::labelled("kind", "dropped", stats.chaos.dropped as f64),
                Sample::labelled("kind", "duplicated", stats.chaos.duplicated as f64),
                Sample::labelled("kind", "reordered", stats.chaos.reordered as f64),
                Sample::labelled("kind", "delayed", stats.chaos.delayed as f64),
                Sample::labelled("kind", "corrupted", stats.chaos.corrupted as f64),
                Sample::labelled("kind", "partitioned", stats.chaos.partitioned as f64),
            ],
        },
        Family::single(
            "market_journal_bytes_total",
            "Bytes appended to the write-ahead journal.",
            MetricKind::Counter,
            stats.journal_bytes as f64,
        ),
        Family::single(
            "market_journal_fsyncs_total",
            "Explicit journal fsyncs performed.",
            MetricKind::Counter,
            stats.journal_fsyncs as f64,
        ),
        Family::single(
            "market_journal_fsync_mean_seconds",
            "Mean journal fsync latency.",
            MetricKind::Gauge,
            seconds(stats.journal_fsync_mean),
        ),
        Family::single(
            "market_journal_fsync_max_seconds",
            "Worst journal fsync latency observed.",
            MetricKind::Gauge,
            seconds(stats.journal_fsync_max),
        ),
    ]
}

/// The mesh traffic families, merged across shards.
fn net_families(watch: &MarketWatch) -> Vec<Family> {
    let traffic = watch.traffic();
    let received_messages: u64 = traffic.per_provider.iter().map(|p| p.received_messages).sum();
    let received_bytes: u64 = traffic.per_provider.iter().map(|p| p.received_bytes).sum();
    let dropped_bytes: u64 = traffic.per_provider.iter().map(|p| p.dropped_bytes).sum();
    vec![
        Family {
            name: "net_messages_total".into(),
            help: "Mesh messages by direction, merged across shards.".into(),
            kind: MetricKind::Counter,
            samples: vec![
                Sample::labelled("direction", "sent", traffic.total_messages() as f64),
                Sample::labelled("direction", "received", received_messages as f64),
                Sample::labelled("direction", "dropped", traffic.total_dropped() as f64),
            ],
        },
        Family {
            name: "net_bytes_total".into(),
            help: "Mesh payload bytes by direction, merged across shards.".into(),
            kind: MetricKind::Counter,
            samples: vec![
                Sample::labelled("direction", "sent", traffic.total_bytes() as f64),
                Sample::labelled("direction", "received", received_bytes as f64),
                Sample::labelled("direction", "dropped", dropped_bytes as f64),
            ],
        },
        Family::single(
            "net_io_threads",
            "OS threads the transport dedicates to I/O.",
            MetricKind::Gauge,
            traffic.io_threads as f64,
        ),
    ]
}

/// The flight-recorder families.
fn flight_families(watch: &MarketWatch) -> Vec<Family> {
    vec![Family::single(
        "flight_events_recorded_total",
        "Events the crash flight recorder has recorded (retention is bounded).",
        MetricKind::Counter,
        watch.flight_recorded() as f64,
    )]
}
