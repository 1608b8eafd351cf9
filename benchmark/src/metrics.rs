//! The metric names. They are API: every later performance claim in this
//! repo names one metric and one workload, and `BENCHMARK.json` lists the
//! same names (`benchmark manifest` prints it from these tables; the schema
//! test holds the two together).

use crate::json::Json;
use crate::workloads::{DEFAULT_SECONDS, WORKLOADS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    /// Differences below this are not regressions whatever the ratio says
    /// (`compare` and `selfcheck` apply it; the driver has no such notion).
    pub floor: f64,
}

/// What every workload reports with `--trace 0`. `failed_share` of the issue
/// is the `failed`/`attempted` pair of the result line (its expected value is
/// 0, which a bounded metric cannot be), and `recover_s`/`verify_log_s` are
/// `journal.*` per-layer metrics because only `durable_fsync` has a journal.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25, floor: 0.02 },
    EndToEnd {
        name: "bid_to_seal_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.05,
    },
    EndToEnd {
        name: "bid_to_seal_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.05,
    },
    EndToEnd {
        name: "close_to_seal_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.05,
    },
    EndToEnd {
        name: "sealed_bids_per_s",
        unit: "bids/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.20, floor: 2.0 },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// What every workload reports with `--trace 1`. A layer the workload does
/// not exercise reports 0 (the driver wants every name on every run).
pub const PER_LAYER: [PerLayer; 52] = [
    layer("gen.late_p99_ms", "ms", Lower),
    layer("gen.achieved_rate_share", "ratio", Higher),
    layer("ingress.submit_call_p50_us", "us", Lower),
    layer("ingress.blocked_share", "ratio", Lower),
    layer("ingress.queue_depth_max", "count", Lower),
    layer("ingress.shed", "count", Lower),
    layer("journal.append_accepted_p50_us", "us", Lower),
    layer("journal.append_seal_p50_us", "us", Lower),
    layer("journal.fsyncs_per_bid", "count", Lower),
    layer("journal.bytes_per_bid", "B", Lower),
    layer("journal.fsync_mean_us", "us", Lower),
    layer("journal.scan_mb_per_s", "MB/s", Higher),
    layer("journal.recover_s", "s", Lower),
    layer("journal.verify_log_s", "s", Lower),
    layer("service.ingress_span_p50_us", "us", Lower),
    layer("service.collect_span_p50_us", "us", Lower),
    layer("service.dispatch_span_p50_us", "us", Lower),
    layer("service.session_span_p50_us", "us", Lower),
    layer("service.seal_span_p50_us", "us", Lower),
    layer("service.epoch_latency_p50_ms", "ms", Lower),
    layer("service.close_to_seal_p95_ms", "ms", Lower),
    layer("service.epochs_per_s", "1/s", Higher),
    layer("service.unattributed_ms", "ms", Lower),
    layer("cluster.join_s", "s", Lower),
    layer("cluster.mesh_bringup_p50_ms", "ms", Lower),
    layer("cluster.control_roundtrip_p50_us", "us", Lower),
    layer("cluster.workorder_bytes", "B", Lower),
    layer("pool.epoch_p50_ms", "ms", Lower),
    layer("pool.msgs_per_epoch", "count", Lower),
    layer("pool.bytes_per_epoch", "B", Lower),
    layer("blocks.bid_agreement_us", "us", Lower),
    layer("blocks.input_validation_us", "us", Lower),
    layer("blocks.common_coin_us", "us", Lower),
    layer("blocks.data_transfer_us", "us", Lower),
    layer("blocks.allocator_us", "us", Lower),
    layer("blocks.bid_agreement_msgs", "count", Lower),
    layer("mechanisms.clear_p50_us", "us", Lower),
    layer("mechanisms.clear_p95_us", "us", Lower),
    layer("mechanisms.winners_per_epoch", "count", Higher),
    layer("net.hub_roundtrip_us", "us", Lower),
    layer("net.mux_roundtrip_us", "us", Lower),
    layer("net.mux_frames_per_s", "1/s", Higher),
    layer("net.mux_bringup_ms", "ms", Lower),
    layer("net.frame_encode_ns", "ns", Lower),
    layer("net.io_threads", "count", Lower),
    layer("codec.bidvector_encode_us", "us", Lower),
    layer("codec.bidvector_decode_us", "us", Lower),
    layer("codec.bidvector_bytes", "B", Lower),
    layer("crypto.sha256_mb_per_s", "MB/s", Higher),
    layer("crypto.commit_us", "us", Lower),
    layer("crypto.chain_link_us", "us", Lower),
    layer("telemetry.trace_overhead_share", "ratio", Lower),
];

/// `BENCHMARK.json`, from the tables above.
pub fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(s)).collect());
    let command =
        ["cargo", "run", "--release", "--quiet", "--manifest-path", "benchmark/Cargo.toml", "--"];
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::object([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::object([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.label())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::object([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.label())),
            ])
        })
        .collect();
    Json::object([
        ("command", strings(&command)),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Num(DEFAULT_SECONDS)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_driver_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for name in names {
            assert!(
                name.len() <= 64
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(manifest().render_pretty().len() < 64 * 1024);
    }
}
