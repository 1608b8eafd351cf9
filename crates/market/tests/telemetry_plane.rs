//! Telemetry-plane acceptance for the continuous market: every aborted
//! epoch carries a classified (non-unknown) [`AbortReason`], the
//! per-reason breakdown accounts for every abort, chaos fault counters
//! surface in [`MarketStats`], the metrics registry exports the full
//! family set, the flight recorder stays bounded, and epoch traces are
//! a deterministic function of the market seed.

use std::sync::Arc;
use std::time::Duration;

use dauctioneer_core::{AdversaryKind, DoubleAuctionProgram, TransportKind};
use dauctioneer_market::{
    register_liveness_metrics, register_market_metrics, AbortReason, EpochPolicy, MarketConfig,
    MarketService,
};
use dauctioneer_net::{FaultPlan, LivenessConfig, LivenessTracker};
use dauctioneer_telemetry::{EpochTrace, FlightDump, Registry};
use dauctioneer_types::{Bw, Money, ProviderAsk, ProviderId, UserBid, UserId};

const M: usize = 3;
const N_USERS: usize = 4;

fn config() -> MarketConfig {
    let mut config = MarketConfig::new(M, 1, N_USERS, 1)
        .with_epoch(EpochPolicy::ByCount(2))
        .with_asks(vec![ProviderAsk::new(Money::from_f64(0.10), Bw::from_f64(4.0))])
        .with_transport(TransportKind::InProc, 1);
    config.seed = 4_040;
    config
}

/// Submit `epochs` epochs of 2 valid bids each and wait for each close.
fn drive(market: &mut MarketService, epochs: u64) {
    let outcomes = market.take_outcomes().expect("subscription");
    let handle = market.handle();
    for epoch in 0..epochs {
        for u in 0..2u32 {
            let bid = UserBid::new(
                Money::from_f64(0.9 + 0.05 * u as f64 + 0.01 * epoch as f64),
                Bw::from_f64(0.5),
            );
            handle.submit_bid(UserId(u), bid).expect("market accepts while open");
        }
        outcomes.recv_timeout(Duration::from_secs(30)).expect("epoch closes");
    }
}

#[test]
fn healthy_epochs_carry_no_abort_reason_and_full_span_trees() {
    let mut market =
        MarketService::start(config(), Arc::new(DoubleAuctionProgram::new())).expect("start");
    drive(&mut market, 2);
    let watch = market.watch();
    let traces = watch.recent_traces();
    let stats = market.shutdown();

    assert_eq!(stats.epochs_aborted, 0);
    assert_eq!(stats.epochs_aborted_by_reason.total(), 0, "no abort, no reason");
    assert_eq!(traces.len(), 2, "one finished trace per closed epoch");
    for trace in &traces {
        assert_eq!(trace.abort, None, "a cleared epoch records no abort reason");
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        for pipeline_stage in ["ingress", "collect", "dispatch", "seal", "epoch"] {
            assert!(names.contains(&pipeline_stage), "missing span {pipeline_stage}: {names:?}");
        }
        // One session block per provider, hanging under the dispatch span.
        let dispatch = trace.spans.iter().find(|s| s.name == "dispatch").unwrap();
        for j in 0..M {
            let block = trace
                .spans
                .iter()
                .find(|s| s.name == format!("session[{j}]"))
                .unwrap_or_else(|| panic!("missing session[{j}]"));
            assert_eq!(block.parent, Some(dispatch.id), "session blocks nest under dispatch");
        }
        // The root span closes the tree and spans the whole epoch.
        let root = trace.spans.iter().find(|s| s.name == "epoch").unwrap();
        assert_eq!(root.id, trace.root);
        assert_eq!(root.parent, None);
        assert!(root.duration >= dispatch.duration);
    }
}

#[test]
fn chaos_aborts_classify_as_chaos_fault_and_surface_fault_counters() {
    let mut config = config().with_chaos(FaultPlan::seeded(7).with_drop(1.0));
    config.session_deadline = Duration::from_millis(300);
    let mut market =
        MarketService::start(config, Arc::new(DoubleAuctionProgram::new())).expect("start");
    drive(&mut market, 2);
    let stats = market.shutdown();

    assert_eq!(stats.epochs_aborted, 2, "a fully lossy mesh aborts every epoch");
    assert_eq!(stats.epochs_aborted_by_reason.get(AbortReason::ChaosFault), 2);
    assert_eq!(stats.epochs_aborted_by_reason.get(AbortReason::Unknown), 0);
    assert_eq!(stats.epochs_aborted_by_reason.total(), stats.epochs_aborted);
    assert!(stats.chaos.dropped > 0, "chaos counters surface in MarketStats");
}

#[test]
fn adversary_aborts_classify_as_adversary() {
    let mut config = config().with_adversary(ProviderId(2), AdversaryKind::Silent { after: 0 });
    config.session_deadline = Duration::from_millis(300);
    let mut market =
        MarketService::start(config, Arc::new(DoubleAuctionProgram::new())).expect("start");
    drive(&mut market, 2);
    let watch = market.watch();
    let traces = watch.recent_traces();
    let stats = market.shutdown();

    assert_eq!(stats.epochs_aborted, 2, "a crashed provider ⊥s every epoch (m=3, k=1)");
    assert_eq!(stats.epochs_aborted_by_reason.get(AbortReason::Adversary), 2);
    assert_eq!(stats.epochs_aborted_by_reason.total(), stats.epochs_aborted);
    assert!(
        traces.iter().all(|t| t.abort == Some(AbortReason::Adversary)),
        "the abort reason rides the epoch trace too"
    );
}

#[test]
fn deadline_aborts_classify_as_deadline() {
    // No chaos, no adversary — just a deadline no session can meet.
    let mut config = config();
    config.session_deadline = Duration::from_nanos(1);
    let mut market =
        MarketService::start(config, Arc::new(DoubleAuctionProgram::new())).expect("start");
    drive(&mut market, 1);
    let stats = market.shutdown();

    assert_eq!(stats.epochs_aborted, 1);
    assert_eq!(stats.epochs_aborted_by_reason.get(AbortReason::Deadline), 1);
    assert_eq!(stats.epochs_aborted_by_reason.get(AbortReason::Unknown), 0);
}

#[test]
fn registry_exports_every_market_family() {
    let mut market =
        MarketService::start(config(), Arc::new(DoubleAuctionProgram::new())).expect("start");
    drive(&mut market, 1);

    let registry = Registry::new();
    register_market_metrics(&registry, market.watch());

    // The deployment roles register the liveness families next to the
    // market ones; a mid-outage scrape shows the dip and the rejoin.
    let mut tracker = LivenessTracker::new(M, LivenessConfig::default());
    register_liveness_metrics(&registry, tracker.metrics());
    let now = std::time::Instant::now();
    for p in 0..M {
        tracker.join(p, now);
    }
    tracker.disconnect(2);
    tracker.begin_reconnect(2);
    tracker.join(2, now); // one kill/rejoin cycle: reconnects_total = 1
    tracker.metrics().record_mesh_bringup(); // the first epoch's mesh...
    tracker.metrics().record_mesh_bringup(); // ...and the re-dial after the rejoin

    let text = registry.render();
    market.shutdown();

    for family in [
        "# TYPE market_epochs_cleared_total counter",
        "# TYPE market_epochs_aborted_total counter",
        "# TYPE market_clear_groups_total counter",
        "# TYPE market_bids_total counter",
        "# TYPE market_epoch_close_latency_seconds summary",
        "# TYPE market_epoch_close_latency_us histogram",
        "# TYPE market_journal_bytes_total counter",
        "# TYPE market_journal_commit_records histogram",
        "# TYPE chaos_faults_injected_total counter",
        "# TYPE net_messages_total counter",
        "# TYPE net_io_threads gauge",
        "# TYPE net_peers_up gauge",
        "# TYPE net_peer_reconnects_total counter",
        "# TYPE net_mesh_bringups_total counter",
        "# TYPE flight_events_recorded_total counter",
    ] {
        assert!(text.contains(family), "scrape output missing {family:?}:\n{text}");
    }
    assert!(
        text.contains("market_epochs_cleared_total{mechanism=\"double-auction\"} 1"),
        "live value must flow through the collector, labelled with its mechanism"
    );
    assert!(text.contains("market_clear_groups_total 1"), "one epoch, one pool drive:\n{text}");
    assert!(text.contains("market_bids_total{verdict=\"accepted\"} 2"));
    assert!(text.contains("market_epochs_aborted_total{reason=\"deadline\"} 0"));
    assert!(
        text.contains("market_epochs_aborted_total{reason=\"peer_down\"} 0"),
        "the peer_down abort reason must be a first-class breakdown row"
    );
    assert!(
        text.contains("chaos_faults_injected_total{kind=\"partitioned\"} 0"),
        "partition faults must be a first-class chaos counter row"
    );
    assert!(text.contains("net_peers_up 3"), "all three peers are up after the rejoin:\n{text}");
    assert!(
        text.contains("net_peer_reconnects_total 1"),
        "the kill/rejoin cycle counts exactly one reconnect:\n{text}"
    );
    assert!(
        text.contains("net_mesh_bringups_total 2"),
        "the initial mesh and the post-rejoin re-dial are two bring-ups:\n{text}"
    );
    assert!(text.contains("market_epoch_close_latency_us_bucket{le=\"+Inf\"} 1"));
}

#[test]
fn flight_recorder_stays_bounded_and_dumps_parseable_json() {
    let mut config = config();
    config.telemetry.flight_capacity = 4;
    let mut market =
        MarketService::start(config, Arc::new(DoubleAuctionProgram::new())).expect("start");
    drive(&mut market, 8); // 8 epoch_cleared events through a 4-slot ring
    let watch = market.watch();
    let dump = FlightDump::parse(&watch.flight_dump_json()).expect("dump parses");
    market.shutdown();

    assert_eq!(dump.capacity, 4);
    assert!(dump.recorded >= 8, "every event counted even after eviction");
    assert_eq!(dump.events.len(), 4, "the ring retains exactly its capacity");
    // The survivors are the most recent events, in order.
    let seqs: Vec<u64> = dump.events.iter().map(|e| e.seq).collect();
    let newest = *seqs.iter().max().unwrap();
    assert_eq!(seqs, (newest - 3..=newest).collect::<Vec<u64>>());
    assert!(dump.events.iter().all(|e| e.kind == "epoch_cleared"));
    assert!(
        dump.events.iter().all(|e| e.fields.iter().any(|(k, v)| k == "group" && v != "0")),
        "every cleared epoch names the size of its clear group"
    );
}

#[test]
fn epoch_traces_replay_deterministically_from_the_market_seed() {
    let run = || -> Vec<EpochTrace> {
        let mut market =
            MarketService::start(config(), Arc::new(DoubleAuctionProgram::new())).expect("start");
        drive(&mut market, 2);
        let traces = market.watch().recent_traces();
        market.shutdown();
        traces
    };
    let (a, b) = (run(), run());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.epoch, y.epoch);
        assert_eq!(x.session, y.session);
        assert_eq!(x.seed, y.seed, "epoch seeds derive from the config seed");
        assert_eq!(x.root, y.root);
        // Same structure with identical span IDs — only durations are
        // wall-clock-dependent.
        let shape = |t: &EpochTrace| {
            t.spans.iter().map(|s| (s.id, s.parent, s.name.clone())).collect::<Vec<_>>()
        };
        assert_eq!(shape(x), shape(y), "epoch {}: span tree must replay", x.epoch);
    }
    // Distinct epochs never share span IDs (the per-epoch seed differs).
    assert_ne!(a[0].root, a[1].root);
}
