//! Pins what `run_batch_with` produces, row by row.
//!
//! Every row clears one batch of honest sessions and compares a one-line
//! rendering against a recorded value: per session, the first 16 hex
//! digits of the SHA-256 of its unanimous outcome's encoding (or `⊥`),
//! then the batch's total sent messages and payload bytes. Rows cover
//! the transports in-process (zero latency and `CommunityNet` latency)
//! and loopback TCP; 1 and 3 shards; batches of 1 and 3 sessions; and the
//! double auction and the exact standard auction. A change to how a batch
//! maps onto meshes, shards, seeds or chaos salts moves some row here —
//! the 1-session rows are the `run_session` path.
//!
//! On a mismatch the test prints every differing row in the table's own
//! syntax, so an intended change is re-recorded by pasting.

use std::sync::Arc;

use dauctioneer_core::{
    run_batch_with, BatchConfig, BatchSession, DoubleAuctionProgram, DynProgram, FrameworkConfig,
    RunOptions, StandardAuctionProgram, TransportKind,
};
use dauctioneer_crypto::sha256;
use dauctioneer_mechanisms::{StandardAuction, StandardAuctionConfig};
use dauctioneer_net::LatencyModel;
use dauctioneer_types::codec::Encode;
use dauctioneer_types::{BidVector, Outcome, SessionId};
use dauctioneer_workload::{DoubleAuctionWorkload, StandardAuctionWorkload};

const M: usize = 3;
const K: usize = 1;

#[derive(Debug, Clone, Copy)]
enum Program {
    Double,
    Standard,
}

const PROGRAMS: [(&str, Program); 2] =
    [("double", Program::Double), ("standard", Program::Standard)];

const TRANSPORTS: [(&str, TransportKind, LatencyModel); 3] = [
    ("inproc", TransportKind::InProc, LatencyModel::Zero),
    ("community", TransportKind::InProc, LatencyModel::CommunityNet),
    ("tcp", TransportKind::Tcp, LatencyModel::Zero),
];

/// The configuration, program and per-session bids of an `n`-session
/// batch: session `s` clears the workload drawn from seed `3 + s`.
fn batch(program: Program, n: u64) -> (FrameworkConfig, Arc<DynProgram>, Vec<BidVector>) {
    match program {
        Program::Double => (
            FrameworkConfig::new(M, K, 8, M),
            Arc::new(DynProgram::new(Arc::new(DoubleAuctionProgram::new()))),
            (0..n).map(|s| DoubleAuctionWorkload::new(8, M, 3 + s).generate()).collect(),
        ),
        Program::Standard => {
            let (_, capacities) = StandardAuctionWorkload::new(6, M, 3).generate();
            let auction = StandardAuction::new(StandardAuctionConfig::exact(capacities));
            (
                FrameworkConfig::new(M, K, 6, 0),
                Arc::new(DynProgram::new(Arc::new(StandardAuctionProgram::new(auction)))),
                (0..n).map(|s| StandardAuctionWorkload::new(6, M, 3 + s).generate().0).collect(),
            )
        }
    }
}

fn render_outcome(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Abort => "⊥".to_string(),
        agreed => sha256(&agreed.encode_to_bytes()).to_hex()[..16].to_string(),
    }
}

fn row(
    program: Program,
    transport: TransportKind,
    latency: LatencyModel,
    shards: usize,
    n: u64,
) -> String {
    let (cfg, program, bids) = batch(program, n);
    let sessions = bids
        .into_iter()
        .enumerate()
        .map(|(s, bids)| BatchSession::uniform(SessionId(s as u64), bids, M, 100 + 17 * s as u64))
        .collect();
    let options = RunOptions { latency, seed: 11, ..RunOptions::default() };
    let config = BatchConfig { shards, transport, ..BatchConfig::default() };
    let report = run_batch_with(&cfg, program, sessions, &options, &config).unwrap();
    let outcomes: Vec<String> =
        report.sessions.iter().map(|s| render_outcome(&s.unanimous())).collect();
    format!(
        "{} | msgs={} bytes={}",
        outcomes.join(" "),
        report.traffic.total_messages(),
        report.traffic.total_bytes()
    )
}

/// Recorded results, one per row: `<transport>.s<shards>.n<sessions>.<program>`.
#[rustfmt::skip]
const EXPECTED: &[(&str, &str)] = &[
    ("inproc.s1.n1.double", "928352fd916397e2 | msgs=24 bytes=5088"),
    ("inproc.s1.n1.standard", "4e62da27598765f5 | msgs=42 bytes=5490"),
    ("inproc.s1.n3.double", "928352fd916397e2 ec3baba16f723dcf 0b7942e30e77e262 | msgs=72 bytes=15264"),
    ("inproc.s1.n3.standard", "4e62da27598765f5 9ac74778c40174ae 3eabc2673c71d4a4 | msgs=126 bytes=16470"),
    ("inproc.s3.n1.double", "928352fd916397e2 | msgs=24 bytes=5088"),
    ("inproc.s3.n1.standard", "4e62da27598765f5 | msgs=42 bytes=5490"),
    ("inproc.s3.n3.double", "928352fd916397e2 ec3baba16f723dcf 0b7942e30e77e262 | msgs=72 bytes=15264"),
    ("inproc.s3.n3.standard", "4e62da27598765f5 9ac74778c40174ae 3eabc2673c71d4a4 | msgs=126 bytes=16470"),
    ("community.s1.n1.double", "928352fd916397e2 | msgs=24 bytes=5088"),
    ("community.s1.n1.standard", "4e62da27598765f5 | msgs=42 bytes=5490"),
    ("community.s1.n3.double", "928352fd916397e2 ec3baba16f723dcf 0b7942e30e77e262 | msgs=72 bytes=15264"),
    ("community.s1.n3.standard", "4e62da27598765f5 9ac74778c40174ae 3eabc2673c71d4a4 | msgs=126 bytes=16470"),
    ("community.s3.n1.double", "928352fd916397e2 | msgs=24 bytes=5088"),
    ("community.s3.n1.standard", "4e62da27598765f5 | msgs=42 bytes=5490"),
    ("community.s3.n3.double", "928352fd916397e2 ec3baba16f723dcf 0b7942e30e77e262 | msgs=72 bytes=15264"),
    ("community.s3.n3.standard", "4e62da27598765f5 9ac74778c40174ae 3eabc2673c71d4a4 | msgs=126 bytes=16470"),
    ("tcp.s1.n1.double", "928352fd916397e2 | msgs=24 bytes=5088"),
    ("tcp.s1.n1.standard", "4e62da27598765f5 | msgs=42 bytes=5490"),
    ("tcp.s1.n3.double", "928352fd916397e2 ec3baba16f723dcf 0b7942e30e77e262 | msgs=72 bytes=15264"),
    ("tcp.s1.n3.standard", "4e62da27598765f5 9ac74778c40174ae 3eabc2673c71d4a4 | msgs=126 bytes=16470"),
    ("tcp.s3.n1.double", "928352fd916397e2 | msgs=24 bytes=5088"),
    ("tcp.s3.n1.standard", "4e62da27598765f5 | msgs=42 bytes=5490"),
    ("tcp.s3.n3.double", "928352fd916397e2 ec3baba16f723dcf 0b7942e30e77e262 | msgs=72 bytes=15264"),
    ("tcp.s3.n3.standard", "4e62da27598765f5 9ac74778c40174ae 3eabc2673c71d4a4 | msgs=126 bytes=16470"),
];

fn expected(name: &str) -> Option<&'static str> {
    EXPECTED.iter().find(|(n, _)| *n == name).map(|(_, want)| *want)
}

#[test]
fn batches_match_the_recorded_table() {
    let mut rows = 0;
    let mut diffs = Vec::new();
    for (transport_name, transport, latency) in TRANSPORTS {
        for shards in [1, 3] {
            for n in [1, 3] {
                for (program_name, program) in PROGRAMS {
                    let name = format!("{transport_name}.s{shards}.n{n}.{program_name}");
                    let got = row(program, transport, latency, shards, n);
                    if expected(&name) != Some(got.as_str()) {
                        diffs.push(format!("    (\"{name}\", \"{got}\"),"));
                    }
                    rows += 1;
                }
            }
        }
    }
    assert!(diffs.is_empty(), "batches changed:\n{}", diffs.join("\n"));
    assert_eq!(rows, EXPECTED.len(), "one recorded result per row");
}
