//! Pins the simulator's turn-based traces row by row.
//!
//! Every row runs one auction session through `run_auction_sim` under
//! one delivery schedule, with at most one deviating provider (provider
//! 0), and compares a one-line rendering against a recorded value: the
//! number of delivered messages, then per provider the first 16 hex
//! digits of the SHA-256 of its encoded outcome, `⊥`, or `undecided`.
//! Rows cover the schedules `Fifo`, `SeededRandom(0..3)` and
//! `DelayProvider { victim: j, seed: 9 }` for every provider `j`; the
//! deviations none, equivocate (victim 1), corrupt, mute after 0 and 3
//! sends, drop-to (victim m − 1) and replay; shapes (m, k) = (3, 1) and
//! (5, 2); and the double auction and the exact standard auction. A
//! change to the message pump, a schedule's picks or RNG draws, or a
//! deviation's transform moves some row here.
//!
//! Virtual-clock runs charge measured CPU time to each event, so their
//! delivery order is not deterministic. For them only the honest run is
//! pinned: every provider's outcome equals the `Fifo` row's.
//!
//! On a mismatch the test prints every differing row in the table's own
//! syntax, so an intended trace change is re-recorded by pasting.

use std::sync::Arc;

use dauctioneer_core::{
    Adversary, AdversaryKind, DoubleAuctionProgram, DynProgram, FrameworkConfig,
    StandardAuctionProgram,
};
use dauctioneer_crypto::sha256;
use dauctioneer_mechanisms::{StandardAuction, StandardAuctionConfig};
use dauctioneer_sim::{run_auction_sim, LinkModel, SchedulePolicy};
use dauctioneer_types::codec::Encode;
use dauctioneer_types::{BidVector, Outcome, ProviderId};
use dauctioneer_workload::{DoubleAuctionWorkload, StandardAuctionWorkload};

const SEED: u64 = 7;

#[derive(Debug, Clone, Copy)]
enum Program {
    Double,
    Standard,
}

#[derive(Debug, Clone, Copy)]
enum Deviation {
    None,
    Equivocate,
    Corrupt,
    Mute(usize),
    DropTo,
    Replay,
}

const DEVIATIONS: [(&str, Deviation); 7] = [
    ("none", Deviation::None),
    ("equivocate", Deviation::Equivocate),
    ("corrupt", Deviation::Corrupt),
    ("mute0", Deviation::Mute(0)),
    ("mute3", Deviation::Mute(3)),
    ("drop_to", Deviation::DropTo),
    ("replay", Deviation::Replay),
];

/// Provider 0's deviation in an `m`-provider session.
fn adversaries(deviation: Deviation, m: usize) -> Vec<Adversary> {
    let kind = match deviation {
        Deviation::None => return Vec::new(),
        Deviation::Equivocate => AdversaryKind::Equivocator { victim: ProviderId(1) },
        Deviation::Corrupt => AdversaryKind::Corrupt,
        Deviation::Mute(after) => AdversaryKind::Silent { after },
        Deviation::DropTo => AdversaryKind::DropTo { victim: ProviderId(m as u32 - 1) },
        Deviation::Replay => AdversaryKind::Replay,
    };
    vec![Adversary::new(ProviderId(0), kind)]
}

fn schedules(m: usize) -> Vec<(String, SchedulePolicy)> {
    let mut schedules = vec![("fifo".to_string(), SchedulePolicy::Fifo)];
    for seed in 0..3 {
        schedules.push((format!("random{seed}"), SchedulePolicy::SeededRandom(seed)));
    }
    for j in 0..m {
        let victim = ProviderId(j as u32);
        schedules.push((format!("delay{j}"), SchedulePolicy::DelayProvider { victim, seed: 9 }));
    }
    schedules
}

fn render_outcome(outcome: &Option<Outcome>) -> String {
    match outcome {
        None => "undecided".to_string(),
        Some(Outcome::Abort) => "⊥".to_string(),
        Some(agreed) => sha256(&agreed.encode_to_bytes()).to_hex()[..16].to_string(),
    }
}

fn render_outcomes(outcomes: &[Option<Outcome>]) -> String {
    outcomes.iter().map(render_outcome).collect::<Vec<_>>().join(" ")
}

/// The session's configuration, program and bids.
fn session(program: Program, m: usize, k: usize) -> (FrameworkConfig, Arc<DynProgram>, BidVector) {
    match program {
        Program::Double => (
            FrameworkConfig::new(m, k, 8, m),
            Arc::new(DynProgram::new(Arc::new(DoubleAuctionProgram::new()))),
            DoubleAuctionWorkload::new(8, m, 3).generate(),
        ),
        Program::Standard => {
            let (bids, capacities) = StandardAuctionWorkload::new(6, m, 3).generate();
            let auction = StandardAuction::new(StandardAuctionConfig::exact(capacities));
            (
                FrameworkConfig::new(m, k, 6, 0),
                Arc::new(DynProgram::new(Arc::new(StandardAuctionProgram::new(auction)))),
                bids,
            )
        }
    }
}

fn turn_based(
    program: Program,
    m: usize,
    k: usize,
    policy: SchedulePolicy,
    deviation: Deviation,
) -> String {
    let (cfg, program, bids) = session(program, m, k);
    let adversaries = adversaries(deviation, m);
    let report = run_auction_sim(&cfg, program, vec![bids; m], &adversaries, policy, SEED);
    format!("d={} | {}", report.delivered, render_outcomes(&report.outcomes))
}

fn timed(program: Program, m: usize, k: usize) -> String {
    let (cfg, program, bids) = session(program, m, k);
    let timed = SchedulePolicy::Timed(LinkModel::community_net());
    let report = run_auction_sim(&cfg, program, vec![bids; m], &[], timed, SEED);
    render_outcomes(&report.outcomes)
}

const SHAPES: [(usize, usize); 2] = [(3, 1), (5, 2)];
const PROGRAMS: [(&str, Program); 2] =
    [("double", Program::Double), ("standard", Program::Standard)];

/// Recorded results, one per row: `m<m>.<program>.<schedule>.<deviation>`.
#[rustfmt::skip]
const EXPECTED: &[(&str, &str)] = &[
    ("m3.double.fifo.none", "d=42 | 928352fd916397e2 928352fd916397e2 928352fd916397e2"),
    ("m3.double.fifo.equivocate", "d=12 | ⊥ ⊥ ⊥"),
    ("m3.double.fifo.corrupt", "d=10 | ⊥ ⊥ ⊥"),
    ("m3.double.fifo.mute0", "d=4 | undecided undecided undecided"),
    ("m3.double.fifo.mute3", "d=13 | undecided undecided undecided"),
    ("m3.double.fifo.drop_to", "d=8 | undecided undecided undecided"),
    ("m3.double.fifo.replay", "d=12 | undecided ⊥ ⊥"),
    ("m3.double.random0.none", "d=42 | 928352fd916397e2 928352fd916397e2 928352fd916397e2"),
    ("m3.double.random0.equivocate", "d=12 | ⊥ ⊥ ⊥"),
    ("m3.double.random0.corrupt", "d=10 | ⊥ ⊥ ⊥"),
    ("m3.double.random0.mute0", "d=4 | undecided undecided undecided"),
    ("m3.double.random0.mute3", "d=13 | undecided undecided undecided"),
    ("m3.double.random0.drop_to", "d=8 | undecided undecided undecided"),
    ("m3.double.random0.replay", "d=12 | undecided ⊥ ⊥"),
    ("m3.double.random1.none", "d=42 | 928352fd916397e2 928352fd916397e2 928352fd916397e2"),
    ("m3.double.random1.equivocate", "d=9 | ⊥ ⊥ ⊥"),
    ("m3.double.random1.corrupt", "d=12 | ⊥ ⊥ ⊥"),
    ("m3.double.random1.mute0", "d=4 | undecided undecided undecided"),
    ("m3.double.random1.mute3", "d=13 | undecided undecided undecided"),
    ("m3.double.random1.drop_to", "d=8 | undecided undecided undecided"),
    ("m3.double.random1.replay", "d=14 | undecided ⊥ ⊥"),
    ("m3.double.random2.none", "d=42 | 928352fd916397e2 928352fd916397e2 928352fd916397e2"),
    ("m3.double.random2.equivocate", "d=11 | ⊥ ⊥ ⊥"),
    ("m3.double.random2.corrupt", "d=12 | ⊥ ⊥ ⊥"),
    ("m3.double.random2.mute0", "d=4 | undecided undecided undecided"),
    ("m3.double.random2.mute3", "d=13 | undecided undecided undecided"),
    ("m3.double.random2.drop_to", "d=8 | undecided undecided undecided"),
    ("m3.double.random2.replay", "d=14 | undecided ⊥ ⊥"),
    ("m3.double.delay0.none", "d=42 | 928352fd916397e2 928352fd916397e2 928352fd916397e2"),
    ("m3.double.delay0.equivocate", "d=11 | ⊥ ⊥ ⊥"),
    ("m3.double.delay0.corrupt", "d=11 | ⊥ ⊥ ⊥"),
    ("m3.double.delay0.mute0", "d=4 | undecided undecided undecided"),
    ("m3.double.delay0.mute3", "d=13 | undecided undecided undecided"),
    ("m3.double.delay0.drop_to", "d=8 | undecided undecided undecided"),
    ("m3.double.delay0.replay", "d=14 | undecided ⊥ ⊥"),
    ("m3.double.delay1.none", "d=42 | 928352fd916397e2 928352fd916397e2 928352fd916397e2"),
    ("m3.double.delay1.equivocate", "d=11 | ⊥ ⊥ ⊥"),
    ("m3.double.delay1.corrupt", "d=11 | ⊥ ⊥ ⊥"),
    ("m3.double.delay1.mute0", "d=4 | undecided undecided undecided"),
    ("m3.double.delay1.mute3", "d=13 | undecided undecided undecided"),
    ("m3.double.delay1.drop_to", "d=8 | undecided undecided undecided"),
    ("m3.double.delay1.replay", "d=12 | undecided ⊥ ⊥"),
    ("m3.double.delay2.none", "d=42 | 928352fd916397e2 928352fd916397e2 928352fd916397e2"),
    ("m3.double.delay2.equivocate", "d=11 | ⊥ ⊥ ⊥"),
    ("m3.double.delay2.corrupt", "d=12 | ⊥ ⊥ ⊥"),
    ("m3.double.delay2.mute0", "d=4 | undecided undecided undecided"),
    ("m3.double.delay2.mute3", "d=13 | undecided undecided undecided"),
    ("m3.double.delay2.drop_to", "d=8 | undecided undecided undecided"),
    ("m3.double.delay2.replay", "d=12 | undecided ⊥ ⊥"),
    ("m3.standard.fifo.none", "d=42 | 4e62da27598765f5 4e62da27598765f5 4e62da27598765f5"),
    ("m3.standard.fifo.equivocate", "d=12 | ⊥ ⊥ ⊥"),
    ("m3.standard.fifo.corrupt", "d=10 | ⊥ ⊥ ⊥"),
    ("m3.standard.fifo.mute0", "d=4 | undecided undecided undecided"),
    ("m3.standard.fifo.mute3", "d=13 | undecided undecided undecided"),
    ("m3.standard.fifo.drop_to", "d=8 | undecided undecided undecided"),
    ("m3.standard.fifo.replay", "d=12 | undecided ⊥ ⊥"),
    ("m3.standard.random0.none", "d=42 | 4e62da27598765f5 4e62da27598765f5 4e62da27598765f5"),
    ("m3.standard.random0.equivocate", "d=12 | ⊥ ⊥ ⊥"),
    ("m3.standard.random0.corrupt", "d=10 | ⊥ ⊥ ⊥"),
    ("m3.standard.random0.mute0", "d=4 | undecided undecided undecided"),
    ("m3.standard.random0.mute3", "d=13 | undecided undecided undecided"),
    ("m3.standard.random0.drop_to", "d=8 | undecided undecided undecided"),
    ("m3.standard.random0.replay", "d=12 | undecided ⊥ ⊥"),
    ("m3.standard.random1.none", "d=42 | 4e62da27598765f5 4e62da27598765f5 4e62da27598765f5"),
    ("m3.standard.random1.equivocate", "d=9 | ⊥ ⊥ ⊥"),
    ("m3.standard.random1.corrupt", "d=12 | ⊥ ⊥ ⊥"),
    ("m3.standard.random1.mute0", "d=4 | undecided undecided undecided"),
    ("m3.standard.random1.mute3", "d=13 | undecided undecided undecided"),
    ("m3.standard.random1.drop_to", "d=8 | undecided undecided undecided"),
    ("m3.standard.random1.replay", "d=14 | undecided ⊥ ⊥"),
    ("m3.standard.random2.none", "d=42 | 4e62da27598765f5 4e62da27598765f5 4e62da27598765f5"),
    ("m3.standard.random2.equivocate", "d=11 | ⊥ ⊥ ⊥"),
    ("m3.standard.random2.corrupt", "d=12 | ⊥ ⊥ ⊥"),
    ("m3.standard.random2.mute0", "d=4 | undecided undecided undecided"),
    ("m3.standard.random2.mute3", "d=13 | undecided undecided undecided"),
    ("m3.standard.random2.drop_to", "d=8 | undecided undecided undecided"),
    ("m3.standard.random2.replay", "d=14 | undecided ⊥ ⊥"),
    ("m3.standard.delay0.none", "d=42 | 4e62da27598765f5 4e62da27598765f5 4e62da27598765f5"),
    ("m3.standard.delay0.equivocate", "d=11 | ⊥ ⊥ ⊥"),
    ("m3.standard.delay0.corrupt", "d=11 | ⊥ ⊥ ⊥"),
    ("m3.standard.delay0.mute0", "d=4 | undecided undecided undecided"),
    ("m3.standard.delay0.mute3", "d=13 | undecided undecided undecided"),
    ("m3.standard.delay0.drop_to", "d=8 | undecided undecided undecided"),
    ("m3.standard.delay0.replay", "d=14 | undecided ⊥ ⊥"),
    ("m3.standard.delay1.none", "d=42 | 4e62da27598765f5 4e62da27598765f5 4e62da27598765f5"),
    ("m3.standard.delay1.equivocate", "d=11 | ⊥ ⊥ ⊥"),
    ("m3.standard.delay1.corrupt", "d=11 | ⊥ ⊥ ⊥"),
    ("m3.standard.delay1.mute0", "d=4 | undecided undecided undecided"),
    ("m3.standard.delay1.mute3", "d=13 | undecided undecided undecided"),
    ("m3.standard.delay1.drop_to", "d=8 | undecided undecided undecided"),
    ("m3.standard.delay1.replay", "d=12 | undecided ⊥ ⊥"),
    ("m3.standard.delay2.none", "d=42 | 4e62da27598765f5 4e62da27598765f5 4e62da27598765f5"),
    ("m3.standard.delay2.equivocate", "d=11 | ⊥ ⊥ ⊥"),
    ("m3.standard.delay2.corrupt", "d=12 | ⊥ ⊥ ⊥"),
    ("m3.standard.delay2.mute0", "d=4 | undecided undecided undecided"),
    ("m3.standard.delay2.mute3", "d=13 | undecided undecided undecided"),
    ("m3.standard.delay2.drop_to", "d=8 | undecided undecided undecided"),
    ("m3.standard.delay2.replay", "d=12 | undecided ⊥ ⊥"),
    ("m5.double.fifo.none", "d=140 | a24d47699a318f35 a24d47699a318f35 a24d47699a318f35 a24d47699a318f35 a24d47699a318f35"),
    ("m5.double.fifo.equivocate", "d=32 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.double.fifo.corrupt", "d=28 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.double.fifo.mute0", "d=16 | undecided undecided undecided undecided undecided"),
    ("m5.double.fifo.mute3", "d=31 | undecided undecided undecided undecided undecided"),
    ("m5.double.fifo.drop_to", "d=34 | undecided undecided undecided undecided undecided"),
    ("m5.double.fifo.replay", "d=32 | undecided ⊥ ⊥ ⊥ ⊥"),
    ("m5.double.random0.none", "d=140 | a24d47699a318f35 a24d47699a318f35 a24d47699a318f35 a24d47699a318f35 a24d47699a318f35"),
    ("m5.double.random0.equivocate", "d=38 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.double.random0.corrupt", "d=30 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.double.random0.mute0", "d=16 | undecided undecided undecided undecided undecided"),
    ("m5.double.random0.mute3", "d=31 | undecided undecided undecided undecided undecided"),
    ("m5.double.random0.drop_to", "d=34 | undecided undecided undecided undecided undecided"),
    ("m5.double.random0.replay", "d=32 | undecided ⊥ ⊥ ⊥ ⊥"),
    ("m5.double.random1.none", "d=140 | a24d47699a318f35 a24d47699a318f35 a24d47699a318f35 a24d47699a318f35 a24d47699a318f35"),
    ("m5.double.random1.equivocate", "d=36 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.double.random1.corrupt", "d=36 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.double.random1.mute0", "d=16 | undecided undecided undecided undecided undecided"),
    ("m5.double.random1.mute3", "d=31 | undecided undecided undecided undecided undecided"),
    ("m5.double.random1.drop_to", "d=34 | undecided undecided undecided undecided undecided"),
    ("m5.double.random1.replay", "d=40 | undecided ⊥ ⊥ ⊥ ⊥"),
    ("m5.double.random2.none", "d=140 | a24d47699a318f35 a24d47699a318f35 a24d47699a318f35 a24d47699a318f35 a24d47699a318f35"),
    ("m5.double.random2.equivocate", "d=38 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.double.random2.corrupt", "d=29 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.double.random2.mute0", "d=16 | undecided undecided undecided undecided undecided"),
    ("m5.double.random2.mute3", "d=31 | undecided undecided undecided undecided undecided"),
    ("m5.double.random2.drop_to", "d=34 | undecided undecided undecided undecided undecided"),
    ("m5.double.random2.replay", "d=44 | undecided ⊥ ⊥ ⊥ ⊥"),
    ("m5.double.delay0.none", "d=140 | a24d47699a318f35 a24d47699a318f35 a24d47699a318f35 a24d47699a318f35 a24d47699a318f35"),
    ("m5.double.delay0.equivocate", "d=36 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.double.delay0.corrupt", "d=40 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.double.delay0.mute0", "d=16 | undecided undecided undecided undecided undecided"),
    ("m5.double.delay0.mute3", "d=31 | undecided undecided undecided undecided undecided"),
    ("m5.double.delay0.drop_to", "d=34 | undecided undecided undecided undecided undecided"),
    ("m5.double.delay0.replay", "d=40 | undecided ⊥ ⊥ ⊥ ⊥"),
    ("m5.double.delay1.none", "d=140 | a24d47699a318f35 a24d47699a318f35 a24d47699a318f35 a24d47699a318f35 a24d47699a318f35"),
    ("m5.double.delay1.equivocate", "d=40 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.double.delay1.corrupt", "d=36 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.double.delay1.mute0", "d=16 | undecided undecided undecided undecided undecided"),
    ("m5.double.delay1.mute3", "d=31 | undecided undecided undecided undecided undecided"),
    ("m5.double.delay1.drop_to", "d=34 | undecided undecided undecided undecided undecided"),
    ("m5.double.delay1.replay", "d=40 | undecided ⊥ ⊥ ⊥ ⊥"),
    ("m5.double.delay2.none", "d=140 | a24d47699a318f35 a24d47699a318f35 a24d47699a318f35 a24d47699a318f35 a24d47699a318f35"),
    ("m5.double.delay2.equivocate", "d=36 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.double.delay2.corrupt", "d=36 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.double.delay2.mute0", "d=16 | undecided undecided undecided undecided undecided"),
    ("m5.double.delay2.mute3", "d=31 | undecided undecided undecided undecided undecided"),
    ("m5.double.delay2.drop_to", "d=34 | undecided undecided undecided undecided undecided"),
    ("m5.double.delay2.replay", "d=36 | undecided ⊥ ⊥ ⊥ ⊥"),
    ("m5.double.delay3.none", "d=140 | a24d47699a318f35 a24d47699a318f35 a24d47699a318f35 a24d47699a318f35 a24d47699a318f35"),
    ("m5.double.delay3.equivocate", "d=36 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.double.delay3.corrupt", "d=36 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.double.delay3.mute0", "d=16 | undecided undecided undecided undecided undecided"),
    ("m5.double.delay3.mute3", "d=31 | undecided undecided undecided undecided undecided"),
    ("m5.double.delay3.drop_to", "d=34 | undecided undecided undecided undecided undecided"),
    ("m5.double.delay3.replay", "d=36 | undecided ⊥ ⊥ ⊥ ⊥"),
    ("m5.double.delay4.none", "d=140 | a24d47699a318f35 a24d47699a318f35 a24d47699a318f35 a24d47699a318f35 a24d47699a318f35"),
    ("m5.double.delay4.equivocate", "d=36 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.double.delay4.corrupt", "d=36 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.double.delay4.mute0", "d=16 | undecided undecided undecided undecided undecided"),
    ("m5.double.delay4.mute3", "d=31 | undecided undecided undecided undecided undecided"),
    ("m5.double.delay4.drop_to", "d=34 | undecided undecided undecided undecided undecided"),
    ("m5.double.delay4.replay", "d=32 | undecided ⊥ ⊥ ⊥ ⊥"),
    ("m5.standard.fifo.none", "d=140 | d1c8c6e10aaef3f9 d1c8c6e10aaef3f9 d1c8c6e10aaef3f9 d1c8c6e10aaef3f9 d1c8c6e10aaef3f9"),
    ("m5.standard.fifo.equivocate", "d=32 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.standard.fifo.corrupt", "d=28 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.standard.fifo.mute0", "d=16 | undecided undecided undecided undecided undecided"),
    ("m5.standard.fifo.mute3", "d=31 | undecided undecided undecided undecided undecided"),
    ("m5.standard.fifo.drop_to", "d=34 | undecided undecided undecided undecided undecided"),
    ("m5.standard.fifo.replay", "d=32 | undecided ⊥ ⊥ ⊥ ⊥"),
    ("m5.standard.random0.none", "d=140 | d1c8c6e10aaef3f9 d1c8c6e10aaef3f9 d1c8c6e10aaef3f9 d1c8c6e10aaef3f9 d1c8c6e10aaef3f9"),
    ("m5.standard.random0.equivocate", "d=38 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.standard.random0.corrupt", "d=30 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.standard.random0.mute0", "d=16 | undecided undecided undecided undecided undecided"),
    ("m5.standard.random0.mute3", "d=31 | undecided undecided undecided undecided undecided"),
    ("m5.standard.random0.drop_to", "d=34 | undecided undecided undecided undecided undecided"),
    ("m5.standard.random0.replay", "d=32 | undecided ⊥ ⊥ ⊥ ⊥"),
    ("m5.standard.random1.none", "d=140 | d1c8c6e10aaef3f9 d1c8c6e10aaef3f9 d1c8c6e10aaef3f9 d1c8c6e10aaef3f9 d1c8c6e10aaef3f9"),
    ("m5.standard.random1.equivocate", "d=36 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.standard.random1.corrupt", "d=36 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.standard.random1.mute0", "d=16 | undecided undecided undecided undecided undecided"),
    ("m5.standard.random1.mute3", "d=31 | undecided undecided undecided undecided undecided"),
    ("m5.standard.random1.drop_to", "d=34 | undecided undecided undecided undecided undecided"),
    ("m5.standard.random1.replay", "d=40 | undecided ⊥ ⊥ ⊥ ⊥"),
    ("m5.standard.random2.none", "d=140 | d1c8c6e10aaef3f9 d1c8c6e10aaef3f9 d1c8c6e10aaef3f9 d1c8c6e10aaef3f9 d1c8c6e10aaef3f9"),
    ("m5.standard.random2.equivocate", "d=38 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.standard.random2.corrupt", "d=29 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.standard.random2.mute0", "d=16 | undecided undecided undecided undecided undecided"),
    ("m5.standard.random2.mute3", "d=31 | undecided undecided undecided undecided undecided"),
    ("m5.standard.random2.drop_to", "d=34 | undecided undecided undecided undecided undecided"),
    ("m5.standard.random2.replay", "d=44 | undecided ⊥ ⊥ ⊥ ⊥"),
    ("m5.standard.delay0.none", "d=140 | d1c8c6e10aaef3f9 d1c8c6e10aaef3f9 d1c8c6e10aaef3f9 d1c8c6e10aaef3f9 d1c8c6e10aaef3f9"),
    ("m5.standard.delay0.equivocate", "d=36 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.standard.delay0.corrupt", "d=40 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.standard.delay0.mute0", "d=16 | undecided undecided undecided undecided undecided"),
    ("m5.standard.delay0.mute3", "d=31 | undecided undecided undecided undecided undecided"),
    ("m5.standard.delay0.drop_to", "d=34 | undecided undecided undecided undecided undecided"),
    ("m5.standard.delay0.replay", "d=40 | undecided ⊥ ⊥ ⊥ ⊥"),
    ("m5.standard.delay1.none", "d=140 | d1c8c6e10aaef3f9 d1c8c6e10aaef3f9 d1c8c6e10aaef3f9 d1c8c6e10aaef3f9 d1c8c6e10aaef3f9"),
    ("m5.standard.delay1.equivocate", "d=40 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.standard.delay1.corrupt", "d=36 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.standard.delay1.mute0", "d=16 | undecided undecided undecided undecided undecided"),
    ("m5.standard.delay1.mute3", "d=31 | undecided undecided undecided undecided undecided"),
    ("m5.standard.delay1.drop_to", "d=34 | undecided undecided undecided undecided undecided"),
    ("m5.standard.delay1.replay", "d=40 | undecided ⊥ ⊥ ⊥ ⊥"),
    ("m5.standard.delay2.none", "d=140 | d1c8c6e10aaef3f9 d1c8c6e10aaef3f9 d1c8c6e10aaef3f9 d1c8c6e10aaef3f9 d1c8c6e10aaef3f9"),
    ("m5.standard.delay2.equivocate", "d=36 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.standard.delay2.corrupt", "d=36 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.standard.delay2.mute0", "d=16 | undecided undecided undecided undecided undecided"),
    ("m5.standard.delay2.mute3", "d=31 | undecided undecided undecided undecided undecided"),
    ("m5.standard.delay2.drop_to", "d=34 | undecided undecided undecided undecided undecided"),
    ("m5.standard.delay2.replay", "d=36 | undecided ⊥ ⊥ ⊥ ⊥"),
    ("m5.standard.delay3.none", "d=140 | d1c8c6e10aaef3f9 d1c8c6e10aaef3f9 d1c8c6e10aaef3f9 d1c8c6e10aaef3f9 d1c8c6e10aaef3f9"),
    ("m5.standard.delay3.equivocate", "d=36 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.standard.delay3.corrupt", "d=36 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.standard.delay3.mute0", "d=16 | undecided undecided undecided undecided undecided"),
    ("m5.standard.delay3.mute3", "d=31 | undecided undecided undecided undecided undecided"),
    ("m5.standard.delay3.drop_to", "d=34 | undecided undecided undecided undecided undecided"),
    ("m5.standard.delay3.replay", "d=36 | undecided ⊥ ⊥ ⊥ ⊥"),
    ("m5.standard.delay4.none", "d=140 | d1c8c6e10aaef3f9 d1c8c6e10aaef3f9 d1c8c6e10aaef3f9 d1c8c6e10aaef3f9 d1c8c6e10aaef3f9"),
    ("m5.standard.delay4.equivocate", "d=36 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.standard.delay4.corrupt", "d=36 | ⊥ ⊥ ⊥ ⊥ ⊥"),
    ("m5.standard.delay4.mute0", "d=16 | undecided undecided undecided undecided undecided"),
    ("m5.standard.delay4.mute3", "d=31 | undecided undecided undecided undecided undecided"),
    ("m5.standard.delay4.drop_to", "d=34 | undecided undecided undecided undecided undecided"),
    ("m5.standard.delay4.replay", "d=32 | undecided ⊥ ⊥ ⊥ ⊥"),
];

fn expected(name: &str) -> Option<&'static str> {
    EXPECTED.iter().find(|(n, _)| *n == name).map(|(_, want)| *want)
}

#[test]
fn turn_based_traces_match_the_recorded_table() {
    let mut rows = 0;
    let mut diffs = Vec::new();
    for (m, k) in SHAPES {
        for (program_name, program) in PROGRAMS {
            for (schedule_name, policy) in schedules(m) {
                for (deviation_name, deviation) in DEVIATIONS {
                    let name = format!("m{m}.{program_name}.{schedule_name}.{deviation_name}");
                    let got = turn_based(program, m, k, policy.clone(), deviation);
                    if expected(&name) != Some(got.as_str()) {
                        diffs.push(format!("    (\"{name}\", \"{got}\"),"));
                    }
                    rows += 1;
                }
            }
        }
    }
    assert!(diffs.is_empty(), "traces changed:\n{}", diffs.join("\n"));
    assert_eq!(rows, EXPECTED.len(), "one recorded result per row");
}

#[test]
fn timed_honest_outcomes_equal_the_fifo_row() {
    for (m, k) in SHAPES {
        for (program_name, program) in PROGRAMS {
            let fifo = expected(&format!("m{m}.{program_name}.fifo.none")).expect("recorded");
            let outcomes = fifo.split(" | ").nth(1).expect("rendered outcomes");
            assert_eq!(timed(program, m, k), outcomes, "m{m}.{program_name}");
        }
    }
}
