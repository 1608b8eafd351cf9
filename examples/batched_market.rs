//! A batched bandwidth marketplace: many concurrent double-auction
//! sessions — one per resource pool — multiplexed over one shared
//! provider mesh.
//!
//! Every frame carries its session tag, so the same three providers can
//! clear eight independent markets at once over one transport; the batch
//! report makes throughput (sessions per second) a first-class number.
//!
//! Run with: `cargo run --example batched_market`

use std::sync::Arc;

use dauctioneer::core::{
    run_batch, BatchSession, DoubleAuctionProgram, FrameworkConfig, RunError, RunOptions,
};
use dauctioneer::types::SessionId;
use dauctioneer::workload::DoubleAuctionWorkload;

fn main() -> Result<(), RunError> {
    let m = 3; // providers jointly simulating the auctioneer
    let k = 1; // tolerated coalition size (m > 2k)
    let n_users = 12; // bidders per market
    let cfg = FrameworkConfig::new(m, k, n_users, m);

    // Eight independent markets, each with its own workload.
    let sessions: Vec<BatchSession> = (0..8)
        .map(|pool| {
            let bids = DoubleAuctionWorkload::new(n_users, m, 1_000 + pool).generate();
            BatchSession::uniform(SessionId(pool), bids, m, 42 + pool)
        })
        .collect();

    println!("clearing {} markets over one {m}-provider mesh…", sessions.len());
    let report =
        run_batch(&cfg, Arc::new(DoubleAuctionProgram::new()), sessions, &RunOptions::default())?;

    for session in &report.sessions {
        let outcome = session.unanimous();
        match outcome.as_result() {
            Some(result) => println!(
                "  {}: {} winners, total allocated {}, payments {}",
                session.session,
                result.allocation.winners().len(),
                result.allocation.total(),
                result.payments.total_user_payments(),
            ),
            None => println!("  {}: ⊥ (aborted)", session.session),
        }
    }
    println!(
        "batch: {} sessions in {:?} → {:.1} sessions/sec, {} messages on the wire",
        report.sessions.len(),
        report.elapsed,
        report.sessions_per_sec(),
        report.traffic.total_messages(),
    );
    assert!(report.all_agreed(), "every market should clear");
    Ok(())
}
