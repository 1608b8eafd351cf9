//! `chaos_sweep` — survivability of multi-session batches under the
//! named chaos scenarios, and the executable form of the BFT claim.
//!
//! For every [`ChaosScenario`] the sweep runs one batch of sessions
//! through `run_batch_with` with the scenario's link faults and
//! adversarial provider wired in, then checks the paper's contract
//! against a fault-free reference run of the identical sessions:
//!
//! 1. **termination** — the batch returns (undecided sessions read ⊥ at
//!    the deadline); a hang would hold the deadline forever and fail CI
//!    by timeout;
//! 2. **no divergent clearing** — within a session, every provider's
//!    non-⊥ outcome is the *identical honest* outcome;
//! 3. **honest-or-⊥** — each session's unanimous outcome is the honest
//!    outcome or ⊥ (and scenarios whose faults stay inside the model's
//!    assumptions — `baseline`, `jitter`, `late-provider` — must clear
//!    every session);
//! 4. **determinism** — the same scenario and seed reproduce the same
//!    per-provider outcome vectors, run to run and across transports
//!    (in-process channels vs real TCP sockets).
//!
//! `--suite` turns contract violations into a non-zero exit (the CI
//! chaos-matrix mode); `--json` writes `BENCH_chaos.json`. The
//! `--transport tcp` rows additionally re-run each scenario in-process
//! and assert outcome equality — the cross-backend half of invariant 4.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use dauctioneer::cli::Flags;
use dauctioneer_bench::json::{provenance, write_bench_file, JsonArray, JsonObject};
use dauctioneer_bench::{fmt_secs, time_once, Table};
use dauctioneer_core::{
    run_batch_with, BatchConfig, BatchReport, BatchSession, DoubleAuctionProgram, FrameworkConfig,
    RunOptions, TransportKind,
};
use dauctioneer_types::{Outcome, SessionId};
use dauctioneer_workload::{chaos_suite, ChaosScenario, DoubleAuctionWorkload, Expectation};

/// One scenario × transport data point, plus its contract verdicts.
struct SweepRow {
    scenario: &'static str,
    transport: &'static str,
    sessions: usize,
    cleared: usize,
    aborted: usize,
    elapsed_s: f64,
    honest_or_bottom: bool,
    no_divergence: bool,
    cleared_all_required: bool,
    deterministic: bool,
    matches_inproc: Option<bool>,
}

impl SweepRow {
    fn ok(&self) -> bool {
        self.honest_or_bottom
            && self.no_divergence
            && self.cleared_all_required
            && self.deterministic
            && self.matches_inproc.unwrap_or(true)
    }
}

/// `--faulty`: keep the scenarios without (`Some(false)`) or with
/// (`Some(true)`) an adversarial provider, or all of them (`None`).
const FAULTY: &[(&str, Option<bool>)] = &[("0", Some(false)), ("1", Some(true)), ("all", None)];

fn sessions(n_users: usize, m: usize, count: usize, seed: u64) -> Vec<BatchSession> {
    (0..count)
        .map(|s| {
            let bids = DoubleAuctionWorkload::new(n_users, m, seed + s as u64).generate();
            BatchSession::uniform(SessionId(s as u64), bids, m, seed + 131 * s as u64)
        })
        .collect()
}

fn run_scenario(
    scenario: &ChaosScenario,
    transport: TransportKind,
    cfg: &FrameworkConfig,
    specs: &[BatchSession],
    options: &RunOptions,
    seed: u64,
) -> BatchReport {
    let (chaos, adversaries) = scenario.faults(seed, cfg.m);
    let batch = BatchConfig { shards: 1, transport, chaos, adversaries };
    run_batch_with(cfg, Arc::new(DoubleAuctionProgram::new()), specs.to_vec(), options, &batch)
        .expect("scenario run")
}

/// Per-provider outcome vectors of a report, in session order.
fn outcome_matrix(report: &BatchReport) -> Vec<Vec<Outcome>> {
    report.sessions.iter().map(|s| s.outcomes.clone()).collect()
}

fn main() -> ExitCode {
    let (mut suite_mode, mut emit_json, mut csv, mut quick) = (false, false, false, false);
    let (mut n_users, mut m, mut count, mut seed) = (6usize, 3usize, None, 42u64);
    let both: &[TransportKind] = &[TransportKind::InProc, TransportKind::Tcp];
    let mut transports = both;
    let mut faulty = None;
    Flags::new("usage: chaos_sweep [FLAG]...   the chaos contract over every named fault scenario")
        .switch("--suite", "exit 1 on a contract violation", &mut suite_mode)
        .switch("--json", "also write BENCH_chaos.json", &mut emit_json)
        .switch("--csv", "emit CSV instead of an aligned table", &mut csv)
        .switch("--quick", "fewer sessions and a shorter deadline", &mut quick)
        .value("--seed S", "workload and fault seed", &mut seed)
        .choice(
            "--transport",
            "transports to sweep",
            &mut transports,
            &[
                (TransportKind::InProc.name(), &[TransportKind::InProc]),
                (TransportKind::Tcp.name(), &[TransportKind::Tcp]),
                ("both", both),
            ],
        )
        .choice("--faulty", "scenarios without (0) or with (1) an adversary", &mut faulty, FAULTY)
        .optional("--sessions N", "sessions per batch (default 8, 4 with --quick)", &mut count)
        .value("--n USERS", "users per session", &mut n_users)
        .value("--m PROVIDERS", "providers, at least 3", &mut m)
        .parse(std::env::args().skip(1));
    let m = m.max(3);
    let k = (m - 1) / 2;
    let count = count.unwrap_or(if quick { 4 } else { 8 });
    let scenarios: Vec<ChaosScenario> = chaos_suite()
        .into_iter()
        .filter(|s| faulty.map_or(true, |with_adversary| s.has_adversary() == with_adversary))
        .collect();

    // The deadline bounds each batch: sessions that lost a critical
    // message wait it out and read ⊥ — that *is* the termination bound.
    let deadline = Duration::from_secs(if quick { 2 } else { 5 });
    let options = RunOptions { deadline, ..RunOptions::default() };
    let cfg = FrameworkConfig::new(m, k, n_users, m);
    let specs = sessions(n_users, m, count, seed);

    println!(
        "chaos sweep: double auction, n={n_users} users/session, m={m} providers (k={k}), \
         {count} sessions/batch, seed={seed}, deadline {deadline:?}, {} scenario(s)",
        scenarios.len()
    );

    // The fault-free reference: the honest outcome every scenario's
    // sessions are measured against.
    let reference =
        run_scenario(&chaos_suite()[0], TransportKind::InProc, &cfg, &specs, &options, seed);
    assert!(reference.all_agreed(), "the fault-free reference run must clear every session");
    let honest: Vec<Outcome> = reference.sessions.iter().map(|s| s.unanimous()).collect();

    let mut rows: Vec<SweepRow> = Vec::new();
    for scenario in &scenarios {
        // The in-process outcome matrix, remembered so a TCP row swept
        // right after the InProc row compares against it instead of
        // re-running the whole (deadline-bounded) batch.
        let mut inproc_matrix: Option<Vec<Vec<Outcome>>> = None;
        for &transport in transports {
            let (report, elapsed) =
                time_once(|| run_scenario(scenario, transport, &cfg, &specs, &options, seed));

            // Contract 2 + 3: per provider, honest-or-⊥; no divergence.
            let mut honest_or_bottom = true;
            let mut no_divergence = true;
            let mut cleared = 0usize;
            for (session, honest_outcome) in report.sessions.iter().zip(&honest) {
                let unanimous = session.unanimous();
                if !unanimous.is_abort() {
                    cleared += 1;
                }
                for outcome in &session.outcomes {
                    if !outcome.is_abort() {
                        if outcome != honest_outcome {
                            honest_or_bottom = false;
                        }
                        // Divergence: two providers clearing different
                        // non-⊥ trades in one session.
                        for other in &session.outcomes {
                            if !other.is_abort() && other != outcome {
                                no_divergence = false;
                            }
                        }
                    }
                }
            }
            let cleared_all_required =
                scenario.expect != Expectation::HonestOnly || cleared == report.sessions.len();

            // Contract 4a: replay determinism on the same backend.
            // Scenarios mixing timing faults with content faults keep
            // every safety contract but not outcome identity (see
            // `ChaosScenario::replayable_outcomes`).
            let deterministic = !scenario.replayable_outcomes() || {
                let replay = run_scenario(scenario, transport, &cfg, &specs, &options, seed);
                outcome_matrix(&report) == outcome_matrix(&replay)
            };

            if transport == TransportKind::InProc {
                inproc_matrix = Some(outcome_matrix(&report));
            }

            // Contract 4b: TCP rows must match the in-process outcomes
            // for the same seed (reusing the InProc row's matrix when
            // this sweep already produced it).
            let matches_inproc =
                (transport == TransportKind::Tcp && scenario.replayable_outcomes()).then(|| {
                    let inproc = inproc_matrix.clone().unwrap_or_else(|| {
                        outcome_matrix(&run_scenario(
                            scenario,
                            TransportKind::InProc,
                            &cfg,
                            &specs,
                            &options,
                            seed,
                        ))
                    });
                    inproc == outcome_matrix(&report)
                });

            rows.push(SweepRow {
                scenario: scenario.name,
                transport: transport.name(),
                sessions: report.sessions.len(),
                cleared,
                aborted: report.sessions.len() - cleared,
                elapsed_s: elapsed.as_secs_f64(),
                honest_or_bottom,
                no_divergence,
                cleared_all_required,
                deterministic,
                matches_inproc,
            });
        }
    }

    let mut table =
        Table::new(&["scenario", "transport", "cleared", "aborted", "elapsed", "contract"], csv);
    for row in &rows {
        table.row(vec![
            row.scenario.to_string(),
            row.transport.to_string(),
            format!("{}/{}", row.cleared, row.sessions),
            row.aborted.to_string(),
            fmt_secs(row.elapsed_s),
            if row.ok() { "ok".into() } else { "VIOLATED".into() },
        ]);
    }
    print!("{}", table.render());

    let violations: Vec<&SweepRow> = rows.iter().filter(|r| !r.ok()).collect();
    for row in &violations {
        eprintln!(
            "CONTRACT VIOLATION: scenario `{}` on {} (seed {seed}): honest_or_bottom={} \
             no_divergence={} cleared_all_required={} deterministic={} matches_inproc={:?}",
            row.scenario,
            row.transport,
            row.honest_or_bottom,
            row.no_divergence,
            row.cleared_all_required,
            row.deterministic,
            row.matches_inproc,
        );
    }

    if emit_json {
        let mut json_rows = JsonArray::new();
        for row in &rows {
            let mut o = JsonObject::new();
            o.str("scenario", row.scenario)
                .str("transport", row.transport)
                .int("sessions", row.sessions as u64)
                .int("cleared", row.cleared as u64)
                .int("aborted", row.aborted as u64)
                .num("elapsed_s", row.elapsed_s)
                .num("sessions_per_s", row.sessions as f64 / row.elapsed_s)
                .bool("honest_or_bottom", row.honest_or_bottom)
                .bool("no_divergence", row.no_divergence)
                .bool("cleared_all_required", row.cleared_all_required)
                .bool("deterministic", row.deterministic);
            match row.matches_inproc {
                Some(b) => o.bool("matches_inproc", b),
                None => o.raw("matches_inproc", "null"),
            };
            json_rows.push(o.finish());
        }
        let mut config = JsonObject::new();
        config
            .int("n_users", n_users as u64)
            .int("m", m as u64)
            .int("k", k as u64)
            .int("sessions", count as u64)
            .int("seed", seed)
            .bool("quick", quick)
            .num("deadline_s", deadline.as_secs_f64());
        let mut top = JsonObject::new();
        top.str("bench", "chaos_sweep")
            .raw("provenance", &provenance())
            .raw("config", &config.finish())
            .bool("all_contracts_hold", violations.is_empty())
            .raw("rows", &json_rows.finish());
        match write_bench_file("chaos", &top.finish()) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("failed to write BENCH_chaos.json: {e}"),
        }
    }

    if !violations.is_empty() {
        eprintln!("{} contract violation(s); reproduce with --seed {seed}", violations.len());
        // Only --suite turns violations into a failing exit; the bare
        // sweep still reports them honestly instead of claiming success.
        return if suite_mode { ExitCode::from(1) } else { ExitCode::SUCCESS };
    }
    println!("all {} scenario runs honoured the chaos contract (seed {seed})", rows.len());
    ExitCode::SUCCESS
}
