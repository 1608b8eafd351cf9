//! The parent side: every workload runs in fresh child processes of this
//! same binary. The parent owns the one clock that spans processes — child
//! start → `READY` is `setup_s` — and turns the children's `RESULT` lines
//! into the table, `results.json` and the driver's result line.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::json::Json;
use crate::market_run::filesystem_of;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::workloads::Workload;

/// Fresh processes whose start → ready time is taken per run; `setup_s` is
/// their median.
const SETUPS: usize = 9;
const SMOKE_SETUPS: usize = 2;

pub struct SuiteOpts {
    pub workloads: Vec<&'static Workload>,
    pub seed: u64,
    /// Already divided for `--smoke`.
    pub seconds: f64,
    pub smoke: bool,
    pub trace: bool,
    pub rounds: usize,
    pub out_dir: PathBuf,
}

/// Spawn one child; returns its start → `READY` time in seconds and its
/// `RESULT` object (absent for a set-up-only child).
fn spawn_child(
    w: &Workload,
    opts: &SuiteOpts,
    setup_only: bool,
) -> Result<(f64, Option<Json>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["child", "--workload", w.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if setup_only {
        command.arg("--setup-only");
    }
    let started = Instant::now();
    let mut child = command.spawn().map_err(|e| format!("spawn child: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut ready = None;
    let mut result = None;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| e.to_string())?;
        if line == "READY" {
            ready.get_or_insert(started.elapsed().as_secs_f64());
        } else if let Some(json) = line.strip_prefix("RESULT ") {
            result = Some(Json::parse(json).map_err(|e| format!("child result: {e}"))?);
        } else {
            eprintln!("[{}] {line}", w.name);
        }
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("{} child exited with {status}", w.name));
    }
    let ready = ready.ok_or_else(|| format!("{} child never became ready", w.name))?;
    Ok((ready, result))
}

/// One run of one workload: the set-up samples, then the measured child.
/// Returns the child's result with `setup_s` added to its end-to-end
/// metrics.
fn measure_once(w: &Workload, opts: &SuiteOpts) -> Result<Json, String> {
    let extra_setups = match (opts.trace, opts.smoke) {
        (true, _) => 0, // per-layer runs report no set-up time
        (false, true) => SMOKE_SETUPS - 1,
        (false, false) => SETUPS - 1,
    };
    let mut setups = Vec::with_capacity(extra_setups + 1);
    for _ in 0..extra_setups {
        setups.push(spawn_child(w, opts, true)?.0);
    }
    let (ready, result) = spawn_child(w, opts, false)?;
    setups.push(ready);
    let mut result = result.ok_or_else(|| format!("{} child printed no result", w.name))?;
    let setup = median(&mut setups).expect("at least one set-up");
    let setup = Json::object([("value", Json::Num(setup)), ("unit", Json::str("s"))]);
    let mut e2e = Json::object([("setup_s", setup)]);
    for (name, metric) in result.get("end_to_end").map_or(&[][..], Json::entries) {
        e2e.set(name, metric.clone());
    }
    result.set("end_to_end", e2e);
    Ok(result)
}

/// The digest recorded for the default seed and length, if this run is one.
fn expected_digest(w: &Workload, opts: &SuiteOpts) -> Option<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected_digests.json");
    let recorded = Json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    let same_run = recorded.get("seed")?.as_f64()? == opts.seed as f64
        && recorded.get("seconds")?.as_f64()? == opts.seconds;
    same_run.then(|| recorded.get("digests")?.get(w.name)?.as_str().map(str::to_string))?
}

/// All rounds of one workload, folded: medians of every metric (with the
/// per-round values beside them), the checks' verdict, the digest.
pub struct WorkloadRuns {
    pub workload: &'static Workload,
    pub rounds: Vec<Json>,
    pub extra_failures: Vec<String>,
}

impl WorkloadRuns {
    fn section(&self, key: &str) -> Json {
        let mut out = Json::obj();
        let Some(first) = self.rounds.first().and_then(|r| r.get(key)) else { return out };
        for (name, metric) in first.entries() {
            let values: Vec<f64> = self
                .rounds
                .iter()
                .filter_map(|r| r.get(key)?.get(name)?.get("value")?.as_f64())
                .collect();
            let mut entry = Json::obj();
            entry
                .set("value", Json::Num(median(&mut values.clone()).unwrap_or(0.0)))
                .set("unit", metric.get("unit").cloned().unwrap_or(Json::Null));
            if values.len() > 1 {
                entry.set("values", Json::Arr(values.into_iter().map(Json::Num).collect()));
            }
            out.set(name, entry);
        }
        out
    }

    pub fn correct(&self) -> bool {
        self.extra_failures.is_empty()
            && self.rounds.iter().all(|r| r.get("correct").and_then(Json::as_bool) == Some(true))
    }

    fn digest(&self) -> &str {
        self.rounds.first().and_then(|r| r.get("outcome_digest")?.as_str()).unwrap_or("")
    }

    fn count(&self, key: &str) -> f64 {
        self.rounds.iter().filter_map(|r| r.get(key)?.as_f64()).sum()
    }

    fn failures(&self) -> Vec<String> {
        let mut all = self.extra_failures.clone();
        for round in &self.rounds {
            all.extend(
                round
                    .get("failures")
                    .map_or(&[][..], Json::items)
                    .iter()
                    .filter_map(|f| f.as_str().map(str::to_string)),
            );
        }
        all
    }

    /// The checks' side of the run: what `results.json` keeps under `run`
    /// or `trace`.
    fn verdict(&self) -> Json {
        let mut o = Json::obj();
        o.set("correct", Json::Bool(self.correct()))
            .set("attempted", Json::Num(self.count("attempted")))
            .set("failed", Json::Num(self.count("failed")))
            .set("outcome_digest", Json::Str(self.digest().to_string()))
            .set("failures", Json::Arr(self.failures().into_iter().map(Json::Str).collect()))
            .set("rounds", Json::Num(self.rounds.len() as f64));
        if let Some(last) = self.rounds.last() {
            for key in ["notes", "trace_file"] {
                if let Some(value) = last.get(key) {
                    o.set(key, value.clone());
                }
            }
        }
        o
    }
}

pub struct Suite {
    seed: u64,
    seconds: f64,
    smoke: bool,
    trace: bool,
    out_dir: PathBuf,
    env: Vec<(&'static str, String)>,
    runs: Vec<WorkloadRuns>,
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn environment(out_dir: &Path) -> Vec<(&'static str, String)> {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    vec![
        (
            "nproc",
            std::thread::available_parallelism().map_or("unknown".to_string(), |n| n.to_string()),
        ),
        ("git_sha", command_line("git", &["rev-parse", "HEAD"], manifest_dir)),
        ("rustc", command_line("rustc", &["-V"], manifest_dir)),
        ("journal_filesystem", filesystem_of(out_dir)),
        ("tcp", "host loopback".to_string()),
    ]
}

impl Suite {
    /// Run every selected workload `rounds` times, each run in fresh child
    /// processes.
    pub fn measure(opts: &SuiteOpts) -> Result<Suite, String> {
        std::fs::create_dir_all(&opts.out_dir).map_err(|e| e.to_string())?;
        let mut suite = Suite {
            seed: opts.seed,
            seconds: opts.seconds,
            smoke: opts.smoke,
            trace: opts.trace,
            out_dir: opts.out_dir.clone(),
            env: environment(&opts.out_dir),
            runs: Vec::new(),
        };
        for &workload in &opts.workloads {
            let mut runs =
                WorkloadRuns { workload, rounds: Vec::new(), extra_failures: Vec::new() };
            for _ in 0..opts.rounds {
                runs.rounds.push(measure_once(workload, opts)?);
            }
            let digests: Vec<&str> =
                runs.rounds.iter().filter_map(|r| r.get("outcome_digest")?.as_str()).collect();
            if digests.windows(2).any(|d| d[0] != d[1]) {
                runs.extra_failures
                    .push("outcome_digest differs between rounds of one seed".into());
            }
            if let Some(expected) = expected_digest(workload, opts) {
                if digests.first().is_some_and(|d| *d != expected) {
                    runs.extra_failures.push(format!(
                        "outcome_digest {} is not the recorded {expected}",
                        digests[0]
                    ));
                }
            }
            suite.runs.push(runs);
        }
        Ok(suite)
    }

    pub fn correct(&self) -> bool {
        self.runs.iter().all(WorkloadRuns::correct)
    }

    fn section_key(&self) -> &'static str {
        if self.trace {
            "per_layer"
        } else {
            "end_to_end"
        }
    }

    /// `workload metric value unit`, one line per metric, then the checks.
    pub fn print(&self) {
        println!(
            "# seed {} · {} s per workload · {}",
            self.seed,
            self.seconds,
            if self.trace { "traced run (per-layer)" } else { "untraced run (end-to-end)" }
        );
        for (key, value) in &self.env {
            println!("# {key}: {value}");
        }
        if self.smoke {
            println!("# SMOKE RUN: checks are on, timings are not comparable with anything");
        }
        for runs in &self.runs {
            let name = runs.workload.name;
            for (metric, entry) in self.section(runs).entries() {
                let value = entry.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
                println!("{name} {metric} {value:.6} {unit}");
            }
            let verdict = runs.verdict();
            let (attempted, failed) = (runs.count("attempted"), runs.count("failed"));
            println!("{name} failed_share {:.6} ratio", failed / attempted.max(1.0));
            println!("{name} outcome_digest {}", runs.digest());
            for (key, value) in verdict.get("notes").map_or(&[][..], Json::entries) {
                println!("# {name} {key}: {}", value.as_str().unwrap_or(""));
            }
            for why in runs.failures() {
                println!("# {name} CHECK FAILED: {why}");
            }
            println!("# {name} checks: {}", if runs.correct() { "ok" } else { "FAILED" });
        }
    }

    fn section(&self, runs: &WorkloadRuns) -> Json {
        let mut section = runs.section(self.section_key());
        if self.trace {
            // Every per-layer name on every workload; a layer the workload
            // does not exercise reads 0.
            let mut full = Json::obj();
            for m in &PER_LAYER {
                let zero = Json::object([("value", Json::Num(0.0)), ("unit", Json::str(m.unit))]);
                full.set(m.name, section.get(m.name).cloned().unwrap_or(zero));
            }
            section = full;
        }
        section
    }

    pub fn to_json(&self) -> Json {
        let mut env = Json::obj();
        for (key, value) in &self.env {
            env.set(key, Json::Str(value.clone()));
        }
        let mut workloads = Json::obj();
        for runs in &self.runs {
            let mut o = Json::obj();
            o.set(self.section_key(), self.section(runs));
            o.set(if self.trace { "trace" } else { "run" }, runs.verdict());
            workloads.set(runs.workload.name, o);
        }
        let mut root = Json::obj();
        root.set("schema", Json::Num(1.0))
            .set("seed", Json::Num(self.seed as f64))
            .set("seconds", Json::Num(self.seconds))
            .set("smoke", Json::Bool(self.smoke))
            .set("env", env)
            .set("workloads", workloads);
        root
    }

    /// Write `results.json`. A `run` and a `trace` of the same seed and
    /// length share the file: each replaces its own sections and keeps the
    /// other's.
    pub fn write_results(&self) -> Result<PathBuf, String> {
        let path = self.out_dir.join("results.json");
        let mut merged = self.to_json();
        let previous = std::fs::read_to_string(&path).ok().and_then(|t| Json::parse(&t).ok());
        if let Some(previous) = previous
            .filter(|p| ["seed", "seconds", "smoke"].iter().all(|k| p.get(k) == merged.get(k)))
        {
            let mut workloads = previous.get("workloads").cloned().unwrap_or_else(Json::obj);
            for (name, mine) in merged.get("workloads").map_or(&[][..], Json::entries) {
                let mut entry = workloads.get(name).cloned().unwrap_or_else(Json::obj);
                for (key, value) in mine.entries() {
                    entry.set(key, value.clone());
                }
                workloads.set(name, entry);
            }
            merged.set("workloads", workloads);
        }
        std::fs::write(&path, merged.render_pretty()).map_err(|e| e.to_string())?;
        Ok(path)
    }
}

/// The driver's protocol: one workload, one run, and as the last line of
/// standard output one object with `correct`, `attempted`, `failed` and
/// every end-to-end (`--trace 0`) or per-layer (`--trace 1`) metric.
pub fn driver_run(opts: &SuiteOpts) -> Result<bool, String> {
    let suite = Suite::measure(opts)?;
    suite.print();
    let runs = &suite.runs[0];
    let metrics = suite.section(runs);
    let expected: Vec<&str> = if opts.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    if let Some(missing) = expected.iter().find(|name| metrics.get(name).is_none()) {
        return Err(format!("{}: no value for `{missing}`", runs.workload.name));
    }
    let mut line = Json::obj();
    let mut plain = Json::obj();
    for name in expected {
        let entry = metrics.get(name).expect("checked above");
        let mut o = Json::obj();
        o.set("value", entry.get("value").cloned().unwrap_or(Json::Null))
            .set("unit", entry.get("unit").cloned().unwrap_or(Json::Null));
        plain.set(name, o);
    }
    line.set("correct", Json::Bool(runs.correct()))
        .set("attempted", Json::Num(runs.count("attempted").max(1.0)))
        .set("failed", Json::Num(runs.count("failed")))
        .set("metrics", plain);
    println!("{}", line.render());
    // The run happened and says what it found; an incorrect run is reported
    // in the line, not by the exit code.
    Ok(true)
}
