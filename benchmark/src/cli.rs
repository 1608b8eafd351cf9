//! The command line: the driver's protocol, the human-facing suite
//! commands, and the internal `child` entry every workload runs in.

use std::path::PathBuf;
use std::process::ExitCode;

use crate::parent::{self, Suite, SuiteOpts};
use crate::workloads::{Workload, DEFAULT_SECONDS, DEFAULT_SEED, SMOKE_DIVISOR, WORKLOADS};
use crate::{child, compare, json, metrics, workloads};

/// Where the benchmark writes: `out/` next to this crate's manifest, inside
/// the checkout it was built from.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `--flag value` pairs after the subcommand; unknown flags and unparsable
/// values are errors, never silent defaults.
struct Flags {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    rounds: usize,
    smoke: bool,
    setup_only: bool,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        rounds: 1,
        smoke: false,
        setup_only: false,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                flags.workload = Some(workloads::by_name(name).ok_or_else(|| {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}` (known: {})", known.join(", "))
                })?);
            }
            "--seed" => {
                flags.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                flags.seconds = Some(seconds);
            }
            "--trace" => {
                flags.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--rounds" => {
                flags.rounds = value("--rounds")?.parse().map_err(|e| format!("--rounds: {e}"))?;
                if flags.rounds == 0 {
                    return Err("--rounds must be at least 1".to_string());
                }
            }
            "--smoke" => flags.smoke = true,
            "--setup-only" => flags.setup_only = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            other => flags.positional.push(other.to_string()),
        }
    }
    Ok(flags)
}

impl Flags {
    fn seconds(&self) -> f64 {
        let seconds = self.seconds.unwrap_or(DEFAULT_SECONDS);
        if self.smoke {
            seconds / SMOKE_DIVISOR
        } else {
            seconds
        }
    }

    fn suite(&self, trace: bool) -> SuiteOpts {
        SuiteOpts {
            workloads: self.workload.map_or_else(|| WORKLOADS.iter().collect(), |w| vec![w]),
            seed: self.seed,
            seconds: self.seconds(),
            smoke: self.smoke,
            trace,
            rounds: self.rounds,
            out_dir: out_dir(),
        }
    }
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(cmd) if !cmd.starts_with("--") => (cmd.to_string(), &args[1..]),
        _ => ("driver".to_string(), &args[..]),
    };
    let flags = parse_flags(rest)?;
    match command.as_str() {
        // The driver's protocol: one workload, last stdout line is the result.
        "driver" => {
            let workload = flags.workload.ok_or("--workload is required")?;
            let mut opts = flags.suite(flags.trace);
            opts.workloads = vec![workload];
            parent::driver_run(&opts)
        }
        "child" => {
            let workload = flags.workload.ok_or("child needs --workload")?;
            child::run(&child::ChildArgs {
                workload,
                seed: flags.seed,
                seconds: flags.seconds.unwrap_or(DEFAULT_SECONDS),
                trace: flags.trace,
                setup_only: flags.setup_only,
                out_dir: out_dir(),
            })?;
            Ok(true)
        }
        "run" | "trace" => {
            let opts = flags.suite(command == "trace");
            let suite = Suite::measure(&opts)?;
            suite.print();
            let path = suite.write_results()?;
            println!("# results: {}", path.display());
            Ok(suite.correct())
        }
        "selfcheck" => {
            let opts = flags.suite(false);
            let first = Suite::measure(&opts)?;
            let second = Suite::measure(&opts)?;
            second.write_results()?;
            let ok = first.correct() && second.correct();
            Ok(compare::print_comparison(&first.to_json(), &second.to_json())? && ok)
        }
        "compare" => {
            let [a, b] = flags.positional.as_slice() else {
                return Err("compare takes two results files".to_string());
            };
            let load = |path: &String| {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                json::Json::parse(&text).map_err(|e| format!("{path}: {e}"))
            };
            compare::print_comparison(&load(a)?, &load(b)?)
        }
        "manifest" => {
            print!("{}", metrics::manifest().render_pretty());
            Ok(true)
        }
        other => Err(format!("unknown command `{other}`; see the crate docs for usage")),
    }
}

pub fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
