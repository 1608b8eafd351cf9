//! The names are API: `BENCHMARK.json`, the tables in `metrics.rs` and what
//! a run actually writes to `results.json` must list the same workloads and
//! metrics, each with a unit, and nothing besides.

use std::path::Path;
use std::process::Command;

use dauctioneer_benchmark::json::Json;
use dauctioneer_benchmark::metrics::manifest;

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn names(list: &Json) -> Vec<String> {
    list.items().iter().map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string()).collect()
}

#[test]
fn checked_in_manifest_is_the_one_the_tables_print() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    assert_eq!(
        load(&root.join("BENCHMARK.json")),
        manifest(),
        "BENCHMARK.json is stale: regenerate it with `benchmark manifest`"
    );
}

#[test]
fn smoke_run_reports_every_name_with_a_unit_and_none_besides() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let benchmark = load(&root.join("BENCHMARK.json"));
    for command in ["run", "trace"] {
        let status = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args([command, "--smoke"])
            .status()
            .expect("benchmark binary runs");
        assert!(status.success(), "`benchmark {command} --smoke` failed its checks: {status}");
    }
    let results = load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("out/results.json"));
    assert_eq!(results.get("smoke").and_then(Json::as_bool), Some(true));

    let workloads = results.get("workloads").expect("workloads");
    let reported: Vec<&str> = workloads.entries().iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(reported, names(benchmark.get("workloads").unwrap()), "workload names");
    for (workload, entry) in workloads.entries() {
        for (section, verdict) in [("end_to_end", "run"), ("per_layer", "trace")] {
            let metrics = entry.get(section).unwrap_or_else(|| panic!("{workload}: no {section}"));
            let reported: Vec<&str> = metrics.entries().iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(reported, names(benchmark.get(section).unwrap()), "{workload} {section}");
            for (listed, (name, metric)) in
                benchmark.get(section).unwrap().items().iter().zip(metrics.entries())
            {
                assert_eq!(metric.get("unit"), listed.get("unit"), "{workload} {name} unit");
                let value = metric.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{workload} {name} value");
                if section == "end_to_end" {
                    assert!(value.unwrap() > 0.0, "{workload} {name} must never be 0");
                }
            }
            let verdict = entry.get(verdict).unwrap_or_else(|| panic!("{workload}: no {verdict}"));
            assert_eq!(verdict.get("correct").and_then(Json::as_bool), Some(true), "{workload}");
            assert_eq!(verdict.get("failed").and_then(Json::as_f64), Some(0.0), "{workload}");
        }
    }
}
