//! `compare A.json B.json` and `selfcheck`: per workload × end-to-end
//! metric, both medians, the ratio with its base, the bound, and a verdict.
//!
//! * `ok` — B's median is no worse than A's by more than the bound, or the
//!   difference is below the metric's absolute floor;
//! * `regressed` — it is worse by more than the bound;
//! * `unresolved` — the run-to-run spread of either side (quartile distance
//!   over median, needs `--rounds` ≥ 2) is wider than the bound, so neither
//!   of the above can be said, or the generator ran late.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};
use crate::stats::quartile_spread;

struct Side {
    median: f64,
    spread: Option<f64>,
    generator_late: bool,
}

fn side(results: &Json, workload: &str, metric: &str) -> Option<Side> {
    let entry = results.get("workloads")?.get(workload)?;
    let m = entry.get("end_to_end")?.get(metric)?;
    let values: Vec<f64> =
        m.get("values").map_or(&[][..], Json::items).iter().filter_map(Json::as_f64).collect();
    let late = entry.get("run").and_then(|r| r.get("notes")?.get("gen.verdict")).is_some();
    Some(Side {
        median: m.get("value")?.as_f64()?,
        spread: quartile_spread(&values),
        generator_late: late,
    })
}

/// Prints the table; `Ok(false)` when any pairing regressed.
pub fn print_comparison(a: &Json, b: &Json) -> Result<bool, String> {
    for (label, results) in [("A", a), ("B", b)] {
        if results.get("smoke").and_then(Json::as_bool) == Some(true) {
            println!("# {label} is a smoke run: its timings are not comparable");
        }
    }
    for key in ["seed", "seconds"] {
        if a.get(key) != b.get(key) {
            println!("# WARNING: {key} differs between A and B; the run length must be the same");
        }
    }
    println!(
        "{:<18} {:<22} {:>14} {:>14} {:>9} {:>7} {:>9} {:>9}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound", "spread A", "spread B"
    );
    let workloads = a.get("workloads").ok_or("A has no workloads")?;
    let mut regressed = 0usize;
    let mut compared = 0usize;
    for (workload, _) in workloads.entries() {
        for metric in &END_TO_END {
            let (Some(base), Some(new)) =
                (side(a, workload, metric.name), side(b, workload, metric.name))
            else {
                continue;
            };
            compared += 1;
            let worse_by = match metric.better {
                Better::Lower => (new.median - base.median) / base.median,
                Better::Higher => (base.median - new.median) / base.median,
            };
            let spread_wide = [base.spread, new.spread].iter().flatten().any(|s| *s > metric.bound);
            let verdict = if (new.median - base.median).abs() < metric.floor {
                "ok (below floor)"
            } else if spread_wide || base.generator_late || new.generator_late {
                "unresolved"
            } else if worse_by > metric.bound {
                regressed += 1;
                "regressed"
            } else {
                "ok"
            };
            let spread = |s: Option<f64>| s.map_or_else(|| "-".to_string(), |s| format!("{s:.3}"));
            println!(
                "{:<18} {:<22} {:>14.4} {:>14.4} {:>9.4} {:>7.2} {:>9} {:>9}  {verdict}",
                workload,
                metric.name,
                base.median,
                new.median,
                new.median / base.median,
                metric.bound,
                spread(base.spread),
                spread(new.spread),
            );
        }
    }
    if compared == 0 {
        return Err("the two results share no workload and end-to-end metric".to_string());
    }
    println!("# {compared} pairings compared, {regressed} regressed (ratios are B over base A)");
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(value: f64, values: &[f64]) -> Json {
        let values: Vec<String> = values.iter().map(|v| v.to_string()).collect();
        Json::parse(&format!(
            r#"{{"seed":1,"seconds":2,"workloads":{{"w":{{"end_to_end":{{
                "sealed_bids_per_s":{{"value":{value},"unit":"bids/s","values":[{}]}}}}}}}}}}"#,
            values.join(",")
        ))
        .unwrap()
    }

    #[test]
    fn higher_is_better_regresses_downwards_only() {
        let base = results(100.0, &[]);
        assert!(print_comparison(&base, &results(95.0, &[])).unwrap());
        assert!(print_comparison(&base, &results(150.0, &[])).unwrap());
        assert!(!print_comparison(&base, &results(70.0, &[])).unwrap());
    }

    #[test]
    fn a_wide_spread_is_unresolved_not_regressed() {
        let noisy = results(70.0, &[40.0, 70.0, 120.0, 60.0, 90.0]);
        assert!(print_comparison(&results(100.0, &[]), &noisy).unwrap());
    }
}
