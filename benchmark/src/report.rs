//! What one workload's child process hands back to its parent: named
//! metrics, the output checks' verdict and the failure count.

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Report {
    /// Bids handed to the program (every phase, warm-up included).
    pub attempted: u64,
    /// Bids shed, rejected, in a ⊥ epoch, or never sealed.
    pub failed: u64,
    /// Output checks that did not hold (first few, for the log). Any entry
    /// makes the run incorrect; a failed check is never folded into a
    /// timing.
    pub failures: Vec<String>,
    /// SHA-256 over the ordered unanimous outcomes, hex.
    pub outcome_digest: String,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Free-form facts printed with the run (sample counts, lateness,
    /// filesystem type).
    pub notes: Vec<(String, String)>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name: name.to_string(), value, unit });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name: name.to_string(), value, unit });
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    pub fn fail(&mut self, what: impl Into<String>) {
        if self.failures.len() < 8 {
            self.failures.push(what.into());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0 && self.attempted > 0
    }

    pub fn to_json(&self) -> Json {
        let metrics = |list: &[Metric]| {
            let mut o = Json::obj();
            for m in list {
                let entry = [("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
                o.set(&m.name, Json::object(entry));
            }
            o
        };
        let mut notes = Json::obj();
        for (k, v) in &self.notes {
            notes.set(k, Json::Str(v.clone()));
        }
        let mut o = Json::obj();
        o.set("correct", Json::Bool(self.correct()))
            .set("attempted", Json::Num(self.attempted as f64))
            .set("failed", Json::Num(self.failed as f64))
            .set("failures", Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()))
            .set("outcome_digest", Json::Str(self.outcome_digest.clone()))
            .set("end_to_end", metrics(&self.end_to_end))
            .set("per_layer", metrics(&self.per_layer))
            .set("notes", notes);
        o
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
