//! Dependency-free JSON emission for machine-readable bench output.
//!
//! The build is fully offline (no serde); the bench binaries need only
//! to *write* small, flat documents, so a push-style builder is enough.
//! Numbers are emitted with `{:?}`-free plain formatting and strings are
//! escaped per RFC 8259.

use std::io::Write;
use std::path::{Path, PathBuf};

/// Escape a string for inclusion in a JSON document (without quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Builder for one JSON object.
///
/// # Example
///
/// ```
/// use dauctioneer_bench::json::JsonObject;
///
/// let mut o = JsonObject::new();
/// o.str("name", "soak").int("rounds", 3).num("rate", 1000.0).bool("quick", true);
/// assert_eq!(o.finish(), r#"{"name":"soak","rounds":3,"rate":1000,"quick":true}"#);
/// ```
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Start an empty object.
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    fn key(&mut self, key: &str) -> &mut String {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(&escape(key));
        self.buf.push_str("\":");
        &mut self.buf
    }

    /// Add a string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut JsonObject {
        let escaped = format!("\"{}\"", escape(value));
        self.key(key).push_str(&escaped);
        self
    }

    /// Add an integer field.
    pub fn int(&mut self, key: &str, value: u64) -> &mut JsonObject {
        let v = value.to_string();
        self.key(key).push_str(&v);
        self
    }

    /// Add a float field (non-finite values become `null`).
    pub fn num(&mut self, key: &str, value: f64) -> &mut JsonObject {
        let v = fmt_f64(value);
        self.key(key).push_str(&v);
        self
    }

    /// Add a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut JsonObject {
        let v = if value { "true" } else { "false" };
        self.key(key).push_str(v);
        self
    }

    /// Add an already-serialised JSON value (object, array…).
    pub fn raw(&mut self, key: &str, value: &str) -> &mut JsonObject {
        self.key(key).push_str(value);
        self
    }

    /// Serialise.
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Builder for one JSON array of already-serialised values.
#[derive(Debug, Clone, Default)]
pub struct JsonArray {
    items: Vec<String>,
}

impl JsonArray {
    /// Start an empty array.
    pub fn new() -> JsonArray {
        JsonArray::default()
    }

    /// Append an already-serialised JSON value.
    pub fn push(&mut self, value: String) -> &mut JsonArray {
        self.items.push(value);
        self
    }

    /// Serialise.
    pub fn finish(&self) -> String {
        format!("[{}]", self.items.join(","))
    }
}

/// Format an `f64` as a JSON number: integral values lose the trailing
/// `.0`, non-finite values (which JSON cannot carry) become `null`.
fn fmt_f64(value: f64) -> String {
    if !value.is_finite() {
        return "null".into();
    }
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

/// A provenance stamp for bench output, answering "what produced this
/// file" when a `BENCH_*.json` is compared weeks later: the git commit
/// (best-effort — `"unknown"` outside a work tree), the host's core
/// count (throughput rows are meaningless without it), and the unix
/// timestamp. Embed it with [`JsonObject::raw`] under a `"provenance"`
/// key.
pub fn provenance() -> String {
    let sha = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut o = JsonObject::new();
    o.str("git_sha", &sha).int("host_cores", cores).int("unix_time", unix_time);
    o.finish()
}

/// Write `content` to `BENCH_<name>.json` in the current directory and
/// return the path.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_bench_file(name: &str, content: &str) -> std::io::Result<PathBuf> {
    write_bench_file_to(Path::new("."), name, content)
}

fn write_bench_file_to(dir: &Path, name: &str, content: &str) -> std::io::Result<PathBuf> {
    let path = dir.join(format!("BENCH_{name}.json"));
    let mut f = std::fs::File::create(&path)?;
    f.write_all(content.as_bytes())?;
    f.write_all(b"\n")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn object_and_array_compose() {
        let mut row = JsonObject::new();
        row.int("n", 8).num("rate", 0.5);
        let mut arr = JsonArray::new();
        arr.push(row.finish());
        let mut top = JsonObject::new();
        top.str("bench", "x").raw("rows", &arr.finish());
        assert_eq!(top.finish(), r#"{"bench":"x","rows":[{"n":8,"rate":0.5}]}"#);
    }

    #[test]
    fn floats_format_cleanly() {
        assert_eq!(fmt_f64(3.0), "3");
        assert_eq!(fmt_f64(0.25), "0.25");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    #[test]
    fn bench_file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dauctioneer-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = write_bench_file_to(&dir, "unit_test", r#"{"ok":true}"#).unwrap();
        assert_eq!(path, dir.join("BENCH_unit_test.json"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"ok\":true}\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
