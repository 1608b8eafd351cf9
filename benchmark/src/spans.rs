//! The benchmark's own spans: recorded around the calls into each layer
//! during the replay, kept in memory, written out when the run ends.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the recorder (`None` for a per-epoch
    /// root).
    pub parent: Option<usize>,
    /// The epoch the work belongs to — the identifier every span of one
    /// replayed epoch shares.
    pub epoch: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn start() -> Recorder {
        Recorder { origin: Instant::now(), spans: Vec::new() }
    }

    /// Run `work` inside a span and return its result with the span's index
    /// (the parent handle for nested calls).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        epoch: u64,
        work: impl FnOnce(&mut Recorder, usize) -> T,
    ) -> T {
        let index = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, epoch });
        let result = work(self, index);
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        result
    }

    /// A span's self time: its duration minus the part its children cover.
    pub fn self_ns(&self, index: usize) -> u64 {
        let children: u64 =
            self.spans.iter().filter(|s| s.parent == Some(index)).map(Span::duration_ns).sum();
        self.spans[index].duration_ns().saturating_sub(children)
    }

    /// Durations in µs of every span called `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e3).collect()
    }

    /// Self times in µs of every span called `name`.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ns(i) as f64 / 1e3)
            .collect()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let mut o = Json::obj();
                    o.set("id", Json::Num(i as f64))
                        .set("name", Json::Str(s.name.to_string()))
                        .set("epoch", Json::Num(s.epoch as f64))
                        .set("start_ns", Json::Num(s.start_ns as f64))
                        .set("end_ns", Json::Num(s.end_ns as f64))
                        .set("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64)));
                    o
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::start();
        rec.span("epoch", None, 7, |rec, root| {
            rec.span("child", Some(root), 7, |_, _| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let root = &rec.spans[0];
        let child = &rec.spans[1];
        assert_eq!(child.parent, Some(0));
        assert!(child.start_ns >= root.start_ns && child.end_ns <= root.end_ns);
        assert_eq!(rec.self_ns(0), root.duration_ns() - child.duration_ns());
        assert_eq!(rec.self_ns(1), child.duration_ns());
    }
}
