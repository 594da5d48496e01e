//! The benchmark's own span recorder, wrapped around the calls into each
//! library layer (the library's `ind-trace` stays off: tracing inside the
//! program is a later change). Spans are kept in memory and written out
//! when the run ends.

use crate::json::Json;
use std::time::Instant;

/// One timed interval: name, start and end on the recorder's clock, and
/// the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Spans of one traced trial; a span's id is its index.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `work` inside a span named `name`, nested under whichever span
    /// is open now.
    pub fn span<T>(&mut self, name: &'static str, work: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = work(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Total seconds spent in spans named `name` (a probe opens one per
    /// file).
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// A span's self time: its duration minus the part its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (self.spans[id].end_ns - self.spans[id].start_ns).saturating_sub(children)
    }

    /// The spans as JSON, each tagged with `trial` so that the spans of one
    /// trial share an identifier in the merged trace file.
    pub fn to_json(&self, trial: u64) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("trial", Json::Num(trial as f64)),
                        ("id", Json::Num(id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("self_ns", Json::Num(self.self_ns(id) as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_and_self_time() {
        let mut rec = Recorder::new();
        rec.span("outer", |rec| {
            rec.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            rec.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        assert_eq!(rec.spans.len(), 3);
        assert_eq!(rec.spans[0].parent, None);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[2].parent, Some(0));
        assert!(rec.total_s("inner") >= 0.010);
        let outer = rec.spans[0].end_ns - rec.spans[0].start_ns;
        assert!(
            rec.self_ns(0) < outer - 9_000_000,
            "children are subtracted"
        );
        assert_eq!(rec.to_json(7).as_arr().unwrap().len(), 3);
    }
}
