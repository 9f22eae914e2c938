//! Spans recorded from outside the program under test: one around every
//! call into a layer, kept in memory and written out when the run ends.
//! A span's self time is its duration minus the part its children cover;
//! readers of the written file compute it (see `../../README.md`).

use crate::json::Json;
use std::time::Instant;

/// One timed call: `parent` is the span that was open when it began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in recording order.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// What was called.
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans; switched off it records nothing, so the same code
/// measures the cost of recording.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`on`) or only passes calls through.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span called `name`; spans `f` opens through the
    /// tracer it is handed become children.  Returns `f`'s result and the
    /// span's wall time in seconds (measured whether or not recording is on).
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        if !self.on {
            let started = Instant::now();
            let r = f(self);
            return (r, started.elapsed().as_secs_f64());
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let r = f(self);
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        self.spans[id].start_ns = start_ns;
        self.spans[id].end_ns = end_ns;
        (r, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array of `{id, parent, name, start_ns, end_ns}`.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("id", Json::Num(s.id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("name", Json::str(s.name.as_str())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
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
    fn nested_spans_link_to_their_parent_and_fit_inside_it() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert!(spans[1].seconds() + spans[2].seconds() <= spans[0].seconds());
        assert_eq!(t.to_json().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn a_tracer_switched_off_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.span("x", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
