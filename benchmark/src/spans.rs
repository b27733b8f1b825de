//! In-memory spans around the benchmark's own calls into each layer.
//!
//! The traced run times public functions of the crates from *this* file
//! set — no source file outside the benchmark gains a span. Spans are kept
//! in memory and written out once, when the run ends.

use crate::stats;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call: its layer-qualified name, start and end relative to the
/// recorder's epoch, the span that caused it, and the operation it served.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

/// The span recorder of one traced run.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start the next operation: spans recorded from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Time `f` as a span named `name`, nested under the span being timed.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Record children of the span recorded last (a childless one) from
    /// durations the library itself measured (e.g.
    /// `MatchTiming::ann_max_ns`), laid out back to back from its start.
    pub fn attribute(&mut self, parts: &[(&'static str, u64)]) {
        let Some(parent) = self.spans.len().checked_sub(1) else {
            return;
        };
        let (mut at, op) = (self.spans[parent].start_ns, self.spans[parent].op);
        for &(name, ns) in parts {
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at + ns,
                parent: Some(parent as u32),
                op,
            });
            at += ns;
        }
    }

    /// Record a finished call of `ns` nanoseconds that ends now, nested under
    /// the span being timed (for calls classed only after they return).
    pub fn record(&mut self, name: &'static str, ns: u64) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(ns),
            end_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
    }

    fn durations_ns<'a>(&'a self, name: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.durations_ns(name).count()
    }

    /// Median duration of the spans named `name`, in microseconds.
    pub fn median_us(&self, name: &str) -> f64 {
        stats::median(
            &self
                .durations_ns(name)
                .map(|ns| ns as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    }

    /// Total duration of the spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).sum::<u64>() as f64 / 1e9
    }

    /// Share of the spans named `name` that their direct children cover: a
    /// value below 1 is self time — work no child span accounts for.
    pub fn closure(&self, name: &str) -> f64 {
        let (mut own, mut children) = (0u64, 0u64);
        for (id, span) in self.spans.iter().enumerate() {
            if span.name == name {
                own += span.end_ns - span.start_ns;
                children += self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(id as u32))
                    .map(|c| c.end_ns - c.start_ns)
                    .sum::<u64>();
            }
        }
        if own == 0 {
            0.0
        } else {
            children as f64 / own as f64
        }
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close() {
        let mut spans = Spans::new();
        spans.next_op();
        spans.time("outer", |s| {
            s.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            s.time("inner", |_| ());
        });
        assert_eq!(spans.count("inner"), 2);
        assert_eq!(spans.spans[1].parent, Some(0));
        assert_eq!(spans.spans[0].parent, None);
        assert_eq!(spans.spans[2].op, 1);
        let closure = spans.closure("outer");
        assert!(closure > 0.5 && closure <= 1.0, "closure {closure}");
        assert!(spans.total_s("outer") >= 0.002);
    }

    #[test]
    fn library_timings_become_children_of_the_last_span() {
        let mut spans = Spans::new();
        spans.time("match", |_| ());
        spans.attribute(&[("ann", 70), ("merge", 30)]);
        assert_eq!(spans.spans[1].parent, Some(0));
        assert_eq!(spans.spans[2].start_ns, spans.spans[1].end_ns);
        assert_eq!(spans.median_us("ann"), 0.07);
    }
}
