//! In-memory spans around the benchmark's calls into each crate.
//!
//! A span is opened and closed by the benchmark, never inside the
//! stack: it records a name (the per-layer metric it feeds, e.g.
//! `lbp-cc.lex_s`), the program or job id it belongs to, its start and
//! end in nanoseconds since the tracer was made, and the span that was
//! open when it began. With tracing off, `begin`/`end` do nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer name (a per-layer metric name, or `bench.*` glue).
    pub name: &'static str,
    /// Program or job id within the iteration.
    pub id: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. Spans stay in memory until [`Tracer::to_jsonl`].
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records only while `on` (see [`Tracer::set_on`]).
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off between iterations.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "spans still open");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let span = Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Closes the innermost span, which must be `open`.
    pub fn end(&mut self, open: Open) {
        if let Some(i) = open.0 {
            assert_eq!(self.open.pop(), Some(i), "spans closed out of order");
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span with no children.
    pub fn leaf<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, id);
        let out = f();
        self.end(open);
        out
    }

    /// Every closed span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of each span in ns: its duration minus the part its
    /// direct children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self time per span name, in seconds.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e9;
        }
        out
    }

    /// The spans as JSON lines: `name`, `id`, `parent`, `start_ns`,
    /// `end_ns`, `self_ns`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns, self_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true);
        // Build a fixed tree by hand: root [0,100], child [10,40] with
        // grandchild [20,30], child [50,60].
        for (name, parent, s, e) in [
            ("root", None, 0, 100),
            ("a", Some(0), 10, 40),
            ("b", Some(1), 20, 30),
            ("a", Some(0), 50, 60),
        ] {
            t.spans.push(Span {
                name,
                id: 0,
                parent,
                start_ns: s,
                end_ns: e,
            });
        }
        let ns = |name| (t.self_seconds()[name] * 1e9).round();
        assert_eq!((ns("root"), ns("a"), ns("b")), (60.0, 30.0, 10.0));
        assert_eq!(t.to_jsonl().lines().count(), 4);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.leaf("x", 1, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        t.set_on(true);
        let o = t.begin("y", 2);
        t.leaf("z", 2, || ());
        t.end(o);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}
