//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer of
//! the program (`graph.synthesize`, `core.simulate.HyMM`, `serve.parse`,
//! ...). Spans are kept in memory, written out when the run ends, and
//! reduced to per-layer **self time**: a span's duration minus the part of
//! its interval that its child spans cover. A disabled recorder keeps no
//! spans and reads no clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `graph.synthesize`.
    pub name: String,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Handle returned by [`Tracer::begin`].
#[must_use = "a span must be ended"]
pub struct Open(Option<usize>);

/// Span recorder; single-threaded, like the code paths it brackets.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: impl Into<String>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::begin`]; spans close innermost
    /// first.
    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            assert_eq!(self.stack.pop(), Some(id), "spans must close in order");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        assert!(self.stack.is_empty(), "spans still open");
        &self.spans
    }

    /// Spans as JSON: `[{"name", "start_ns", "end_ns", "parent"}, ...]`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "  {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{sep}",
                hymm_bench::json::esc(&s.name),
                s.start_ns,
                s.end_ns,
            );
        }
        out.push_str("]\n");
        out
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Self time of every span, in seconds: its duration minus the part of its
/// interval covered by its direct children.
pub fn self_seconds(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let dur = s.end_ns - s.start_ns;
            (dur - covered_ns(s.start_ns, s.end_ns, kids)) as f64 / 1e9
        })
        .collect()
}

/// Self time summed per span name, in seconds.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut totals = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_seconds(spans)) {
        *totals.entry(s.name.clone()).or_insert(0.0) += t;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_child_interval() {
        // parent [0, 100); children [10, 30) and [20, 50) overlap, so they
        // cover [10, 50) = 40 ns; a grandchild does not count for the root.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("leaf", 25, 28, Some(2)),
        ];
        let t = self_seconds(&spans);
        assert_eq!(t[0], 60e-9);
        assert_eq!(t[1], 20e-9);
        assert_eq!(t[2], 27e-9);
        assert_eq!(t[3], 3e-9);
    }

    #[test]
    fn child_outside_parent_is_clipped() {
        let spans = vec![span("root", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_seconds(&spans)[0], 5e-9);
    }

    #[test]
    fn self_times_sum_per_name() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("graph.synthesize", 0, 30, Some(0)),
            span("graph.synthesize", 40, 60, Some(0)),
        ];
        let by_name = self_seconds_by_name(&spans);
        assert_eq!(by_name["graph.synthesize"], 50e-9);
        assert_eq!(by_name["pass"], 50e-9);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut on = Tracer::new(true);
        let outer = on.begin("outer");
        let v = on.time("inner", || 7);
        on.end(outer);
        assert_eq!(v, 7);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert!(on.spans()[0].end_ns >= on.spans()[1].end_ns);
        assert!(on.to_json().contains("\"name\": \"inner\""));

        let mut off = Tracer::new(false);
        let outer = off.begin("outer");
        off.time("inner", || ());
        off.end(outer);
        assert!(off.spans().is_empty());
    }
}
