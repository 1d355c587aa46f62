//! In-memory spans and counters for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions; nothing inside the crates under
//! test is instrumented. A disabled [`Trace`] (the untraced run) costs one
//! branch per call site and allocates nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` since the trace epoch, the span
/// that caused it, and the op it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u32,
}

/// Per-op values, by name. `f64` so byte counts and ratios share one map;
/// every count stays far below 2^53, so integers are exact.
pub type Counts = BTreeMap<&'static str, f64>;

pub struct Trace {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    /// Deterministic per-op counts: must repeat exactly from op to op.
    counts: Counts,
    /// Measured per-op values (a CPU-time ratio): reported, not compared.
    gauges: Counts,
}

impl Trace {
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counts: Counts::new(),
            gauges: Counts::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts op `op`: later spans carry its id, counters restart at zero.
    pub fn begin_op(&mut self, op: u32) {
        assert!(self.open.is_empty(), "op started inside an open span");
        self.op = op;
        self.counts.clear();
        self.gauges.clear();
    }

    /// The counts and gauges recorded since [`Trace::begin_op`].
    pub fn take_counts(&mut self) -> (Counts, Counts) {
        (
            std::mem::take(&mut self.counts),
            std::mem::take(&mut self.gauges),
        )
    }

    /// Times `f` as a span named `name`, child of the innermost open span.
    /// `f` receives the trace back so it can open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Adds `delta` to the current op's counter `name`.
    pub fn add(&mut self, name: &'static str, delta: f64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0.0) += delta;
        }
    }

    /// Sets the current op's gauge `name`.
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.gauges.insert(name, value);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Forgets every span from index `len` on (the spans of a failed op).
    pub fn truncate(&mut self, len: usize) {
        assert!(self.open.is_empty(), "truncated inside an open span");
        self.spans.truncate(len);
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its child spans cover. Children are clipped to the
    /// parent and merged first, so overlapping children (work on another
    /// thread) are not subtracted twice.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let start = s.start_ns.max(parent.start_ns);
                let end = s.end_ns.min(parent.end_ns);
                if start < end {
                    children[p as usize].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    if end > reach {
                        covered += end - start.max(reach);
                        reach = end;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Writes the spans as `{"unit":"ns","names":[..],"spans":[[name,
    /// start, end, parent, op], ..]}` with `name` an index into `names`
    /// and `parent` a span index or -1. Streamed: a run holds a few
    /// hundred thousand spans, so hand `w` a buffered writer.
    pub fn write_json(&self, mut w: impl Write) -> std::io::Result<()> {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        write!(w, "{{\"unit\":\"ns\",\"names\":[")?;
        for (i, n) in names.iter().enumerate() {
            write!(w, "{}\"{n}\"", if i > 0 { "," } else { "" })?;
        }
        write!(w, "],\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let name = names.binary_search(&s.name).expect("name was collected");
            let parent = s.parent.map_or(-1, i64::from);
            write!(
                w,
                "{}[{name},{},{},{parent},{}]",
                if i > 0 { ",\n" } else { "\n" },
                s.start_ns,
                s.end_ns,
                s.op
            )?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertp_sim::json::Json;

    fn trace_of(spans: Vec<Span>) -> Trace {
        let mut t = Trace::new(true);
        t.spans = spans;
        t
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100 ▸ a 10..60 ▸ b 20..30; root ▸ c 70..90.
        let t = trace_of(vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 30, Some(1)),
            span("c", 70, 90, Some(0)),
        ]);
        assert_eq!(t.self_ns(), vec![30, 40, 10, 20]);
    }

    #[test]
    fn self_time_merges_overlapping_children_and_clips_to_the_parent() {
        // Children 10..50 and 30..70 overlap; 90..120 runs past the parent.
        let t = trace_of(vec![
            span("root", 0, 100, None),
            span("x", 10, 50, Some(0)),
            span("y", 30, 70, Some(0)),
            span("z", 90, 120, Some(0)),
            span("inside-x", 20, 40, Some(0)),
        ]);
        // Covered: 10..70 (60) + 90..100 (10).
        assert_eq!(t.self_ns()[0], 30);
    }

    #[test]
    fn spans_nest_by_call_and_carry_the_op_id() {
        let mut t = Trace::new(true);
        t.begin_op(3);
        t.span("outer", |t| {
            t.span("inner", |t| t.add("n", 2.0));
            t.add("n", 1.0);
        });
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans().iter().all(|s| s.op == 3));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        t.gauge("g", 0.5);
        let (counts, gauges) = t.take_counts();
        assert_eq!(counts.get("n"), Some(&3.0));
        assert_eq!(gauges.get("g"), Some(&0.5));
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        assert_eq!(t.span("x", |t| t.span("y", |_| 7)), 7);
        t.add("n", 1.0);
        assert!(t.spans().is_empty());
        assert!(t.take_counts().0.is_empty());
    }

    #[test]
    fn written_trace_parses_back() {
        let mut t = Trace::new(true);
        t.begin_op(1);
        t.span("a.b", |t| t.span("c.d", |_| ()));
        let mut text = Vec::new();
        t.write_json(&mut text).unwrap();
        let doc = Json::parse(std::str::from_utf8(&text).unwrap()).unwrap();
        assert_eq!(doc.get("unit").and_then(Json::as_str), Some("ns"));
        let names = doc.get("names").and_then(Json::as_arr).unwrap();
        assert_eq!(names.len(), 2);
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].idx(3).and_then(Json::as_i64), Some(-1));
        assert_eq!(spans[1].idx(3).and_then(Json::as_u64), Some(0));
        assert_eq!(spans[1].idx(4).and_then(Json::as_u64), Some(1));
    }
}
