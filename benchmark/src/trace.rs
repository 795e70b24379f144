//! Spans for the traced layer walk, recorded from the benchmark's own
//! code around each call into a layer.
//!
//! A span is `{name, start_ns, end_ns, parent, op}`. Its name starts
//! with the layer it times (`core.greedy` belongs to `core`); spans named
//! `op.*` are operations, the top-level units a walk is made of (one
//! trial, one request, one convergence), and every layer span sits inside
//! exactly one. Spans stay in memory until the walk ends. A span's self
//! time is its duration minus the part its child spans cover.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.what`, or `op.kind` for an operation.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Id of the operation the span belongs to.
    pub op: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single-threaded span recorder.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    ops: Cell<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            ops: Cell::new(0),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` as a new operation `op.<kind>`.
    pub fn op<T>(&self, kind: &'static str, f: impl FnOnce() -> T) -> T {
        debug_assert!(self.stack.borrow().is_empty(), "operations do not nest");
        self.ops.set(self.ops.get() + 1);
        self.span(kind, f)
    }

    /// Runs `f` inside a span named `name`, nested in the current one.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.borrow().last().copied(),
                op: self.ops.get(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[idx].start_ns = start;
        spans[idx].end_ns = end;
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}\n",
                s.name, s.start_ns, s.end_ns, parent, s.op
            ));
        }
        out
    }

    /// Per-name totals and self times.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.spans.borrow())
    }
}

/// Count, total duration and self time of every span name.
#[derive(Debug, Default)]
pub struct Summary {
    by_name: BTreeMap<&'static str, (u64, u64, u64)>,
}

impl Summary {
    /// Aggregates a span list.
    pub fn of(spans: &[Span]) -> Summary {
        let mut covered = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, cov) in spans.iter().zip(covered) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(cov);
        }
        Summary { by_name }
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.0)
    }

    /// Mean duration of the spans named `name`, in nanoseconds.
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(f64::NAN, |e| e.1 as f64 / e.0 as f64)
    }

    /// Total duration of the spans named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.1)
    }

    /// Self time summed per layer (operations excluded), in nanoseconds.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (name, e) in &self.by_name {
            let layer = name.split('.').next().unwrap_or(name);
            if layer != "op" {
                *out.entry(layer).or_insert(0) += e.2;
            }
        }
        out
    }

    /// Total wall time of every operation, in nanoseconds.
    pub fn op_wall_ns(&self) -> u64 {
        self.by_name
            .iter()
            .filter(|(name, _)| name.starts_with("op."))
            .map(|(_, e)| e.1)
            .sum()
    }

    /// Share of operation wall time that layer spans account for: the
    /// rest is the benchmark's own glue between calls.
    pub fn coverage(&self) -> f64 {
        self.layer_self_ns().values().sum::<u64>() as f64 / self.op_wall_ns().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t0 = Instant::now();
        while t0.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_children_and_coverage_counts_glue() {
        let tr = Tracer::default();
        tr.op("op.request", || {
            tr.span("core.build", || {
                spin(4);
                tr.span("core.greedy", || spin(4));
            });
            spin(2); // glue: inside the op, outside every layer span
        });
        let spans = tr.spans.borrow().clone();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.op == 1));
        let sum = tr.summary();
        let layer = sum.layer_self_ns();
        let core = layer["core"] as f64;
        assert!((core - sum.total_ns("core.build") as f64).abs() < 1e5);
        let cov = sum.coverage();
        assert!(cov > 0.6 && cov < 0.95, "coverage {cov}");
        assert_eq!(tr.to_jsonl().lines().count(), 3);
        assert!(tr.to_jsonl().starts_with("{\"name\":\"op.request\""));
    }
}
