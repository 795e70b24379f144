//! `netdiag-obs`: the workspace's instrumentation substrate.
//!
//! Every layer of the simulator and diagnoser reports what it did —
//! SPF runs, BGP messages, probe hops, greedy iterations — through one
//! tiny, dependency-free [`Recorder`] trait. Three kinds of metrics:
//!
//! * **Counters** — monotonically increasing event counts
//!   ([`Recorder::add`]), e.g. `igp.spf_runs`.
//! * **Histograms** — per-observation value distributions
//!   ([`Recorder::observe`]), e.g. `hs.candidates` per problem build.
//! * **Spans** — wall-clock phase timings ([`RecorderHandle::span`]),
//!   e.g. `trial.diagnose`.
//!
//! Metric names are `&'static str` in a `layer.metric` scheme
//! (`igp.spf_runs`, `bgp.msgs`, `probe.hops`, `hs.greedy_iters`, …); the
//! full vocabulary lives in [`names`].
//!
//! Instrumented code holds a cheap [`RecorderHandle`] (a clonable
//! `Arc<dyn Recorder>`); hot loops batch locally and flush one `add` per
//! operation. Four recorders ship with the crate:
//!
//! * [`NoopRecorder`] — the default: every call is a no-op behind an
//!   `enabled()` fast-gate, so uninstrumented runs pay nothing.
//! * [`LiveRecorder`] — the one metrics recorder (see [`live`]): a
//!   lock-free registry that snapshots at any instant into a stable,
//!   hand-rolled JSON [`RunReport`] (no serde), with windowed rates and
//!   percentiles and Prometheus exposition. CLI `--profile` runs and the
//!   daemon's stats plane both read it.
//! * [`TraceRecorder`] — a bounded ring of structured [`Event`]s
//!   ([`Recorder::event`]) carrying per-trial context and logical
//!   sequence numbers (see [`trace`]), exported as deterministic JSONL
//!   and Chrome-trace/Perfetto JSON.
//! * [`FanoutRecorder`] — forwards to several sinks behind one handle,
//!   e.g. metrics and tracing together.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

pub mod event;
pub mod json;
pub mod live;
pub mod names;
pub mod trace;

pub use event::{Event, EventPayload, Phase, Value};
pub use live::{LiveRecorder, WindowDelta};
pub use trace::{phase_scope, trial_scope, TraceRecorder, NO_PLACEMENT, SETUP_TRIAL};

/// Sink for instrumentation events.
///
/// Implementations must be cheap and thread-safe: `add`/`observe` are
/// called from hot paths (post-batching) and from concurrent trial
/// threads.
pub trait Recorder: Send + Sync {
    /// Is this recorder collecting anything at all?
    ///
    /// Instrumented code may skip metric computation (and clock reads)
    /// entirely when this returns `false`; the no-op recorder does.
    fn enabled(&self) -> bool;

    /// Increments the monotonic counter `name` by `delta`.
    fn add(&self, name: &'static str, delta: u64);

    /// Records one observation of `value` under histogram `name`.
    fn observe(&self, name: &'static str, value: u64);

    /// Records one completed span of `nanos` wall-clock under `name`.
    fn record_span(&self, name: &'static str, nanos: u64);

    /// Sets gauge `name` to `value` (default: dropped).
    ///
    /// Gauges are *levels* — queue depth, live connections — with
    /// set/add/sub semantics and a high-water mark, unlike counters
    /// (monotone) and histograms (per-observation distributions).
    /// Defaulted so aggregate-only recorders need not care.
    fn gauge_set(&self, _name: &'static str, _value: u64) {}

    /// Raises gauge `name` by `delta` (default: dropped).
    fn gauge_add(&self, _name: &'static str, _delta: u64) {}

    /// Lowers gauge `name` by `delta`, saturating at zero
    /// (default: dropped).
    fn gauge_sub(&self, _name: &'static str, _delta: u64) {}

    /// Is this recorder collecting structured trace events?
    ///
    /// Separate from [`Recorder::enabled`] so a pure metrics run pays
    /// nothing for tracing and vice versa; instrumented code goes
    /// through [`RecorderHandle::event`], which builds payloads only
    /// when this returns `true`.
    fn trace_enabled(&self) -> bool {
        false
    }

    /// Records one structured trace [`Event`] (default: dropped).
    fn event(&self, _event: Event) {}
}

/// The default recorder: drops everything, costs nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }
    fn add(&self, _name: &'static str, _delta: u64) {}
    fn observe(&self, _name: &'static str, _value: u64) {}
    fn record_span(&self, _name: &'static str, _nanos: u64) {}
}

/// Aggregated statistics of one histogram or span series.
///
/// Alongside count/sum/min/max, every series keeps a fixed 65-slot
/// log2-bucketed histogram (slot 0 = zeros, slot `b` = values in
/// `[2^(b-1), 2^b)`), from which [`SeriesStats::percentile`] derives
/// p50/p90/p99 without storing observations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeriesStats {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values (nanoseconds for spans).
    pub sum: u64,
    /// Smallest observed value.
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
    buckets: [u64; 65],
}

/// Log2 bucket index: 0 for value 0, else `64 - leading_zeros`.
fn log2_bucket(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

impl SeriesStats {
    /// Assembles stats from already-aggregated parts: the
    /// [`LiveRecorder`] snapshot path, which accumulates in atomics, and
    /// test oracles that fold observations themselves. `buckets[b]`
    /// counts the values in log2 slot `b` (see the type docs).
    pub fn from_parts(count: u64, sum: u64, min: u64, max: u64, buckets: [u64; 65]) -> Self {
        SeriesStats {
            count,
            sum,
            min,
            max,
            buckets,
        }
    }

    /// The series of observations recorded between `older` and `self`,
    /// assuming both are cumulative snapshots of the same series
    /// (`older` taken earlier). `None` when nothing was recorded in
    /// between.
    ///
    /// Buckets are monotone counters, so their difference is the *exact*
    /// per-window histogram; window min/max are reconstructed from the
    /// outermost non-empty delta buckets (tight to a factor of two,
    /// clamped into the cumulative range so they remain plausible
    /// values).
    pub(crate) fn bucket_delta(&self, older: &SeriesStats) -> Option<SeriesStats> {
        let mut buckets = [0u64; 65];
        let mut count = 0u64;
        let (mut lo, mut hi) = (None, None);
        for (b, out) in buckets.iter_mut().enumerate() {
            let n = self.buckets[b].saturating_sub(older.buckets[b]);
            *out = n;
            count += n;
            if n > 0 {
                lo.get_or_insert(b);
                hi = Some(b);
            }
        }
        let (lo, hi) = (lo?, hi?);
        let bucket_floor = |b: usize| if b == 0 { 0 } else { 1u64 << (b - 1) };
        let bucket_ceil = |b: usize| match b {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << b) - 1,
        };
        Some(SeriesStats {
            count,
            sum: self.sum.saturating_sub(older.sum),
            min: bucket_floor(lo).clamp(self.min, self.max),
            max: bucket_ceil(hi).clamp(self.min, self.max),
            buckets,
        })
    }

    /// Approximate `pct`-th percentile (`0 < pct <= 100`).
    ///
    /// Returns the upper bound of the log2 bucket holding the
    /// rank-`ceil(count * pct / 100)` observation, clamped into
    /// `[min, max]` — exact for repeated values, within a factor of two
    /// otherwise, and always a value the series could have contained.
    pub fn percentile(&self, pct: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = self.count.saturating_mul(pct).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = match b {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << b) - 1,
                };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// Point-in-time state of one gauge: the level now and the highest
/// level ever seen.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// The level at snapshot time.
    pub current: u64,
    /// The highest level the gauge ever reached.
    pub high_water: u64,
}

/// A cheap, clonable handle to a shared recorder.
///
/// This is what instrumented types store: cloning shares the underlying
/// recorder, `Default` is the no-op recorder, and `Debug` never dumps
/// recorder contents (so `#[derive(Debug)]` on simulator types stays
/// readable).
#[derive(Clone)]
pub struct RecorderHandle(Arc<dyn Recorder>);

impl RecorderHandle {
    /// Wraps a recorder.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        RecorderHandle(recorder)
    }

    /// The no-op handle (same as `Default`).
    pub fn noop() -> Self {
        RecorderHandle(Arc::new(NoopRecorder))
    }

    /// Creates a default-capacity trace recorder and a handle feeding it.
    pub fn tracing() -> (Self, Arc<TraceRecorder>) {
        let recorder = Arc::new(TraceRecorder::new());
        (RecorderHandle(recorder.clone()), recorder)
    }

    /// Creates a [`LiveRecorder`] (lock-free record path, snapshottable
    /// at any instant) and a handle feeding it.
    pub fn live() -> (Self, Arc<LiveRecorder>) {
        let recorder = Arc::new(LiveRecorder::new());
        (RecorderHandle(recorder.clone()), recorder)
    }

    /// Fans one handle out to several sinks (e.g. metrics + trace).
    pub fn fanout(sinks: Vec<Arc<dyn Recorder>>) -> Self {
        RecorderHandle(Arc::new(FanoutRecorder::new(sinks)))
    }

    /// The underlying recorder as a shareable sink — for composing this
    /// handle into a [`fanout`](Self::fanout) alongside extra sinks (e.g.
    /// a per-request trace recorder on top of the daemon's metrics).
    pub fn sink(&self) -> Arc<dyn Recorder> {
        Arc::clone(&self.0)
    }

    /// Is the underlying recorder collecting?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.enabled()
    }

    /// Increments counter `name` by `delta` (skipped when disabled).
    #[inline]
    pub fn add(&self, name: &'static str, delta: u64) {
        if self.0.enabled() {
            self.0.add(name, delta);
        }
    }

    /// Records one histogram observation (skipped when disabled).
    #[inline]
    pub fn observe(&self, name: &'static str, value: u64) {
        if self.0.enabled() {
            self.0.observe(name, value);
        }
    }

    /// Sets gauge `name` to `value` (skipped when disabled).
    #[inline]
    pub fn gauge_set(&self, name: &'static str, value: u64) {
        if self.0.enabled() {
            self.0.gauge_set(name, value);
        }
    }

    /// Raises gauge `name` by `delta` (skipped when disabled).
    #[inline]
    pub fn gauge_add(&self, name: &'static str, delta: u64) {
        if self.0.enabled() {
            self.0.gauge_add(name, delta);
        }
    }

    /// Lowers gauge `name` by `delta`, saturating at zero (skipped when
    /// disabled).
    #[inline]
    pub fn gauge_sub(&self, name: &'static str, delta: u64) {
        if self.0.enabled() {
            self.0.gauge_sub(name, delta);
        }
    }

    /// Records one completed span of `nanos` under `name` (skipped when
    /// disabled) — for durations measured out-of-scope, e.g. a queue
    /// wait timed across threads where no [`span`](Self::span) guard can
    /// live.
    #[inline]
    pub fn record_span(&self, name: &'static str, nanos: u64) {
        if self.0.enabled() {
            self.0.record_span(name, nanos);
        }
    }

    /// Starts a scoped wall-clock span; the guard records on drop.
    ///
    /// When the recorder is disabled the guard never reads the clock.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            handle: self,
            name,
            start: self.0.enabled().then(Instant::now),
        }
    }

    /// Is the underlying recorder collecting trace events?
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.0.trace_enabled()
    }

    /// Emits a structured trace event under the current trial context.
    ///
    /// The payload closure runs only when a tracing sink is attached, so
    /// untraced hot paths pay one virtual `trace_enabled()` call and
    /// never build the payload. The event is stamped with the
    /// thread-local `(placement, trial, phase)` context and the next
    /// logical sequence number (see [`trace`]).
    #[inline]
    pub fn event<F>(&self, name: &'static str, payload: F)
    where
        F: FnOnce() -> EventPayload,
    {
        if self.0.trace_enabled() {
            let (placement, trial, phase, seq) = trace::stamp();
            self.0.event(Event {
                name,
                placement,
                trial,
                phase,
                seq,
                payload: payload(),
            });
        }
    }
}

/// Broadcasts to several recorders so one run can aggregate metrics and
/// collect a trace at the same time.
///
/// Each call is routed only to the sinks that want it: metrics to
/// `enabled()` sinks, events to `trace_enabled()` sinks (cloning the
/// event for all but the last taker).
pub struct FanoutRecorder {
    sinks: Vec<Arc<dyn Recorder>>,
}

impl FanoutRecorder {
    /// Wraps a set of sinks.
    pub fn new(sinks: Vec<Arc<dyn Recorder>>) -> Self {
        FanoutRecorder { sinks }
    }
}

impl fmt::Debug for FanoutRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FanoutRecorder")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl Recorder for FanoutRecorder {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn add(&self, name: &'static str, delta: u64) {
        for sink in &self.sinks {
            if sink.enabled() {
                sink.add(name, delta);
            }
        }
    }

    fn observe(&self, name: &'static str, value: u64) {
        for sink in &self.sinks {
            if sink.enabled() {
                sink.observe(name, value);
            }
        }
    }

    fn record_span(&self, name: &'static str, nanos: u64) {
        for sink in &self.sinks {
            if sink.enabled() {
                sink.record_span(name, nanos);
            }
        }
    }

    fn gauge_set(&self, name: &'static str, value: u64) {
        for sink in &self.sinks {
            if sink.enabled() {
                sink.gauge_set(name, value);
            }
        }
    }

    fn gauge_add(&self, name: &'static str, delta: u64) {
        for sink in &self.sinks {
            if sink.enabled() {
                sink.gauge_add(name, delta);
            }
        }
    }

    fn gauge_sub(&self, name: &'static str, delta: u64) {
        for sink in &self.sinks {
            if sink.enabled() {
                sink.gauge_sub(name, delta);
            }
        }
    }

    fn trace_enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.trace_enabled())
    }

    fn event(&self, event: Event) {
        let mut pending = Some(event);
        let last = self.sinks.iter().rposition(|s| s.trace_enabled());
        for (i, sink) in self.sinks.iter().enumerate() {
            if !sink.trace_enabled() {
                continue;
            }
            if Some(i) == last {
                if let Some(event) = pending.take() {
                    sink.event(event);
                }
            } else if let Some(event) = pending.as_ref() {
                sink.event(event.clone());
            }
        }
    }
}

impl Default for RecorderHandle {
    fn default() -> Self {
        RecorderHandle::noop()
    }
}

impl fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecorderHandle")
            .field("enabled", &self.0.enabled())
            .finish()
    }
}

/// Live span: times the enclosing scope, reporting on drop.
#[must_use = "a span measures nothing unless it is held to end of scope"]
#[derive(Debug)]
pub struct SpanGuard<'a> {
    handle: &'a RecorderHandle,
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.handle.0.record_span(self.name, nanos);
        }
    }
}

/// A point-in-time snapshot of everything a recorder collected,
/// serializable to stable JSON.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram series by name.
    pub histograms: BTreeMap<String, SeriesStats>,
    /// Span series by name (values in nanoseconds).
    pub spans: BTreeMap<String, SeriesStats>,
    /// Gauge levels by name (current + high-water).
    pub gauges: BTreeMap<String, GaugeSnapshot>,
}

/// Version tag written into every report, bumped on shape changes.
///
/// Version 2 added p50/p90/p99 percentiles to every series; version 3
/// added the `gauges` section (current + high-water levels).
pub const REPORT_VERSION: u32 = 3;

impl RunReport {
    /// The value of counter `name`, zero when never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The stats of span `name`, if any completed.
    pub fn span(&self, name: &str) -> Option<&SeriesStats> {
        self.spans.get(name)
    }

    /// The stats of histogram `name`, if anything was observed.
    pub fn histogram(&self, name: &str) -> Option<&SeriesStats> {
        self.histograms.get(name)
    }

    /// The state of gauge `name`, if it was ever touched.
    pub fn gauge(&self, name: &str) -> Option<GaugeSnapshot> {
        self.gauges.get(name).copied()
    }

    /// Serializes to pretty-printed JSON with a stable key order
    /// (lexicographic within each section).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"version\": {REPORT_VERSION},\n"));

        out.push_str("  \"counters\": {");
        let mut first = true;
        for (name, value) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    ");
            push_json_string(&mut out, name);
            out.push_str(&format!(": {value}"));
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });

        out.push_str("  \"gauges\": {");
        let mut first = true;
        for (name, g) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    ");
            push_json_string(&mut out, name);
            out.push_str(&format!(
                ": {{\"current\": {}, \"high_water\": {}}}",
                g.current, g.high_water
            ));
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });

        for (section, series, unit_suffix) in [
            ("histograms", &self.histograms, ""),
            ("spans", &self.spans, "_ns"),
        ] {
            out.push_str(&format!("  \"{section}\": {{"));
            let mut first = true;
            for (name, s) in series {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str("\n    ");
                push_json_string(&mut out, name);
                out.push_str(&format!(
                    ": {{\"count\": {}, \"sum{u}\": {}, \"min{u}\": {}, \"max{u}\": {}, \
                     \"p50{u}\": {}, \"p90{u}\": {}, \"p99{u}\": {}}}",
                    s.count,
                    s.sum,
                    s.min,
                    s.max,
                    s.percentile(50),
                    s.percentile(90),
                    s.percentile(99),
                    u = unit_suffix,
                ));
            }
            let closing = if section == "spans" { "" } else { "," };
            out.push_str(if first { "}" } else { "\n  }" });
            out.push_str(closing);
            out.push('\n');
        }

        out.push_str("}\n");
        out
    }

    /// Serializes to Prometheus-style text exposition.
    ///
    /// Names are prefixed `netdiag_` with dots flattened to underscores;
    /// counters gain `_total`, gauges emit both the level and a
    /// `_high_water` companion, and series render as summaries
    /// (quantile-labelled samples plus `_sum`/`_count`, spans suffixed
    /// `_ns` since values are nanoseconds).
    pub fn to_prometheus(&self) -> String {
        fn flat(name: &str) -> String {
            name.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect()
        }
        let mut out = String::with_capacity(1024);
        for (name, value) in &self.counters {
            let n = flat(name);
            out.push_str(&format!(
                "# TYPE netdiag_{n}_total counter\nnetdiag_{n}_total {value}\n"
            ));
        }
        for (name, g) in &self.gauges {
            let n = flat(name);
            out.push_str(&format!(
                "# TYPE netdiag_{n} gauge\nnetdiag_{n} {}\n\
                 # TYPE netdiag_{n}_high_water gauge\nnetdiag_{n}_high_water {}\n",
                g.current, g.high_water
            ));
        }
        for (series, suffix) in [(&self.histograms, ""), (&self.spans, "_ns")] {
            for (name, s) in series {
                let n = format!("{}{suffix}", flat(name));
                out.push_str(&format!("# TYPE netdiag_{n} summary\n"));
                for (q, pct) in [("0.5", 50), ("0.9", 90), ("0.99", 99)] {
                    out.push_str(&format!(
                        "netdiag_{n}{{quantile=\"{q}\"}} {}\n",
                        s.percentile(pct)
                    ));
                }
                out.push_str(&format!(
                    "netdiag_{n}_sum {}\nnetdiag_{n}_count {}\n",
                    s.sum, s.count
                ));
            }
        }
        out
    }
}

/// Appends `s` as a JSON string literal (quotes + escapes).
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_silent() {
        let h = RecorderHandle::default();
        assert!(!h.enabled());
        h.add(names::IGP_SPF_RUNS, 5);
        h.observe("x", 1);
        drop(h.span("y"));
        // Nothing to assert against — the point is that nothing panics
        // and `enabled()` lets callers skip work.
    }

    #[test]
    fn percentiles_are_exact_for_repeated_values_and_bounded_otherwise() {
        let (h, rec) = RecorderHandle::live();
        for _ in 0..100 {
            h.observe("flat", 4);
        }
        let s = *rec.snapshot().histogram("flat").unwrap();
        assert_eq!((s.percentile(50), s.percentile(99)), (4, 4));

        let (h, rec) = RecorderHandle::live();
        for v in 1..=100u64 {
            h.observe("ramp", v);
        }
        let s = *rec.snapshot().histogram("ramp").unwrap();
        // Log2 buckets: each percentile lands within a factor of two of
        // the exact answer and inside [min, max].
        for (pct, exact) in [(50u64, 50u64), (90, 90), (99, 99)] {
            let p = s.percentile(pct);
            assert!(p >= s.min && p <= s.max);
            assert!(p >= exact / 2 && p <= exact * 2, "p{pct}={p} vs {exact}");
        }
        assert!(s.percentile(50) <= s.percentile(90));
        assert!(s.percentile(90) <= s.percentile(99));
    }

    #[test]
    fn percentile_of_empty_series_is_zero() {
        let (h, rec) = RecorderHandle::live();
        h.observe("one", 0);
        let s = *rec.snapshot().histogram("one").unwrap();
        assert_eq!(s.percentile(50), 0);
    }

    #[test]
    fn spans_record_positive_durations() {
        let (h, rec) = RecorderHandle::live();
        {
            let _g = h.span("phase.work");
            std::hint::black_box((0..1000).sum::<u64>());
        }
        {
            let _g = h.span("phase.work");
        }
        let s = *rec.snapshot().span("phase.work").unwrap();
        assert_eq!(s.count, 2);
        assert!(s.sum >= s.min + s.min);
        assert!(s.max >= s.min);
    }

    #[test]
    fn handle_clones_share_the_recorder() {
        let (h, rec) = RecorderHandle::live();
        let h2 = h.clone();
        h.add("c", 1);
        h2.add("c", 1);
        assert_eq!(rec.snapshot().counter("c"), 2);
    }

    #[test]
    fn report_json_shape_is_stable() {
        let (h, rec) = RecorderHandle::live();
        h.add("b.second", 2);
        h.add("a.first", 1);
        h.observe("sizes", 4);
        h.gauge_add("depth", 3);
        h.gauge_sub("depth", 1);
        {
            let _g = h.span("phase");
        }
        let json = rec.snapshot().to_json();
        assert!(json.starts_with("{\n  \"version\": 3,\n"));
        // Counters are in lexicographic order regardless of insertion.
        let a = json.find("\"a.first\": 1").unwrap();
        let b = json.find("\"b.second\": 2").unwrap();
        assert!(a < b);
        assert!(json.contains("\"gauges\""));
        assert!(json.contains("\"depth\": {\"current\": 2, \"high_water\": 3}"));
        assert!(json.contains("\"histograms\""));
        assert!(json.contains(
            "\"sizes\": {\"count\": 1, \"sum\": 4, \"min\": 4, \"max\": 4, \
             \"p50\": 4, \"p90\": 4, \"p99\": 4}"
        ));
        assert!(json.contains("\"spans\""));
        assert!(json.contains("\"count\": 1, \"sum_ns\": "));
        assert!(json.contains("\"p99_ns\": "));
        assert!(json.ends_with("}\n"));
        // Balanced braces (cheap well-formedness check without a parser).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn empty_report_json_is_well_formed() {
        let (_h, rec) = RecorderHandle::live();
        let json = rec.snapshot().to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"gauges\": {}"));
        assert!(json.contains("\"histograms\": {}"));
        assert!(json.contains("\"spans\": {}"));
    }

    #[test]
    fn prometheus_exposition_covers_all_kinds() {
        let (h, rec) = RecorderHandle::live();
        h.add("serve.requests", 7);
        h.gauge_add("serve.queue_depth", 2);
        h.observe("serve.latency_us", 100);
        {
            let _g = h.span("serve.phase.diagnose");
        }
        let prom = rec.snapshot().to_prometheus();
        assert!(prom.contains("# TYPE netdiag_serve_requests_total counter\n"));
        assert!(prom.contains("netdiag_serve_requests_total 7\n"));
        assert!(prom.contains("netdiag_serve_queue_depth 2\n"));
        assert!(prom.contains("netdiag_serve_queue_depth_high_water 2\n"));
        assert!(prom.contains("netdiag_serve_latency_us{quantile=\"0.99\"} 100\n"));
        assert!(prom.contains("netdiag_serve_latency_us_count 1\n"));
        assert!(prom.contains("netdiag_serve_phase_diagnose_ns_count 1\n"));
    }

    #[test]
    fn bucket_delta_isolates_the_window() {
        let (h, rec) = RecorderHandle::live();
        h.observe("w", 1);
        let older = *rec.snapshot().histogram("w").unwrap();
        h.observe("w", 1024);
        let cumulative = *rec.snapshot().histogram("w").unwrap();
        let delta = cumulative.bucket_delta(&older).unwrap();
        assert_eq!((delta.count, delta.sum), (1, 1024));
        // Window bounds come from the delta buckets, not the cumulative
        // min of 1.
        assert!(delta.min >= 512 && delta.max >= 1024);
        assert!(older.bucket_delta(&older).is_none());
    }

    #[test]
    fn json_strings_escape_specials() {
        let mut s = String::new();
        push_json_string(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
        // Control characters round-trip through the parser.
        let mut s = String::new();
        push_json_string(&mut s, "a\u{1}b\tc\nd\"e\\f");
        let v = json::parse(&s).expect("escaped string parses");
        assert_eq!(v.as_str(), Some("a\u{1}b\tc\nd\"e\\f"));
    }

    #[test]
    fn event_payload_closure_never_runs_without_a_tracing_sink() {
        // Noop and live recorders have trace_enabled() == false, so the
        // payload builder must not even run.
        for h in [RecorderHandle::noop(), RecorderHandle::live().0] {
            assert!(!h.trace_enabled());
            h.event(names::EV_HS_PICK, || unreachable!("payload built"));
        }
    }

    #[test]
    fn fanout_routes_metrics_and_events_to_interested_sinks() {
        let metrics = Arc::new(LiveRecorder::new());
        let trace_a = Arc::new(TraceRecorder::new());
        let trace_b = Arc::new(TraceRecorder::new());
        let h = RecorderHandle::fanout(vec![metrics.clone(), trace_a.clone(), trace_b.clone()]);
        assert!(h.enabled() && h.trace_enabled());
        h.add("c", 2);
        h.event(names::EV_HS_PICK, || {
            EventPayload::new().field("edge", 1u64)
        });
        assert_eq!(metrics.snapshot().counter("c"), 2);
        assert_eq!(trace_a.len(), 1);
        // Both tracing sinks got the (cloned) event.
        assert_eq!(trace_a.events(), trace_b.events());
    }

    #[test]
    fn fanout_of_noops_stays_fully_disabled() {
        let h = RecorderHandle::fanout(vec![Arc::new(NoopRecorder), Arc::new(NoopRecorder)]);
        assert!(!h.enabled());
        assert!(!h.trace_enabled());
    }

    #[test]
    fn concurrent_adds_do_not_lose_updates() {
        let (h, rec) = RecorderHandle::live();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = h.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        h.add("t", 1);
                    }
                });
            }
        });
        assert_eq!(rec.snapshot().counter("t"), 4000);
    }
}
