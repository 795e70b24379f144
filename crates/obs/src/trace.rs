//! Per-trial context propagation, the logical clock, and the bounded
//! [`TraceRecorder`] ring with its JSONL and Chrome-trace exporters.
//!
//! # Determinism contract
//!
//! Deterministic crates never read a wall clock for tracing: every event
//! is stamped with a *logical* sequence number that resets at the start
//! of each trial scope, and with the `(placement, trial, phase)` context
//! installed by the experiment runner. Because one trial runs entirely on
//! one worker thread, the context lives in thread-local state guarded by
//! `!Send` RAII scopes — parallel and sequential execution therefore
//! produce the same per-trial streams, and exporters sort by
//! `(placement, trial, seq)` so the *bytes* are identical too (as long as
//! the ring never dropped; see [`TraceRecorder::dropped`]). Wall-clock
//! timestamps are out-of-band: an opt-in exporter-layer extra
//! ([`TraceRecorder::with_wall_clock`]) that deterministic code never
//! sees.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::Mutex;
use std::time::Instant;

use crate::event::{Event, Phase};
use crate::{push_json_string, Recorder};

/// Sentinel placement id for events emitted outside any trial scope.
pub const NO_PLACEMENT: u32 = u32::MAX;

/// Sentinel trial id for placement-setup work (before any trial runs).
pub const SETUP_TRIAL: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct TlsState {
    placement: u32,
    trial: u32,
    phase: Phase,
    seq: u64,
}

const UNSCOPED: TlsState = TlsState {
    placement: NO_PLACEMENT,
    trial: SETUP_TRIAL,
    phase: Phase::Setup,
    seq: 0,
};

thread_local! {
    static CTX: Cell<TlsState> = const { Cell::new(UNSCOPED) };
}

/// RAII guard installing a `(placement, trial)` trial context.
///
/// Entering a scope resets the logical clock to zero and the phase to
/// [`Phase::Setup`]; dropping restores the previous context (scopes
/// nest). The guard is `!Send`: a trial's events must all come from the
/// thread that runs it, which is what makes the logical clock
/// deterministic.
#[must_use = "the trial context is uninstalled when the scope drops"]
#[derive(Debug)]
pub struct TrialScope {
    prev: Option<(u32, u32, Phase, u64)>,
    _single_thread: PhantomData<*const ()>,
}

/// Installs a `(placement, trial)` context on the current thread.
///
/// Use [`SETUP_TRIAL`] as `trial` for placement-preparation work.
pub fn trial_scope(placement: u32, trial: u32) -> TrialScope {
    let prev = CTX.with(|c| {
        c.replace(TlsState {
            placement,
            trial,
            phase: Phase::Setup,
            seq: 0,
        })
    });
    TrialScope {
        prev: Some((prev.placement, prev.trial, prev.phase, prev.seq)),
        _single_thread: PhantomData,
    }
}

impl Drop for TrialScope {
    fn drop(&mut self) {
        if let Some((placement, trial, phase, seq)) = self.prev.take() {
            CTX.with(|c| {
                c.set(TlsState {
                    placement,
                    trial,
                    phase,
                    seq,
                })
            });
        }
    }
}

/// RAII guard switching the current trial phase (sequence keeps running).
#[must_use = "the phase is restored when the scope drops"]
#[derive(Debug)]
pub struct PhaseScope {
    prev: Phase,
    _single_thread: PhantomData<*const ()>,
}

/// Switches the phase of the current trial context on this thread.
pub fn phase_scope(phase: Phase) -> PhaseScope {
    let prev = CTX.with(|c| {
        let mut s = c.get();
        let prev = s.phase;
        s.phase = phase;
        c.set(s);
        prev
    });
    PhaseScope {
        prev,
        _single_thread: PhantomData,
    }
}

impl Drop for PhaseScope {
    fn drop(&mut self) {
        CTX.with(|c| {
            let mut s = c.get();
            s.phase = self.prev;
            c.set(s);
        });
    }
}

/// Stamps one event: current context plus the next logical tick.
pub(crate) fn stamp() -> (u32, u32, Phase, u64) {
    CTX.with(|c| {
        let mut s = c.get();
        let seq = s.seq;
        s.seq += 1;
        c.set(s);
        (s.placement, s.trial, s.phase, seq)
    })
}

struct Ring {
    events: VecDeque<(Event, Option<u64>)>,
    dropped: u64,
}

/// A bounded-ring trace sink: keeps the most recent `capacity` events.
///
/// Collects no metrics ([`Recorder::enabled`] stays `false`) so a pure
/// tracing run skips all counter batching; compose with a
/// [`crate::LiveRecorder`] through [`crate::FanoutRecorder`] to get
/// both. When the ring wraps, the oldest events are dropped and counted —
/// exports from a run with `dropped() > 0` are incomplete and no longer
/// byte-comparable across executions.
pub struct TraceRecorder {
    inner: Mutex<Ring>,
    capacity: usize,
    epoch: Option<Instant>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// Default ring capacity (events), ample for full figure runs.
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// A recorder with [`Self::DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A recorder keeping at most `capacity` events (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceRecorder {
            inner: Mutex::new(Ring {
                events: VecDeque::new(),
                dropped: 0,
            }),
            capacity: capacity.max(1),
            epoch: None,
        }
    }

    /// Opts in to out-of-band wall-clock stamps (`wall_us` in JSONL).
    ///
    /// Exporter-layer only: deterministic crates never see these values,
    /// but two runs' JSONL exports will differ once they are captured.
    pub fn with_wall_clock(mut self) -> Self {
        self.epoch = Some(Instant::now());
        self
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace ring poisoned").events.len()
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring wrapped (0 = complete trace).
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("trace ring poisoned").dropped
    }

    /// Empties the ring and resets the dropped counter.
    ///
    /// For always-on flight-recorder use: a worker reuses one ring across
    /// requests, clearing between them so each request's trace stands
    /// alone (and a dump after an SLO breach contains only that request).
    pub fn clear(&self) {
        let mut ring = self.inner.lock().expect("trace ring poisoned");
        ring.events.clear();
        ring.dropped = 0;
    }

    /// Snapshots the buffered events in deterministic export order.
    pub fn events(&self) -> Vec<Event> {
        self.sorted().into_iter().map(|(ev, _)| ev).collect()
    }

    fn sorted(&self) -> Vec<(Event, Option<u64>)> {
        let ring = self.inner.lock().expect("trace ring poisoned");
        let mut events: Vec<(Event, Option<u64>)> = ring.events.iter().cloned().collect();
        drop(ring);
        events.sort_by_key(|(ev, _)| ev.sort_key());
        events
    }

    /// Exports one JSON object per line, sorted by
    /// `(placement, trial, seq)` with setup sentinels first.
    ///
    /// Byte-identical across runs and across sequential/parallel
    /// execution whenever [`Self::dropped`] is zero and wall-clock
    /// capture is off.
    pub fn to_jsonl(&self) -> String {
        let events = self.sorted();
        let mut out = String::with_capacity(events.len() * 96);
        for (ev, wall_us) in &events {
            ev.render_jsonl(&mut out, *wall_us);
            out.push('\n');
        }
        out
    }

    /// Exports Chrome-trace/Perfetto JSON (`chrome://tracing` loads it).
    ///
    /// Mapping: process = placement, thread = trial (`tid` 0 is placement
    /// setup), timestamp = logical sequence number in microseconds, every
    /// event an instant (`"ph":"i"`) with the payload under `args`.
    pub fn to_chrome_trace(&self) -> String {
        let events = self.sorted();
        let mut out = String::with_capacity(events.len() * 128 + 256);
        out.push_str("{\"traceEvents\":[");
        let mut lanes: BTreeSet<(u32, u32)> = BTreeSet::new();
        let mut first = true;
        for (ev, _) in &events {
            let pid = ev.placement.wrapping_add(1);
            let tid = ev.trial.wrapping_add(1);
            lanes.insert((pid, tid));
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n{\"name\":");
            push_json_string(&mut out, ev.name);
            out.push_str(",\"cat\":");
            let cat = ev.name.split('.').next().unwrap_or("event");
            push_json_string(&mut out, cat);
            out.push_str(&format!(
                ",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{},\"tid\":{},\"args\":",
                ev.seq, pid, tid
            ));
            let mut args = String::new();
            ev.payload.render(&mut args);
            out.push_str(&args);
            out.push_str(&format!(",\"cname\":\"{}\"}}", chrome_color(ev.phase)));
        }
        for &(pid, tid) in &lanes {
            if !first {
                out.push(',');
            }
            first = false;
            let pname = if pid == 0 {
                "unscoped".to_owned()
            } else {
                format!("placement {}", pid - 1)
            };
            out.push_str(&format!(
                "\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{pname}\"}}}}"
            ));
            let tname = if tid == 0 {
                "setup".to_owned()
            } else {
                format!("trial {}", tid - 1)
            };
            out.push_str(&format!(
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{tname}\"}}}}"
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Stable Chrome-trace colour per phase (legacy `cname` palette).
fn chrome_color(phase: Phase) -> &'static str {
    match phase {
        Phase::Setup => "grey",
        Phase::Inject => "terrible",
        Phase::Measure => "thread_state_running",
        Phase::Diagnose => "good",
    }
}

impl Recorder for TraceRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn add(&self, _name: &'static str, _delta: u64) {}
    fn observe(&self, _name: &'static str, _value: u64) {}
    fn record_span(&self, _name: &'static str, _nanos: u64) {}

    fn trace_enabled(&self) -> bool {
        true
    }

    fn event(&self, event: Event) {
        let wall_us = self
            .epoch
            .map(|epoch| u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX));
        let mut ring = self.inner.lock().expect("trace ring poisoned");
        if ring.events.len() >= self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back((event, wall_us));
    }
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventPayload;
    use crate::RecorderHandle;
    use std::sync::Arc;

    #[test]
    fn scopes_nest_and_reset_the_logical_clock() {
        let _outer = trial_scope(1, SETUP_TRIAL);
        assert_eq!(stamp(), (1, SETUP_TRIAL, Phase::Setup, 0));
        {
            let _inner = trial_scope(1, 4);
            let _phase = phase_scope(Phase::Measure);
            assert_eq!(stamp(), (1, 4, Phase::Measure, 0));
            assert_eq!(stamp(), (1, 4, Phase::Measure, 1));
        }
        // Back in the outer scope: clock resumes where it left off.
        assert_eq!(stamp(), (1, SETUP_TRIAL, Phase::Setup, 1));
    }

    #[test]
    fn jsonl_is_sorted_and_stable() {
        let rec = Arc::new(TraceRecorder::new());
        let handle = RecorderHandle::new(rec.clone());
        {
            let _scope = trial_scope(0, 1);
            handle.event("hs.begin", || EventPayload::new().field("n", 2u64));
        }
        {
            let _scope = trial_scope(0, SETUP_TRIAL);
            handle.event("igp.spf", || EventPayload::new().field("as", 7u64));
        }
        let jsonl = rec.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        // Setup sentinel sorts before trial 1 despite later emission.
        assert!(lines[0].contains("\"trial\":null"));
        assert!(lines[1].contains("\"trial\":1"));
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn dropped_counter_reports_ring_wrap() {
        let rec = Arc::new(TraceRecorder::with_capacity(3));
        let handle = RecorderHandle::new(rec.clone());
        let _scope = trial_scope(0, 0);
        for _ in 0..5 {
            handle.event("hs.pick", EventPayload::new);
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 2);
    }

    #[test]
    fn chrome_trace_has_header_and_metadata() {
        let rec = Arc::new(TraceRecorder::new());
        let handle = RecorderHandle::new(rec.clone());
        {
            let _scope = trial_scope(2, 0);
            handle.event("bgp.message", || {
                EventPayload::new().field("kind", "update")
            });
        }
        let chrome = rec.to_chrome_trace();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"i\""));
        assert!(chrome.contains("\"pid\":3"));
        assert!(chrome.contains("placement 2"));
        assert!(chrome.contains("thread_name"));
        assert!(chrome.ends_with("\"displayTimeUnit\":\"ms\"}\n"));
    }

    #[test]
    fn wall_clock_is_off_by_default_and_opt_in() {
        let rec = Arc::new(TraceRecorder::new());
        let handle = RecorderHandle::new(rec.clone());
        handle.event("hs.begin", EventPayload::new);
        assert!(!rec.to_jsonl().contains("wall_us"));

        let timed = Arc::new(TraceRecorder::new().with_wall_clock());
        let handle = RecorderHandle::new(timed.clone());
        handle.event("hs.begin", EventPayload::new);
        assert!(timed.to_jsonl().contains("\"wall_us\":"));
    }
}
