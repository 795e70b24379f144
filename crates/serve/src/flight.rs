//! The flight recorder: tail-sampled causal traces for slow requests.
//!
//! Every worker keeps a bounded [`TraceRecorder`] ring always-on (near
//! noop cost: events land in a per-request ring and are thrown away).
//! When a request's end-to-end latency breaches the configured SLO, the
//! ring — the full causal trace of exactly that request — is dumped as
//! one JSONL line keyed by the request id, together with the per-phase
//! span breakdown (queue wait vs snapshot-restore vs diagnose vs
//! render). Fast requests cost a ring clear; slow requests yield a
//! complete post-hoc trace without ever tracing the fleet.

use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use netdiag_obs::{push_json_string, TraceRecorder};

/// Per-phase wall-clock breakdown of one diagnose request, nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseNanos {
    /// Time spent queued in the worker pool (submit to pickup).
    pub queue: u64,
    /// Input parsing + baseline snapshot restoration.
    pub restore: u64,
    /// The diagnosis algorithm itself.
    pub diagnose: u64,
    /// Report structuring, narrative replay and serialization.
    pub render: u64,
}

/// Appends one JSONL dump per SLO-breaching request to a file.
pub struct FlightRecorder {
    slo_nanos: u64,
    /// Appended one full line at a time so concurrent workers never
    /// interleave partial dumps.
    out: Mutex<File>,
    dumps: AtomicU64,
}

impl FlightRecorder {
    /// Creates (truncating) the dump file. `slo_micros` is the latency
    /// threshold: requests at or above it dump their trace. Zero means
    /// every request breaches — the "trace everything" mode tests and
    /// debugging use.
    pub fn create(path: &Path, slo_micros: u64) -> std::io::Result<FlightRecorder> {
        Ok(FlightRecorder {
            slo_nanos: slo_micros.saturating_mul(1_000),
            out: Mutex::new(File::create(path)?),
            dumps: AtomicU64::new(0),
        })
    }

    /// The SLO in nanoseconds.
    pub fn slo_nanos(&self) -> u64 {
        self.slo_nanos
    }

    /// Dumps written so far.
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Tail-sampling decision point, called once per finished request:
    /// when `latency_nanos` meets the SLO, writes one JSONL line with
    /// the request id, phase breakdown and the worker's ring contents.
    /// Returns whether a dump was written.
    pub fn observe_request(
        &self,
        request_id: u64,
        seq: u64,
        latency_nanos: u64,
        phases: &PhaseNanos,
        ring: &TraceRecorder,
    ) -> bool {
        if latency_nanos < self.slo_nanos {
            return false;
        }
        let mut line = String::with_capacity(256);
        line.push_str(&format!(
            "{{\"request\":{request_id},\"seq\":{seq},\"latency_us\":{},\"slo_us\":{},\
             \"phases\":{{\"queue_us\":{},\"restore_us\":{},\"diagnose_us\":{},\
             \"render_us\":{}}},\"dropped\":{},\"trace\":",
            latency_nanos / 1_000,
            self.slo_nanos / 1_000,
            phases.queue / 1_000,
            phases.restore / 1_000,
            phases.diagnose / 1_000,
            phases.render / 1_000,
            ring.dropped(),
        ));
        push_json_string(&mut line, &ring.to_jsonl());
        line.push_str("}\n");
        let mut out = self.out.lock().expect("flight dump file mutex poisoned");
        // lint: allow(lock-across-blocking): dumps must be whole lines —
        // the write happens under the file mutex precisely so concurrent
        // workers never interleave, and SLO breaches are rare by design.
        let wrote = out.write_all(line.as_bytes()).is_ok();
        // lint: allow(lock-across-blocking): flushed under the same guard
        // so a reader tailing the file only ever sees complete dumps.
        let _ = out.flush();
        drop(out);
        if wrote {
            self.dumps.fetch_add(1, Ordering::Relaxed);
        }
        wrote
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("slo_nanos", &self.slo_nanos)
            .field("dumps", &self.dumps())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdiag_obs::{EventPayload, Recorder};

    fn ring_with_one_event() -> TraceRecorder {
        let ring = TraceRecorder::with_capacity(16);
        ring.event(netdiag_obs::Event {
            name: "hs.begin",
            placement: 1,
            trial: 0,
            phase: netdiag_obs::Phase::Diagnose,
            seq: 0,
            payload: EventPayload::new(),
        });
        ring
    }

    #[test]
    fn slo_zero_dumps_every_request_and_high_slo_none() {
        let dir = std::env::temp_dir().join(format!("flight-test-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("dumps.jsonl");
        let flight = FlightRecorder::create(&path, 0).expect("dump file creates");
        let ring = ring_with_one_event();
        let phases = PhaseNanos {
            queue: 1_000,
            restore: 2_000,
            diagnose: 3_000,
            render: 4_000,
        };
        assert!(flight.observe_request(42, 7, 10_000, &phases, &ring));
        assert_eq!(flight.dumps(), 1);

        // A generous SLO never fires.
        let quiet = FlightRecorder::create(&dir.join("quiet.jsonl"), u64::MAX / 2_000)
            .expect("dump file creates");
        assert!(!quiet.observe_request(43, 8, 10_000, &phases, &ring));
        assert_eq!(quiet.dumps(), 0);

        let dumped = std::fs::read_to_string(&path).expect("dump file readable");
        let lines: Vec<&str> = dumped.lines().collect();
        assert_eq!(lines.len(), 1);
        let v = netdiag_obs::json::parse(lines[0]).expect("dump line is JSON");
        assert_eq!(
            v.get("request").and_then(netdiag_obs::json::Json::as_u64),
            Some(42)
        );
        let phases_v = v.get("phases").expect("phases object");
        assert_eq!(
            phases_v
                .get("diagnose_us")
                .and_then(netdiag_obs::json::Json::as_u64),
            Some(3)
        );
        let trace = v
            .get("trace")
            .and_then(netdiag_obs::json::Json::as_str)
            .expect("trace string");
        assert!(trace.contains("hs.begin"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
