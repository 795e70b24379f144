//! Closed-loop load harness behind `netdiag-serve bench`.
//!
//! Starts an in-process daemon on a loopback port, samples one
//! failure scenario from its baseline, then drives it with N client
//! threads each issuing M diagnose requests back-to-back. Every
//! response is validated (protocol `ok`, parseable
//! [`DiagnosticReport`]); per-request
//! wall latency lands both in a harness-side [`LiveRecorder`] (as
//! `serve.client_latency`, nanoseconds) and in an exact sorted sample
//! for the reported percentiles.
//!
//! The harness also reads the *server's* view: after the load phase it
//! fetches the daemon's `stats` snapshot over the wire and reports the
//! service-time percentiles (`serve.request`) next to the
//! client-observed ones — when client p99 diverges far above server
//! p99, requests are queueing, not slow. [`compare`] runs the whole
//! harness twice on one shared baseline (telemetry on, then off) to
//! measure what the live plane costs end to end.

use std::sync::Arc;
use std::time::Instant;

use netdiag_obs::json::Json;
use netdiag_obs::{names, LiveRecorder, RecorderHandle, RunReport};
use netdiagnoser::{Algorithm, DiagnosticReport};

use crate::baseline::{Baseline, ServeConfig};
use crate::client::Client;
use crate::proto::{write_diagnose_request, DiagnoseJob};
use crate::server::{Endpoint, Server};

/// Load-harness parameters.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests per client (closed loop: next request after the
    /// previous response).
    pub requests: usize,
    /// Baseline + scenario seed.
    pub seed: u64,
    /// Worker threads for the daemon pool (`0` = available parallelism).
    pub workers: usize,
    /// Daemon queue capacity (`0` = default).
    pub queue: usize,
    /// Algorithm every request runs.
    pub algo: Algorithm,
    /// Mount the daemon's live telemetry plane (the production default;
    /// `false` is the overhead-comparison leg).
    pub telemetry: bool,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            clients: 8,
            requests: 25,
            seed: 1,
            workers: 0,
            queue: 0,
            algo: Algorithm::default(),
            telemetry: true,
        }
    }
}

/// What one bench run measured.
pub struct BenchResults {
    /// Requests that completed with a valid report.
    pub completed: u64,
    /// Requests that errored (protocol errors, overload rejections,
    /// unparseable reports).
    pub errors: u64,
    /// Wall time of the request phase (excludes baseline convergence).
    pub elapsed_secs: f64,
    /// Completed requests per second.
    pub req_per_sec: f64,
    /// Median client-observed request latency, microseconds.
    pub p50_us: f64,
    /// 90th-percentile client-observed request latency, microseconds.
    pub p90_us: f64,
    /// 99th-percentile client-observed request latency, microseconds.
    pub p99_us: f64,
    /// Median server-side service time (`serve.request`, dequeue to
    /// serialized response), microseconds — from the daemon's `stats`
    /// snapshot fetched over the wire. Zero with telemetry off.
    pub server_p50_us: f64,
    /// 99th-percentile server-side service time, microseconds.
    pub server_p99_us: f64,
    /// The daemon's live metrics snapshot (serve.* counters, phase
    /// spans, the queue-depth gauge, diagnosis counters) merged with the
    /// harness's client-latency series.
    pub report: RunReport,
}

impl BenchResults {
    /// Does client-observed p99 run more than 2x above the server's
    /// service-time p99? If so, the bottleneck is queueing (pool or
    /// connection FIFO), not diagnosis work.
    pub fn queueing_divergence(&self) -> bool {
        self.server_p99_us > 0.0 && self.p99_us > 2.0 * self.server_p99_us
    }
}

fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * (sorted_ns.len() as f64 - 1.0)).round() as usize;
    sorted_ns[rank.min(sorted_ns.len() - 1)] as f64 / 1_000.0
}

/// Runs the harness to completion. Errors are setup failures (bind,
/// scenario sampling); request-level failures are counted, not fatal.
pub fn run(config: &BenchConfig) -> Result<BenchResults, String> {
    let baseline = Arc::new(Baseline::prepare(&serve_config(config)));
    run_with_baseline(config, baseline)
}

/// Rounds each [`compare`] leg runs. Best-of, not mean: a descheduled
/// run on a contended box halves one round's throughput, and that noise
/// would swamp the few-percent effect the telemetry gate measures. The
/// fastest round of each leg is the one least contaminated.
const COMPARE_ROUNDS: usize = 3;

/// Runs the harness with telemetry on and off on one shared baseline —
/// so the two legs differ only in the live plane — alternating the legs
/// `COMPARE_ROUNDS` times and keeping each leg's best round (same
/// thermal/scheduler conditions for both, noise suppressed by best-of).
/// Returns `(telemetry_on, telemetry_off)`; the throughput ratio between
/// them is what the telemetry overhead gate in bench.sh checks.
pub fn compare(config: &BenchConfig) -> Result<(BenchResults, BenchResults), String> {
    let baseline = Arc::new(Baseline::prepare(&serve_config(config)));
    let mut on: Option<BenchResults> = None;
    let mut off: Option<BenchResults> = None;
    for _ in 0..COMPARE_ROUNDS {
        for telemetry in [true, false] {
            let round = run_with_baseline(
                &BenchConfig {
                    telemetry,
                    ..config.clone()
                },
                Arc::clone(&baseline),
            )?;
            let best = if telemetry { &mut on } else { &mut off };
            if best
                .as_ref()
                .is_none_or(|b| round.req_per_sec > b.req_per_sec)
            {
                *best = Some(round);
            }
        }
    }
    match (on, off) {
        (Some(on), Some(off)) => Ok((on, off)),
        _ => Err("compare ran zero rounds".to_owned()),
    }
}

fn serve_config(config: &BenchConfig) -> ServeConfig {
    ServeConfig {
        seed: config.seed,
        workers: config.workers,
        queue: config.queue,
        telemetry: config.telemetry,
        recorder: RecorderHandle::noop(),
        ..Default::default()
    }
}

/// [`run`] against an already-converged baseline (shared across
/// [`compare`] legs).
pub fn run_with_baseline(
    config: &BenchConfig,
    baseline: Arc<Baseline>,
) -> Result<BenchResults, String> {
    // Client latencies aggregate into a harness-side live registry: the
    // bench is itself off the global-mutex recorder.
    let (client_recorder, client_live) = RecorderHandle::live();
    let scenario = baseline
        .sample_scenario(config.seed)
        .ok_or("no sampled failure broke a path; try another seed")?;
    let handle = Server::start_with_baseline(
        serve_config(config),
        Endpoint::Tcp("127.0.0.1:0".to_owned()),
        baseline,
    )?;
    let addr = handle
        .tcp_addr()
        .ok_or("TCP endpoint did not resolve an address")?
        .to_string();

    let job = DiagnoseJob {
        algo: config.algo,
        after: scenario.after,
        feed: Some(scenario.feed),
        ..Default::default()
    };

    let started = Instant::now();
    let mut threads = Vec::new();
    for client_idx in 0..config.clients.max(1) {
        let addr = addr.clone();
        let recorder = client_recorder.clone();
        let requests = config.requests.max(1);
        let line = write_diagnose_request(client_idx as u64, &job);
        threads.push(std::thread::spawn(move || {
            let mut latencies_ns: Vec<u64> = Vec::with_capacity(requests);
            let mut errors = 0u64;
            let Ok(mut client) = Client::connect_tcp(&addr) else {
                return (latencies_ns, requests as u64);
            };
            for _ in 0..requests {
                let t0 = Instant::now();
                let response = client.request_line(&line);
                let ns = t0.elapsed().as_nanos() as u64;
                match response {
                    Ok(response) if response_is_valid(&response) => {
                        recorder.observe(names::SERVE_CLIENT_LATENCY, ns);
                        latencies_ns.push(ns);
                    }
                    _ => errors += 1,
                }
            }
            (latencies_ns, errors)
        }));
    }

    let mut latencies_ns: Vec<u64> = Vec::new();
    let mut errors = 0u64;
    for thread in threads {
        let (lats, errs) = thread
            .join()
            .map_err(|_| "a bench client thread panicked".to_owned())?;
        latencies_ns.extend(lats);
        errors += errs;
    }
    let elapsed_secs = started.elapsed().as_secs_f64();
    // The server's own view, over the wire: exercises the stats verb
    // exactly as an operator would.
    let (server_p50_us, server_p99_us) = fetch_server_latency(&addr);
    let report = merged_report(&handle.live_report(), &client_live);
    handle.stop();

    latencies_ns.sort_unstable();
    let completed = latencies_ns.len() as u64;
    Ok(BenchResults {
        completed,
        errors,
        elapsed_secs,
        req_per_sec: if elapsed_secs > 0.0 {
            completed as f64 / elapsed_secs
        } else {
            0.0
        },
        p50_us: percentile_us(&latencies_ns, 50.0),
        p90_us: percentile_us(&latencies_ns, 90.0),
        p99_us: percentile_us(&latencies_ns, 99.0),
        server_p50_us,
        server_p99_us,
        report,
    })
}

/// Asks the daemon for its `stats` snapshot and pulls the
/// `serve.request` span percentiles out of the report (microseconds).
/// `(0, 0)` when the daemon serves no live report (telemetry off).
fn fetch_server_latency(addr: &str) -> (f64, f64) {
    let Ok(mut client) = Client::connect_tcp(addr) else {
        return (0.0, 0.0);
    };
    let Ok(response) = client.request_line(r#"{"op":"stats","id":0}"#) else {
        return (0.0, 0.0);
    };
    let Ok(v) = netdiag_obs::json::parse(&response) else {
        return (0.0, 0.0);
    };
    let span = v
        .get("report")
        .and_then(|r| r.get("spans"))
        .and_then(|s| s.get(names::SERVE_REQUEST));
    let pct = |key: &str| {
        span.and_then(|s| s.get(key))
            .and_then(Json::as_u64)
            .map_or(0.0, |ns| ns as f64 / 1_000.0)
    };
    (pct("p50_ns"), pct("p99_ns"))
}

/// The daemon's live snapshot with the harness's client-latency series
/// folded in (with telemetry off, the client series is all there is).
fn merged_report(server: &Option<RunReport>, client_live: &LiveRecorder) -> RunReport {
    let mut report = server.clone().unwrap_or_default();
    let client = client_live.snapshot();
    for (name, stats) in client.histograms {
        report.histograms.insert(name, stats);
    }
    report
}

/// A response counts as completed when the protocol says `ok` and the
/// embedded report parses against the current schema.
fn response_is_valid(line: &str) -> bool {
    let Ok(v) = netdiag_obs::json::parse(line) else {
        return false;
    };
    if !matches!(v.get("ok"), Some(netdiag_obs::json::Json::Bool(true))) {
        return false;
    }
    match v.get("report") {
        Some(report) => DiagnosticReport::from_json_value(report).is_ok(),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_bench_completes_all_requests() {
        let results = run(&BenchConfig {
            clients: 2,
            requests: 3,
            seed: 5,
            workers: 2,
            ..Default::default()
        })
        .expect("bench harness runs to completion");
        assert_eq!(results.completed, 6);
        assert_eq!(results.errors, 0);
        assert!(results.p99_us >= results.p50_us);
        assert!(results
            .report
            .histogram(names::SERVE_CLIENT_LATENCY)
            .is_some());
        // The wire-fetched server-side view arrived, and the merged
        // report carries the daemon's own metrics (requests counter,
        // phase spans, the queue-depth gauge).
        assert!(results.server_p50_us > 0.0);
        assert!(results.server_p99_us >= results.server_p50_us);
        assert!(results.report.counter(names::SERVE_REQUESTS) >= 6);
        assert!(results.report.span(names::SERVE_PHASE_DIAGNOSE).is_some());
        assert!(results.report.gauge(names::SERVE_QUEUE_DEPTH).is_some());
        // Client-observed latency includes the server's service time.
        assert!(results.p50_us >= results.server_p50_us / 2.0);
    }
}
