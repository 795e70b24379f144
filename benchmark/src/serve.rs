//! The `serve-paper` workload: an in-process daemon under open-loop
//! `nd-bgpigp` load.
//!
//! Per request the daemon parses the uploaded `T+` snapshot and feed,
//! builds the graph, prunes it with the feed, runs the greedy hitting
//! set and renders the report; the simulator does no work at all. That
//! makes this workload the target for `core`/`serve` changes and the
//! control for simulator changes.

use std::sync::Arc;
use std::time::Instant;

use netdiag_obs::json::{self, Json};
use netdiag_serve::proto::{diagnose_response, write_diagnose_request, DiagnoseJob};
use netdiag_serve::{Baseline, Client, Endpoint, Scenario, ServeConfig, Server, ServerHandle};
use netdiagnoser::text::{parse_feed, parse_snapshot};
use netdiagnoser::{Algorithm, DiagnosticReport, DiagnosticsConfig, NetDiagnoser, Observations};

use crate::loadgen::{run_leg, LegResult, Reply};
use crate::measure::{median, peak_rss_mib, Outcome};
use crate::{Params, PAPER_TOPOLOGY_SEED};

/// Distinct failure scenarios the requests cycle through.
pub(crate) const SCENARIOS: usize = 64;
/// Sender threads, each owning one connection (at most `nproc` = 2).
pub(crate) const SENDERS: usize = 2;
/// Daemon worker threads.
pub(crate) const WORKERS: usize = 2;
/// The latency limit a rate must hold to count as sustained.
pub(crate) const SLO_P99_MS: f64 = 5.0;
/// The light fixed rate, requests per second.
pub(crate) const LO_RPS: f64 = 500.0;
/// The heavy fixed rate, requests per second.
pub(crate) const HI_RPS: f64 = 1200.0;
/// Bisection range and probe count for the highest sustained rate.
pub(crate) const BISECT: (f64, f64, usize) = (250.0, 5000.0, 6);
/// Seconds of the discarded warm-up leg that precedes any timed leg.
pub(crate) const WARMUP_SECS: f64 = 1.0;
/// Times the daemon is set up per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// A running daemon plus the request lines it will be sent and the
/// responses it must give.
pub(crate) struct Daemon {
    /// The converged baseline the daemon serves.
    pub baseline: Arc<Baseline>,
    handle: ServerHandle,
    addr: String,
    scenarios: Vec<Scenario>,
    lines: Vec<String>,
    expected: Vec<String>,
}

/// The daemon's diagnosis settings for an `nd-bgpigp` request with no
/// thresholds (what `handle_diagnose` builds from such a request).
pub(crate) fn request_config() -> DiagnosticsConfig {
    DiagnosticsConfig {
        algorithm: Algorithm::NdBgpIgp,
        min_confidence: 0.0,
        max_issues: 0,
        ..Default::default()
    }
}

impl Daemon {
    /// Prepares the baseline for `baseline_seed` (the paper internet, or
    /// a generated one of `gen_ases` ASes), samples the request scenarios
    /// from `scenario_seed` and starts the daemon on a loopback port.
    pub fn start(
        baseline_seed: u64,
        gen_ases: usize,
        scenario_seed: u64,
    ) -> Result<Daemon, String> {
        let config = ServeConfig {
            seed: baseline_seed,
            gen_ases,
            workers: WORKERS,
            ..Default::default()
        };
        let baseline = Arc::new(Baseline::prepare(&config));
        let scenarios = (0..SCENARIOS as u64)
            .map(|i| {
                baseline
                    .sample_scenario(scenario_seed * 1000 + i)
                    .ok_or_else(|| format!("scenario {i}: no sampled failure broke a path"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let lines = scenarios
            .iter()
            .enumerate()
            .map(|(i, s)| {
                write_diagnose_request(
                    i as u64,
                    &DiagnoseJob {
                        algo: Algorithm::NdBgpIgp,
                        after: s.after.clone(),
                        feed: Some(s.feed.clone()),
                        ..Default::default()
                    },
                )
            })
            .collect();
        let handle = Server::start_with_baseline(
            config,
            Endpoint::Tcp("127.0.0.1:0".to_owned()),
            Arc::clone(&baseline),
        )?;
        let addr = handle
            .tcp_addr()
            .ok_or("the TCP endpoint resolved no address")?
            .to_string();
        let mut client = Client::connect_tcp(&addr).map_err(|e| format!("connect: {e}"))?;
        let health = client
            .request_line(r#"{"op":"health","id":0}"#)
            .map_err(|e| format!("health: {e}"))?;
        if !health.contains("\"ready\"") {
            return Err(format!("daemon not ready: {health}"));
        }
        Ok(Daemon {
            baseline,
            handle,
            addr,
            scenarios,
            lines,
            expected: Vec::new(),
        })
    }

    /// The sampled request scenarios.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// The response the daemon must give to scenario `i`.
    pub fn expected(&self, i: usize) -> &str {
        &self.expected[i]
    }

    /// Computes each scenario's report in process and checks the daemon
    /// answers each request byte for byte the same, with a report that
    /// parses. Must run before [`leg`](Self::leg), which checks every
    /// response against these.
    pub fn check_parity(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut client = match Client::connect_tcp(&self.addr) {
            Ok(c) => c,
            Err(e) => return vec![format!("connect: {e}")],
        };
        self.expected = self
            .scenarios
            .iter()
            .enumerate()
            .map(|(i, s)| {
                in_process_response(&self.baseline, i as u64, s).unwrap_or_else(|e| {
                    problems.push(format!("scenario {i}: in-process report failed: {e}"));
                    String::new()
                })
            })
            .collect();
        for (i, line) in self.lines.iter().enumerate() {
            match client.request_line(line) {
                Ok(response) => {
                    if let Err(e) = parse_report(&response) {
                        problems.push(format!("scenario {i}: {e}"));
                    } else if response != self.expected[i] {
                        problems.push(format!(
                            "scenario {i}: daemon report differs from the in-process one"
                        ));
                    }
                }
                Err(e) => problems.push(format!("scenario {i}: {e}")),
            }
        }
        problems
    }

    /// One open-loop leg at `rate` requests per second for `secs`.
    pub fn leg(&self, rate: f64, secs: f64) -> LegResult {
        let connect = |_: usize| Client::connect_tcp(&self.addr).ok();
        let send = |conn: &mut Option<Client>, i: u64| -> Reply {
            if conn.is_none() {
                *conn = Client::connect_tcp(&self.addr).ok();
            }
            let Some(client) = conn.as_mut() else {
                return Reply::Failed;
            };
            let k = (i % SCENARIOS as u64) as usize;
            match client.request_line(&self.lines[k]) {
                Ok(response) if response == self.expected[k] => Reply::Ok,
                Ok(response) if response.contains("\"ok\":false") => Reply::Failed,
                Ok(_) => Reply::Wrong,
                Err(_) => {
                    *conn = None;
                    Reply::Failed
                }
            }
        };
        run_leg(rate, secs, SENDERS, &connect, &send)
    }

    /// The daemon's `stats` report, fetched over the wire.
    pub fn stats(&self) -> Result<Json, String> {
        let mut client = Client::connect_tcp(&self.addr).map_err(|e| format!("connect: {e}"))?;
        let response = client
            .request_line(r#"{"op":"stats","id":0}"#)
            .map_err(|e| format!("stats: {e}"))?;
        let v = json::parse(&response).map_err(|e| format!("stats JSON: {e}"))?;
        v.get("report")
            .cloned()
            .ok_or_else(|| "stats carried no report".to_owned())
    }

    /// Stops the daemon and waits for every thread it started.
    pub fn stop(self) {
        self.handle.stop();
    }
}

/// The response line the daemon must produce for scenario `s`, computed
/// with an in-process `NetDiagnoser::report` on the same inputs.
fn in_process_response(baseline: &Baseline, id: u64, s: &Scenario) -> Result<String, String> {
    let obs = Observations {
        sensors: baseline.sensors().to_vec(),
        before: baseline.before().clone(),
        after: parse_snapshot(&s.after).map_err(|e| e.to_string())?,
    };
    let feed = parse_feed(&s.feed).map_err(|e| e.to_string())?;
    let report = NetDiagnoser::builder()
        .config(request_config())
        .routing_feed(feed)
        .looking_glass(baseline.looking_glass())
        .build()
        .report(&obs, &baseline.ip_to_as())
        .map_err(|e| e.to_string())?;
    Ok(diagnose_response(
        id,
        &report.to_json(),
        &report.to_string(),
        None,
    ))
}

/// Checks a response is `ok` and carries a report of the current schema.
fn parse_report(response: &str) -> Result<DiagnosticReport, String> {
    let v = json::parse(response).map_err(|e| format!("response is not JSON: {e}"))?;
    if !matches!(v.get("ok"), Some(Json::Bool(true))) {
        return Err(format!("response not ok: {response}"));
    }
    let report = v.get("report").ok_or("response carries no report")?;
    DiagnosticReport::from_json_value(report)
}

/// Sets up a daemon on the paper internet with `seed`'s scenarios
/// [`SETUP_REPS`] times; returns the last daemon and every set-up time.
fn set_up(seed: u64) -> Result<(Daemon, Vec<f64>), String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut daemon = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let d = Daemon::start(PAPER_TOPOLOGY_SEED, 0, seed)
            .map_err(|e| format!("daemon set-up: {e}"))?;
        setups.push(t0.elapsed().as_secs_f64());
        if let Some(old) = daemon.replace(d) {
            old.stop();
        }
    }
    let d = daemon.ok_or("no daemon was set up")?;
    Ok((d, setups))
}

/// Adds a leg's request counts to the outcome and flags wrong answers.
pub(crate) fn tally(out: &mut Outcome, leg: &LegResult) {
    out.attempted += leg.attempted;
    out.failed += leg.failed;
    out.check(leg.wrong == 0, || {
        format!("{} unexpected responses at {} req/s", leg.wrong, leg.rate)
    });
}

/// The e2e run: daemon set-up, a discarded warm-up leg, then the `hi`
/// rate for `--seconds`, every response checked.
pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let (mut d, setups) = match set_up(p.seed) {
        Ok(x) => x,
        Err(e) => {
            out.problems.push(e);
            return out;
        }
    };
    out.problems.extend(d.check_parity());
    let warm = d.leg(HI_RPS, WARMUP_SECS.min(p.seconds));
    let hi = d.leg(HI_RPS, p.seconds);
    d.stop();
    tally(&mut out, &warm);
    tally(&mut out, &hi);
    eprintln!(
        "serve: hi p50 {:.3} p99 {:.3} ms, {:.0} us cpu/req, late p99 {:.3} ms",
        hi.latency_ms(50.0),
        hi.latency_ms(99.0),
        hi.cpu_us_per_req(),
        hi.late_ms(99.0),
    );
    out.push("setup_s", "s", median(&setups));
    out.push("rss_peak_mb", "MiB", peak_rss_mib());
    out
}
