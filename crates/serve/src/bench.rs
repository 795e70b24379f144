//! The telemetry on/off gate behind `netdiag-serve bench`.
//!
//! Converges one baseline, samples one failure scenario from it, then
//! runs [`PAIRS`] pairs of rounds on that baseline: one with the daemon's
//! live telemetry plane on and one with it off. A round starts an
//! in-process daemon on a loopback port and drives it closed-loop with
//! [`CLIENTS`] client threads, each issuing [`REQUESTS`] diagnose
//! requests back-to-back; every response is validated (protocol `ok`,
//! parseable [`DiagnosticReport`]), so the timed work is the same in both
//! legs. [`summarize`] reduces the rounds to the median of the per-pair
//! on/off throughput ratios, which `scripts/bench.sh` holds at ≥ 0.95.

use std::sync::Arc;
use std::time::Instant;

use netdiagnoser::DiagnosticReport;

use crate::baseline::{Baseline, ServeConfig};
use crate::client::Client;
use crate::proto::{write_diagnose_request, DiagnoseJob};
use crate::server::{Endpoint, Server};

/// Telemetry on/off pairs of rounds. At [`CLIENTS`] × [`REQUESTS`] a
/// round, single pairs spread with a standard deviation of about 0.1,
/// and the median of 20 fell within ±5% of the true ratio 95% of the
/// time (bootstrap over 40 measured pairs); one more makes the count
/// odd, so the median is one pair.
pub const PAIRS: usize = 21;

/// Concurrent client connections in a round.
pub const CLIENTS: usize = 4;

/// Requests per client in a round (closed loop: the next request after
/// the previous response). With 50, about 1 in 100 medians of 20 pairs
/// fell below 0.95 when resampled from 40 measured pairs of an unchanged
/// build; with 150, none did.
pub const REQUESTS: usize = 150;

/// Baseline and scenario seed.
const SEED: u64 = 1;

/// What one round measured.
#[derive(Clone, Copy, Debug)]
pub struct Round {
    /// Requests that completed with a valid report.
    pub completed: u64,
    /// Requests that failed: connection or protocol errors, overload
    /// refusals, unparseable reports.
    pub errors: u64,
    /// Wall time of the request phase.
    pub elapsed_secs: f64,
}

impl Round {
    /// Completed requests per second.
    pub fn req_per_sec(&self) -> f64 {
        self.completed as f64 / self.elapsed_secs
    }
}

/// The gate's reading of a run: per-pair on/off throughput ratios
/// reduced to their quartiles and their median pair.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Pairs of rounds.
    pub pairs: usize,
    /// Lower quartile of the per-pair ratios.
    pub q1: f64,
    /// Upper quartile of the per-pair ratios.
    pub q3: f64,
    /// Run-order index of the median pair.
    pub median_pair: usize,
    /// The median pair's on/off throughput ratio: the gated number.
    pub ratio: f64,
    /// The median pair's telemetry-on throughput, requests per second.
    pub on_req_per_sec: f64,
    /// The median pair's telemetry-off throughput, requests per second.
    pub off_req_per_sec: f64,
}

/// Reduces paired rounds (`off[i]` ran next to `on[i]`) to the gate's
/// [`Summary`]. A round that failed a request or completed fewer than
/// `expected` is an error: a leg that loses requests reads slower and
/// would move the ratio for the wrong reason.
pub fn summarize(on: &[Round], off: &[Round], expected: u64) -> Result<Summary, String> {
    if on.is_empty() || on.len() != off.len() {
        return Err(format!(
            "need equal, non-empty legs; got {} on and {} off rounds",
            on.len(),
            off.len()
        ));
    }
    for (pair, (on, off)) in on.iter().zip(off).enumerate() {
        for (leg, round) in [("on", on), ("off", off)] {
            if round.errors > 0 || round.completed < expected {
                return Err(format!(
                    "pair {pair}, telemetry {leg}: {} of {expected} requests completed, {} errors",
                    round.completed, round.errors
                ));
            }
        }
    }
    // (ratio, pair, on req/s, off req/s), ranked by ratio.
    let mut ranked: Vec<(f64, usize, f64, f64)> = on
        .iter()
        .zip(off)
        .enumerate()
        .map(|(pair, (on, off))| {
            let (on, off) = (on.req_per_sec(), off.req_per_sec());
            (on / off, pair, on, off)
        })
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let at = |q: usize| ranked[(ranked.len() - 1) * q / 4];
    let (ratio, median_pair, on_req_per_sec, off_req_per_sec) = at(2);
    Ok(Summary {
        pairs: ranked.len(),
        q1: at(1).0,
        q3: at(3).0,
        median_pair,
        ratio,
        on_req_per_sec,
        off_req_per_sec,
    })
}

/// Runs the gate: [`PAIRS`] telemetry on/off pairs of rounds on one
/// shared baseline, so the two legs differ only in the live plane. The
/// legs alternate round by round, each pair taking the other order from
/// the last, so a slow phase of the host lands on both legs alike rather
/// than on one; the median of the per-pair ratios is one that a single
/// descheduled round cannot move.
pub fn compare() -> Result<Summary, String> {
    let baseline = Arc::new(Baseline::prepare(&ServeConfig {
        seed: SEED,
        ..Default::default()
    }));
    let job = scenario_job(&baseline, SEED)?;
    let round = |telemetry| run_round(Arc::clone(&baseline), &job, telemetry, CLIENTS, REQUESTS);
    let (mut on, mut off) = (Vec::with_capacity(PAIRS), Vec::with_capacity(PAIRS));
    for pair in 0..PAIRS {
        if pair % 2 == 0 {
            on.push(round(true)?);
            off.push(round(false)?);
        } else {
            off.push(round(false)?);
            on.push(round(true)?);
        }
    }
    summarize(&on, &off, (CLIENTS * REQUESTS) as u64)
}

/// The diagnose request every round sends: the default algorithm on one
/// failure sampled from `baseline`.
fn scenario_job(baseline: &Baseline, seed: u64) -> Result<DiagnoseJob, String> {
    let scenario = baseline
        .sample_scenario(seed)
        .ok_or("no sampled failure broke a path; try another seed")?;
    Ok(DiagnoseJob {
        after: scenario.after,
        feed: Some(scenario.feed),
        ..Default::default()
    })
}

/// One round: a daemon on `baseline` with the live plane on or off,
/// driven by `clients` threads × `requests` closed-loop requests of
/// `job`. Errors are setup failures (bind, a panicked client thread);
/// request-level failures are counted.
fn run_round(
    baseline: Arc<Baseline>,
    job: &DiagnoseJob,
    telemetry: bool,
    clients: usize,
    requests: usize,
) -> Result<Round, String> {
    let config = ServeConfig {
        telemetry,
        ..Default::default()
    };
    let handle =
        Server::start_with_baseline(config, Endpoint::Tcp("127.0.0.1:0".to_owned()), baseline)?;
    let addr = handle
        .tcp_addr()
        .ok_or("TCP endpoint did not resolve an address")?
        .to_string();

    let started = Instant::now();
    let mut threads = Vec::new();
    for client_idx in 0..clients {
        let addr = addr.clone();
        let line = write_diagnose_request(client_idx as u64, job);
        threads.push(std::thread::spawn(move || {
            let Ok(mut client) = Client::connect_tcp(&addr) else {
                return (0, requests as u64);
            };
            let mut completed = 0u64;
            for _ in 0..requests {
                match client.request_line(&line) {
                    Ok(response) if response_is_valid(&response) => completed += 1,
                    _ => {}
                }
            }
            (completed, requests as u64 - completed)
        }));
    }
    let mut round = Round {
        completed: 0,
        errors: 0,
        elapsed_secs: 0.0,
    };
    for thread in threads {
        let (completed, errors) = thread
            .join()
            .map_err(|_| "a bench client thread panicked".to_owned())?;
        round.completed += completed;
        round.errors += errors;
    }
    round.elapsed_secs = started.elapsed().as_secs_f64();
    handle.stop();
    Ok(round)
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

    fn round(completed: u64, errors: u64, elapsed_secs: f64) -> Round {
        Round {
            completed,
            errors,
            elapsed_secs,
        }
    }

    /// Five pairs whose on legs take 1..=5 s against a 1 s off leg,
    /// shuffled so the run order is not the ratio order.
    fn five_pairs() -> (Vec<Round>, Vec<Round>) {
        let on = [3.0, 1.0, 5.0, 2.0, 4.0].map(|secs| round(10, 0, secs));
        (on.to_vec(), vec![round(10, 0, 1.0); 5])
    }

    #[test]
    fn an_odd_pair_count_reads_its_middle_pair() {
        let (on, off) = five_pairs();
        let summary = summarize(&on, &off, 10).expect("clean rounds summarize");
        assert_eq!(summary.pairs, 5);
        // Ratios in run order: 1/3, 1, 1/5, 1/2, 1/4. Sorted, the middle
        // one is 1/3, which pair 0 measured.
        assert_eq!(summary.median_pair, 0);
        assert!((summary.ratio - 1.0 / 3.0).abs() < 1e-12);
        assert!((summary.q1 - 0.25).abs() < 1e-12);
        assert!((summary.q3 - 0.5).abs() < 1e-12);
        assert!((summary.on_req_per_sec - 10.0 / 3.0).abs() < 1e-12);
        assert!((summary.off_req_per_sec - 10.0).abs() < 1e-12);
    }

    #[test]
    fn the_median_pair_is_found_wherever_it_ran() {
        let (mut on, off) = five_pairs();
        on.rotate_left(2);
        // Run order now 5, 2, 4, 3, 1 s: the 3 s pair ran fourth.
        let summary = summarize(&on, &off, 10).expect("clean rounds summarize");
        assert_eq!(summary.median_pair, 3);
        assert!((summary.ratio - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn one_errored_or_short_round_fails_the_gate() {
        let (on, off) = five_pairs();
        let mut errored = off.clone();
        errored[2] = round(9, 1, 1.0);
        let err = summarize(&on, &errored, 10).expect_err("an errored round fails");
        assert!(err.contains("pair 2, telemetry off"), "{err}");
        let mut short = on.clone();
        short[4] = round(9, 0, 4.0);
        let err = summarize(&short, &off, 10).expect_err("a short round fails");
        assert!(err.contains("pair 4, telemetry on"), "{err}");
        assert!(summarize(&on[..4], &off, 10).is_err());
        assert!(summarize(&[], &[], 10).is_err());
    }

    #[test]
    fn a_round_completes_every_request_with_telemetry_on_and_off() {
        let baseline = Arc::new(Baseline::prepare(&ServeConfig {
            seed: 5,
            ..Default::default()
        }));
        let job = scenario_job(&baseline, 5).expect("seed 5 samples a scenario");
        for telemetry in [true, false] {
            let round = run_round(Arc::clone(&baseline), &job, telemetry, 2, 3)
                .expect("a round runs to completion");
            assert_eq!(
                (round.completed, round.errors),
                (6, 0),
                "telemetry {telemetry}"
            );
            assert!(round.req_per_sec() > 0.0);
        }
    }
}
