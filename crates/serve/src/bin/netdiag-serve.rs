//! `netdiag-serve` — run, query, observe, gate and stop the diagnosis
//! daemon.
//!
//! ```text
//! netdiag-serve run [--listen ADDR | --unix PATH] [--seed N]
//!                   [--sensors N] [--gen-ases N] [--workers N]
//!                   [--queue N] [--slo-ms N] [--flight FILE]
//!                   [--profile FILE]
//!     Converges a baseline and serves diagnose requests until a
//!     `shutdown` request arrives. Prints the bound endpoint on the
//!     first line (`listening <addr>`). `--gen-ases N` serves a seeded
//!     internet-scale generated topology of N ASes instead of the
//!     paper's 165-AS internet. `--flight FILE` mounts the flight
//!     recorder: every diagnose request whose latency breaches the
//!     `--slo-ms` budget (0 = dump all) appends its full causal trace
//!     to FILE as one JSONL line. `--profile` writes the daemon's live
//!     metrics report (serve.* counters, gauges, phase spans) on
//!     shutdown.
//!
//! netdiag-serve request (--connect ADDR | --unix PATH) --dir DIR
//!                       [--algo NAME] [--json] [--explain]
//!     Uploads a scenario directory (`netdiagnoser::text::ScenarioDir`:
//!     after.txt required; sensors.txt, before.txt, feed.txt, lg.txt,
//!     ip2as.txt attached when present, the baseline's used otherwise)
//!     and prints the returned report text — byte-identical to
//!     `netdiag diagnose --dir DIR` on the same inputs — or the
//!     versioned report JSON with `--json`.
//!
//! netdiag-serve stats (--connect ADDR | --unix PATH)
//!                     [--watch] [--interval SECS] [--prom]
//!                     [--window SECS] [--json]
//!     Fetches a running daemon's live telemetry: health, request
//!     counters, queue-depth gauge, and rates/percentiles over the last
//!     `--window` seconds (default 10). `--watch` refreshes every
//!     `--interval` seconds (default 2); `--prom` prints the
//!     Prometheus text exposition instead; `--json` the raw response.
//!
//! netdiag-serve bench
//!     The telemetry on/off gate: 21 interleaved pairs of rounds with
//!     the daemon's live plane on and off, on one shared baseline, each
//!     round 4 closed-loop clients × 150 diagnose requests against an
//!     in-process daemon. Prints the median of the per-pair throughput
//!     ratios; exits non-zero if any round loses a request.
//!
//! netdiag-serve stop (--connect ADDR | --unix PATH)
//!     Asks a running daemon to shut down.
//! ```

// A daemon front end talks to its user on stdout.
#![allow(clippy::print_stdout)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use netdiag_obs::json::{parse, Json};
use netdiag_obs::names;
use netdiag_serve::bench;
use netdiag_serve::proto::{write_diagnose_request, DiagnoseJob};
use netdiag_serve::{Client, Endpoint, ServeConfig, Server};
use netdiagnoser::text::ScenarioDir;
use netdiagnoser::{Algorithm, DiagnosticReport};

fn usage() -> ! {
    eprintln!(
        "usage:\n  netdiag-serve run [--listen ADDR | --unix PATH] [--seed N] [--sensors N] \
         [--gen-ases N] [--workers N] [--queue N] [--slo-ms N] [--flight FILE] [--profile FILE]\n  \
         netdiag-serve request (--connect ADDR | --unix PATH) --dir DIR \
         [--algo tomo|nd-edge|nd-bgpigp|nd-lg] [--json] [--explain]\n  \
         netdiag-serve stats (--connect ADDR | --unix PATH) [--watch] [--interval SECS] \
         [--prom] [--window SECS] [--json]\n  \
         netdiag-serve bench\n  \
         netdiag-serve stop (--connect ADDR | --unix PATH)"
    );
    std::process::exit(2)
}

fn get_flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn num_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match get_flag(args, name) {
        None => default,
        Some(raw) => match raw.parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("bad value for {name}: {raw}");
                std::process::exit(2)
            }
        },
    }
}

fn algo_flag(args: &[String]) -> Algorithm {
    match get_flag(args, "--algo") {
        None => Algorithm::default(),
        Some(name) => match name.parse() {
            Ok(algo) => algo,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2)
            }
        },
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("request") => cmd_request(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("bench") if args.len() == 1 => cmd_bench(),
        Some("stop") => cmd_stop(&args[1..]),
        _ => usage(),
    }
}

fn endpoint_from(args: &[String]) -> Endpoint {
    match (get_flag(args, "--listen"), get_flag(args, "--unix")) {
        (Some(_), Some(_)) => {
            eprintln!("--listen and --unix are mutually exclusive");
            std::process::exit(2)
        }
        (None, Some(path)) => Endpoint::Unix(PathBuf::from(path)),
        (addr, None) => Endpoint::Tcp(addr.unwrap_or_else(|| "127.0.0.1:4915".to_owned())),
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let profile_path = get_flag(args, "--profile").map(PathBuf::from);
    let config = ServeConfig {
        seed: num_flag(args, "--seed", 1u64),
        n_sensors: num_flag(args, "--sensors", 10usize),
        gen_ases: num_flag(args, "--gen-ases", 0usize),
        workers: num_flag(args, "--workers", 0usize),
        queue: num_flag(args, "--queue", 0usize),
        telemetry: true,
        slo_micros: num_flag(args, "--slo-ms", 0u64).saturating_mul(1_000),
        flight_path: get_flag(args, "--flight").map(PathBuf::from),
    };
    let endpoint = endpoint_from(args);
    eprintln!(
        "converging baseline (seed {}, {} sensors)...",
        config.seed, config.n_sensors
    );
    let handle = match Server::start(config, endpoint.clone()) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match (&endpoint, handle.tcp_addr()) {
        (_, Some(addr)) => println!("listening {addr}"),
        (Endpoint::Unix(path), None) => println!("listening {}", path.display()),
        (Endpoint::Tcp(addr), None) => println!("listening {addr}"),
    }
    // The registry outlives the handle: snapshot after join so the
    // profile covers the daemon's whole life.
    let live = handle.live();
    handle.join();
    if let Some(path) = profile_path {
        let Some(live) = live else {
            eprintln!("--profile needs the telemetry plane");
            return ExitCode::FAILURE;
        };
        if let Err(e) = std::fs::write(&path, live.snapshot().to_json()) {
            eprintln!("write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn connect(args: &[String]) -> Client {
    let made = match (get_flag(args, "--connect"), get_flag(args, "--unix")) {
        (Some(addr), None) => Client::connect_tcp(&addr),
        (None, Some(path)) => Client::connect_unix(Path::new(&path)),
        _ => usage(),
    };
    match made {
        Ok(client) => client,
        Err(e) => {
            eprintln!("connect: {e}");
            std::process::exit(1)
        }
    }
}

fn cmd_request(args: &[String]) -> ExitCode {
    let Some(dir) = get_flag(args, "--dir").map(PathBuf::from) else {
        usage()
    };
    // Absent files are filled in by the daemon's baseline.
    let scenario = match ScenarioDir::read(&dir) {
        Ok(scenario) => scenario,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let job = DiagnoseJob {
        algo: algo_flag(args),
        after: scenario.after,
        sensors: scenario.sensors,
        before: scenario.before,
        feed: scenario.feed,
        lg: scenario.lg,
        ip2as: scenario.ip2as,
        min_confidence: num_flag(args, "--min-confidence", 0.0f64),
        max_issues: num_flag(args, "--max-issues", 0usize),
        explain: args.iter().any(|a| a == "--explain"),
    };
    let mut client = connect(args);
    let response = match client.request_line(&write_diagnose_request(1, &job)) {
        Ok(response) => response,
        Err(e) => {
            eprintln!("request: {e}");
            return ExitCode::FAILURE;
        }
    };
    let v = match parse(&response) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bad response JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !matches!(v.get("ok"), Some(Json::Bool(true))) {
        let message = v.get("error").and_then(Json::as_str).unwrap_or("unknown");
        eprintln!("daemon error: {message}");
        return ExitCode::FAILURE;
    }
    if args.iter().any(|a| a == "--json") {
        let report = v
            .get("report")
            .ok_or_else(|| "response carried no report".to_owned())
            .and_then(DiagnosticReport::from_json_value);
        match report {
            Ok(report) => println!("{}", report.to_json()),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match v.get("text").and_then(Json::as_str) {
            Some(text) => print!("{text}"),
            None => {
                eprintln!("response carried no text");
                return ExitCode::FAILURE;
            }
        }
    }
    if job.explain {
        if let Some(narrative) = v.get("explain").and_then(Json::as_str) {
            println!("--- explain ---");
            print!("{narrative}");
        }
    }
    ExitCode::SUCCESS
}

/// Number at a dotted path into the stats response, e.g.
/// `["stats", "requests"]`.
fn stat_u64(v: &Json, path: &[&str]) -> Option<u64> {
    let mut node = v;
    for key in path {
        node = node.get(key)?;
    }
    node.as_u64()
}

fn stat_f64(v: &Json, path: &[&str]) -> Option<f64> {
    let mut node = v;
    for key in path {
        node = node.get(key)?;
    }
    match node {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

/// Renders one stats response as a short human summary (the check.sh
/// smoke greps `health ready` and the requests line out of this).
fn print_stats_summary(v: &Json) {
    let health = v.get("health").and_then(Json::as_str).unwrap_or("unknown");
    let uptime = stat_u64(v, &["uptime_secs"]).unwrap_or(0);
    println!("health {health}  uptime {uptime}s");
    println!(
        "requests {} total, {} errors, {} diagnoses, {} connections, {} flight dumps",
        stat_u64(v, &["stats", "requests"]).unwrap_or(0),
        stat_u64(v, &["stats", "errors"]).unwrap_or(0),
        stat_u64(v, &["stats", "diagnoses"]).unwrap_or(0),
        stat_u64(v, &["stats", "connections"]).unwrap_or(0),
        stat_u64(v, &["stats", "flight_dumps"]).unwrap_or(0),
    );
    if let Some(current) = stat_u64(
        v,
        &["report", "gauges", names::SERVE_QUEUE_DEPTH, "current"],
    ) {
        println!(
            "queue depth {current} now, {} high-water",
            stat_u64(
                v,
                &["report", "gauges", names::SERVE_QUEUE_DEPTH, "high_water"]
            )
            .unwrap_or(current),
        );
    }
    if let Some(secs) = stat_f64(v, &["window", "secs"]) {
        let rate = stat_f64(v, &["window", "rates", names::SERVE_REQUESTS]).unwrap_or(0.0);
        print!("window {secs:.1}s: {rate:.2} req/s");
        let span = &["window", "spans", names::SERVE_REQUEST];
        if let Some(count) = stat_u64(v, &[span[0], span[1], span[2], "count"]) {
            let us = |key: &str| {
                stat_u64(v, &[span[0], span[1], span[2], key]).unwrap_or(0) as f64 / 1_000.0
            };
            print!(
                ", request p50 {:.0}us p90 {:.0}us p99 {:.0}us ({count} served)",
                us("p50_ns"),
                us("p90_ns"),
                us("p99_ns"),
            );
        }
        println!();
    }
}

fn cmd_stats(args: &[String]) -> ExitCode {
    let prom = args.iter().any(|a| a == "--prom");
    let raw = args.iter().any(|a| a == "--json");
    let watch = args.iter().any(|a| a == "--watch");
    let interval = num_flag(args, "--interval", 2u64).max(1);
    let window = num_flag(args, "--window", 10u64);
    let line = format!("{{\"op\":\"stats\",\"id\":1,\"prom\":{prom},\"window\":{window}}}");
    let mut client = connect(args);
    loop {
        let response = match client.request_line(&line) {
            Ok(response) => response,
            Err(e) => {
                eprintln!("stats: {e}");
                return ExitCode::FAILURE;
            }
        };
        let v = match parse(&response) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("bad stats JSON: {e}");
                return ExitCode::FAILURE;
            }
        };
        if !matches!(v.get("ok"), Some(Json::Bool(true))) {
            eprintln!("daemon error: {response}");
            return ExitCode::FAILURE;
        }
        if raw {
            println!("{response}");
        } else if prom {
            match v.get("prom").and_then(Json::as_str) {
                Some(text) => print!("{text}"),
                None => {
                    eprintln!("daemon serves no Prometheus exposition (telemetry off?)");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            print_stats_summary(&v);
        }
        if !watch {
            return ExitCode::SUCCESS;
        }
        println!("---");
        std::thread::sleep(Duration::from_secs(interval));
    }
}

fn cmd_bench() -> ExitCode {
    eprintln!(
        "bench: {} telemetry on/off pairs of {} clients x {} requests",
        bench::PAIRS,
        bench::CLIENTS,
        bench::REQUESTS
    );
    match bench::compare() {
        Ok(s) => {
            // bench.sh parses the ratio at the end of this line for the
            // overhead gate: the median of the per-pair on/off ratios.
            println!(
                "telemetry-compare: {} pairs, quartiles {:.3}-{:.3}, median pair on {:.1} req/s, \
                 off {:.1} req/s, ratio {:.3}",
                s.pairs, s.q1, s.q3, s.on_req_per_sec, s.off_req_per_sec, s.ratio
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_stop(args: &[String]) -> ExitCode {
    let mut client = connect(args);
    match client.request_line(r#"{"op":"shutdown"}"#) {
        Ok(response) => {
            println!("{response}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("stop: {e}");
            ExitCode::FAILURE
        }
    }
}
