//! End-to-end daemon tests: protocol ops over a loopback socket, byte
//! parity with the in-process facade, and concurrent clients.

use std::sync::Arc;

use netdiag_obs::json::{parse, Json};
use netdiag_serve::proto::{write_diagnose_request, DiagnoseJob, MAX_REQUEST_BYTES};
use netdiag_serve::{Baseline, Client, Endpoint, ServeConfig, Server};
use netdiagnoser::text::parse_snapshot;
use netdiagnoser::{
    Algorithm, DiagnosticReport, NetDiagnoser, Observations, REPORT_SCHEMA_VERSION,
};

fn test_config() -> ServeConfig {
    ServeConfig {
        seed: 7,
        n_sensors: 6,
        workers: 2,
        ..Default::default()
    }
}

fn start_daemon() -> (netdiag_serve::ServerHandle, Arc<Baseline>, String) {
    let baseline = Arc::new(Baseline::prepare(&test_config()));
    let handle = Server::start_with_baseline(
        test_config(),
        Endpoint::Tcp("127.0.0.1:0".to_owned()),
        Arc::clone(&baseline),
    )
    .expect("daemon binds a loopback port");
    let addr = handle
        .tcp_addr()
        .expect("TCP endpoint resolves")
        .to_string();
    (handle, baseline, addr)
}

#[test]
fn ping_stats_and_shutdown_round_trip() {
    let (handle, _baseline, addr) = start_daemon();
    let mut client = Client::connect_tcp(&addr).expect("client connects");

    let pong = client
        .request_line(r#"{"op":"ping","id":9}"#)
        .expect("ping answered");
    let v = parse(&pong).expect("ping response is JSON");
    assert_eq!(v.get("id").and_then(Json::as_u64), Some(9));
    assert!(matches!(v.get("pong"), Some(Json::Bool(true))));

    let stats = client
        .request_line(r#"{"op":"stats","id":10}"#)
        .expect("stats answered");
    let v = parse(&stats).expect("stats response is JSON");
    let stats = v.get("stats").expect("stats object present");
    assert!(stats.get("requests").and_then(Json::as_u64).unwrap_or(0) >= 1);

    let bye = client
        .request_line(r#"{"op":"shutdown","id":11}"#)
        .expect("shutdown answered");
    let v = parse(&bye).expect("shutdown response is JSON");
    assert!(matches!(v.get("stopping"), Some(Json::Bool(true))));
    handle.join();
}

#[test]
fn diagnose_reports_match_the_in_process_facade_byte_for_byte() {
    // Full telemetry plane mounted (the default) plus a flight recorder
    // with a comfortable SLO: per-phase timing and tail sampling must
    // not perturb diagnosis output by a single byte.
    let dir = std::env::temp_dir().join(format!("netdiag-parity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir for the flight log");
    let flight_path = dir.join("flight.jsonl");
    let baseline = Arc::new(Baseline::prepare(&test_config()));
    let handle = Server::start_with_baseline(
        ServeConfig {
            slo_micros: 60_000_000,
            flight_path: Some(flight_path.clone()),
            ..test_config()
        },
        Endpoint::Tcp("127.0.0.1:0".to_owned()),
        Arc::clone(&baseline),
    )
    .expect("daemon binds a loopback port");
    let addr = handle
        .tcp_addr()
        .expect("TCP endpoint resolves")
        .to_string();
    let scenario = baseline.sample_scenario(3).expect("scenario sampled");

    // What the daemon says.
    let job = DiagnoseJob {
        algo: Algorithm::NdBgpIgp,
        after: scenario.after.clone(),
        feed: Some(scenario.feed.clone()),
        ..Default::default()
    };
    let mut client = Client::connect_tcp(&addr).expect("client connects");
    let response = client
        .request_line(&write_diagnose_request(5, &job))
        .expect("diagnose answered");
    let v = parse(&response).expect("diagnose response is JSON");
    assert!(matches!(v.get("ok"), Some(Json::Bool(true))), "{response}");
    assert_eq!(v.get("id").and_then(Json::as_u64), Some(5));
    let daemon_text = v
        .get("text")
        .and_then(Json::as_str)
        .expect("text rendering present")
        .to_owned();
    let report = DiagnosticReport::from_json_value(v.get("report").expect("report present"))
        .expect("report parses against the current schema");
    assert_eq!(report.schema, REPORT_SCHEMA_VERSION);

    // What the batch facade says on the same inputs.
    let obs = Observations {
        sensors: baseline.sensors().to_vec(),
        before: baseline.before().clone(),
        after: parse_snapshot(&scenario.after).expect("after parses"),
    };
    let feed = netdiagnoser::text::parse_feed(&scenario.feed).expect("feed parses");
    let local = NetDiagnoser::builder()
        .algorithm(Algorithm::NdBgpIgp)
        .routing_feed(feed)
        .looking_glass(baseline.looking_glass())
        .build()
        .report(&obs, &baseline.ip_to_as())
        .expect("in-process diagnosis runs");
    assert_eq!(daemon_text, local.to_string());
    assert_eq!(report.to_json(), local.to_json());
    assert_eq!(
        handle.flight_dumps(),
        Some(0),
        "a 60s SLO must not tail-sample a fast request"
    );
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_all_get_valid_reports() {
    let (handle, baseline, addr) = start_daemon();
    let scenario = baseline.sample_scenario(11).expect("scenario sampled");
    let mut threads = Vec::new();
    for i in 0..4u64 {
        let addr = addr.clone();
        let job = DiagnoseJob {
            after: scenario.after.clone(),
            feed: Some(scenario.feed.clone()),
            ..Default::default()
        };
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect_tcp(&addr).expect("client connects");
            for round in 0..3u64 {
                let id = i * 100 + round;
                let response = client
                    .request_line(&write_diagnose_request(id, &job))
                    .expect("diagnose answered");
                let v = parse(&response).expect("response is JSON");
                assert!(matches!(v.get("ok"), Some(Json::Bool(true))), "{response}");
                assert_eq!(v.get("id").and_then(Json::as_u64), Some(id));
                DiagnosticReport::from_json_value(v.get("report").expect("report present"))
                    .expect("report parses");
            }
        }));
    }
    for thread in threads {
        thread.join().expect("client thread succeeds");
    }
    handle.stop();
}

#[test]
fn explain_requests_carry_a_narrative() {
    let (handle, baseline, addr) = start_daemon();
    let scenario = baseline.sample_scenario(3).expect("scenario sampled");
    let job = DiagnoseJob {
        after: scenario.after,
        feed: Some(scenario.feed),
        explain: true,
        ..Default::default()
    };
    let mut client = Client::connect_tcp(&addr).expect("client connects");
    let response = client
        .request_line(&write_diagnose_request(1, &job))
        .expect("diagnose answered");
    let v = parse(&response).expect("response is JSON");
    assert!(matches!(v.get("ok"), Some(Json::Bool(true))), "{response}");
    let narrative = v
        .get("explain")
        .and_then(Json::as_str)
        .expect("narrative attached");
    assert!(!narrative.is_empty());
    handle.stop();
}

#[test]
fn bad_requests_get_structured_errors_and_the_daemon_survives() {
    let (handle, _baseline, addr) = start_daemon();
    let mut client = Client::connect_tcp(&addr).expect("client connects");
    for line in [
        "not json at all",
        r#"{"op":"diagnose","id":2}"#,
        r#"{"op":"diagnose","id":3,"after":"garbage input"}"#,
    ] {
        let response = client.request_line(line).expect("error answered");
        let v = parse(&response).expect("error response is JSON");
        assert!(matches!(v.get("ok"), Some(Json::Bool(false))), "{response}");
        assert!(v.get("error").and_then(Json::as_str).is_some());
    }
    // The connection still works afterwards.
    let pong = client
        .request_line(r#"{"op":"ping","id":4}"#)
        .expect("ping after errors");
    assert!(matches!(
        parse(&pong).expect("JSON").get("pong"),
        Some(Json::Bool(true))
    ));
    // A line one byte over the cap gets one error, then the daemon hangs
    // up instead of buffering it.
    let response = client
        .request_line(&"x".repeat(MAX_REQUEST_BYTES + 1))
        .expect("over-long line answered");
    let v = parse(&response).expect("error response is JSON");
    assert!(matches!(v.get("ok"), Some(Json::Bool(false))), "{response}");
    assert!(v
        .get("error")
        .and_then(Json::as_str)
        .expect("error message")
        .contains("exceeds"));
    assert!(
        client.request_line(r#"{"op":"ping","id":5}"#).is_err(),
        "the connection is closed after an over-long line"
    );
    // A fresh connection finds the daemon ready.
    let health = Client::connect_tcp(&addr)
        .expect("client reconnects")
        .request_line(r#"{"op":"health","id":6}"#)
        .expect("health answered");
    assert_eq!(
        parse(&health)
            .expect("JSON")
            .get("health")
            .and_then(Json::as_str),
        Some("ready")
    );
    handle.stop();
}

/// Open descriptors of this process.
#[cfg(target_os = "linux")]
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs lists this process's descriptors")
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn one_shot_clients_leak_no_descriptors() {
    // Descriptors the other tests in this binary may hold at any instant,
    // plus handler threads still closing the last few connections.
    const SLACK: usize = 64;
    let (handle, _baseline, addr) = start_daemon();
    let before = open_fds();
    for id in 0..10_000u64 {
        let mut client = Client::connect_tcp(&addr).expect("client connects");
        let health = client
            .request_line(&format!(r#"{{"op":"health","id":{id}}}"#))
            .expect("health answered");
        assert!(health.contains("ready"), "{health}");
    }
    // Handlers close their sockets just after the client hangs up; give
    // the last ones a moment.
    let mut after = open_fds();
    for _ in 0..100 {
        if after <= before + SLACK {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        after = open_fds();
    }
    assert!(
        after <= before + SLACK,
        "10,000 one-shot clients left {after} descriptors open (was {before})"
    );
    handle.stop();
}

#[test]
fn unix_socket_endpoint_serves_and_cleans_up() {
    let dir = std::env::temp_dir().join(format!("netdiag-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir for the socket");
    let path = dir.join("daemon.sock");
    let handle = Server::start(test_config(), Endpoint::Unix(path.clone()))
        .expect("daemon binds a unix socket");
    let mut client = Client::connect_unix(&path).expect("client connects over unix");
    let pong = client
        .request_line(r#"{"op":"ping","id":1}"#)
        .expect("ping answered");
    assert!(matches!(
        parse(&pong).expect("JSON").get("pong"),
        Some(Json::Bool(true))
    ));
    handle.stop();
    assert!(!path.exists(), "socket file removed on shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn health_and_stats_expose_the_live_plane() {
    let (handle, baseline, addr) = start_daemon();
    let scenario = baseline.sample_scenario(3).expect("scenario sampled");
    let mut client = Client::connect_tcp(&addr).expect("client connects");

    // Readiness first: cheap, no report attached.
    let health = client
        .request_line(r#"{"op":"health","id":1}"#)
        .expect("health answered");
    let v = parse(&health).expect("health response is JSON");
    assert_eq!(v.get("health").and_then(Json::as_str), Some("ready"));
    assert!(v.get("uptime_secs").and_then(Json::as_u64).is_some());

    // Run one diagnosis so the live report has something to say.
    let job = DiagnoseJob {
        after: scenario.after,
        feed: Some(scenario.feed),
        ..Default::default()
    };
    let response = client
        .request_line(&write_diagnose_request(2, &job))
        .expect("diagnose answered");
    assert!(response.contains("\"ok\":true"), "{response}");

    let stats = client
        .request_line(r#"{"op":"stats","id":3,"prom":true}"#)
        .expect("stats answered");
    let v = parse(&stats).expect("stats response is JSON");
    assert_eq!(v.get("health").and_then(Json::as_str), Some("ready"));
    let report = v.get("report").expect("live report attached");
    let counter = |name: &str| {
        report
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    assert!(counter("serve.requests") >= 2, "{stats}");
    assert_eq!(counter("serve.errors"), 0, "{stats}");
    // Per-phase spans and the queue gauge made it into the report.
    let spans = report.get("spans").expect("spans section");
    for phase in [
        "serve.request",
        "serve.phase.queue",
        "serve.phase.restore",
        "serve.phase.diagnose",
        "serve.phase.render",
    ] {
        assert!(spans.get(phase).is_some(), "span {phase} missing: {stats}");
    }
    assert!(
        report
            .get("gauges")
            .and_then(|g| g.get("serve.queue_depth"))
            .and_then(|g| g.get("high_water"))
            .and_then(Json::as_u64)
            .is_some(),
        "{stats}"
    );
    // Prometheus exposition rides along as an escaped string.
    let prom = v
        .get("prom")
        .and_then(Json::as_str)
        .expect("prom text attached");
    assert!(prom.contains("netdiag_serve_requests_total"));
    assert!(prom.contains("netdiag_serve_queue_depth"));
    handle.stop();
}

#[test]
fn slo_zero_flight_dumps_every_request_with_phases() {
    let dir = std::env::temp_dir().join(format!("netdiag-flight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir for the flight log");
    let flight_path = dir.join("flight.jsonl");
    let baseline = Arc::new(Baseline::prepare(&test_config()));
    let handle = Server::start_with_baseline(
        ServeConfig {
            // SLO of zero: every request breaches, every request dumps.
            slo_micros: 0,
            flight_path: Some(flight_path.clone()),
            ..test_config()
        },
        Endpoint::Tcp("127.0.0.1:0".to_owned()),
        Arc::clone(&baseline),
    )
    .expect("daemon binds a loopback port");
    let addr = handle
        .tcp_addr()
        .expect("TCP endpoint resolves")
        .to_string();
    let scenario = baseline.sample_scenario(3).expect("scenario sampled");
    let job = DiagnoseJob {
        after: scenario.after,
        feed: Some(scenario.feed),
        ..Default::default()
    };
    let mut client = Client::connect_tcp(&addr).expect("client connects");
    let response = client
        .request_line(&write_diagnose_request(77, &job))
        .expect("diagnose answered");
    assert!(response.contains("\"ok\":true"), "{response}");
    assert_eq!(handle.flight_dumps(), Some(1), "exactly one dump");
    handle.stop();

    let log = std::fs::read_to_string(&flight_path).expect("flight log written");
    let lines: Vec<&str> = log.lines().collect();
    assert_eq!(lines.len(), 1, "one request, one JSONL line: {log}");
    let dump = parse(lines[0]).expect("dump line is JSON");
    assert_eq!(dump.get("request").and_then(Json::as_u64), Some(77));
    assert!(dump.get("latency_us").and_then(Json::as_u64).is_some());
    let phases = dump.get("phases").expect("per-phase timings attached");
    for phase in ["queue_us", "restore_us", "diagnose_us", "render_us"] {
        assert!(
            phases.get(phase).and_then(Json::as_u64).is_some(),
            "phase {phase} missing: {}",
            lines[0]
        );
    }
    // The dump embeds the request's own causal trace (JSONL, escaped).
    let trace = dump
        .get("trace")
        .and_then(Json::as_str)
        .expect("trace attached");
    assert!(trace.contains("\"name\""), "trace events present: {trace}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn strict_algorithms_error_without_a_feed() {
    // nd-bgpigp with no uploaded feed runs against an EMPTY default
    // feed (lenient daemon default), but still succeeds — the error
    // path is a malformed feed.
    let (handle, baseline, addr) = start_daemon();
    let scenario = baseline.sample_scenario(3).expect("scenario sampled");
    let job = DiagnoseJob {
        algo: Algorithm::NdBgpIgp,
        after: scenario.after,
        feed: Some("not a feed line".to_owned()),
        ..Default::default()
    };
    let mut client = Client::connect_tcp(&addr).expect("client connects");
    let response = client
        .request_line(&write_diagnose_request(1, &job))
        .expect("answered");
    let v = parse(&response).expect("response is JSON");
    assert!(matches!(v.get("ok"), Some(Json::Bool(false))), "{response}");
    assert!(v
        .get("error")
        .and_then(Json::as_str)
        .expect("error message")
        .contains("feed"));
    handle.stop();
}

/// Uploads go through the scenario parse `netdiag diagnose` runs: a
/// corrupt upload of any of the six files is refused with that parse's
/// message, which names the file and the line.
#[test]
fn corrupt_uploads_name_their_file() {
    let (handle, baseline, addr) = start_daemon();
    let scenario = baseline.sample_scenario(3).expect("scenario sampled");
    let job = DiagnoseJob {
        algo: Algorithm::NdLg,
        after: scenario.after,
        feed: Some(scenario.feed),
        ..Default::default()
    };
    let garbage = || Some("garbage-line\n".to_owned());
    let mut client = Client::connect_tcp(&addr).expect("client connects");
    for (file, corrupt) in [
        (
            "sensors.txt",
            DiagnoseJob {
                sensors: garbage(),
                ..job.clone()
            },
        ),
        (
            "before.txt",
            DiagnoseJob {
                before: garbage(),
                ..job.clone()
            },
        ),
        (
            "after.txt",
            DiagnoseJob {
                after: "garbage-line\n".to_owned(),
                ..job.clone()
            },
        ),
        (
            "feed.txt",
            DiagnoseJob {
                feed: garbage(),
                ..job.clone()
            },
        ),
        (
            "lg.txt",
            DiagnoseJob {
                lg: garbage(),
                ..job.clone()
            },
        ),
        (
            "ip2as.txt",
            DiagnoseJob {
                ip2as: garbage(),
                ..job.clone()
            },
        ),
    ] {
        let response = client
            .request_line(&write_diagnose_request(1, &corrupt))
            .expect("answered");
        let v = parse(&response).expect("response is JSON");
        assert!(matches!(v.get("ok"), Some(Json::Bool(false))), "{response}");
        let error = v
            .get("error")
            .and_then(Json::as_str)
            .expect("error message");
        assert!(
            error.starts_with(&format!("{file}: parse error: line 1: ")),
            "{file}: {error}"
        );
    }
    // The uncorrupted job runs.
    let response = client
        .request_line(&write_diagnose_request(2, &job))
        .expect("answered");
    assert!(response.contains("\"ok\":true"), "{response}");
    handle.stop();
}

/// The `stats` summary reads the daemon's one set of counters, the live
/// registry: with telemetry on it reports connections, requests and
/// errors as recorded; with telemetry off only the daemon's own diagnose
/// and flight-dump counts remain.
#[test]
fn stats_summary_reads_the_live_counters() {
    for telemetry in [true, false] {
        let baseline = Arc::new(Baseline::prepare(&test_config()));
        let handle = Server::start_with_baseline(
            ServeConfig {
                telemetry,
                ..test_config()
            },
            Endpoint::Tcp("127.0.0.1:0".to_owned()),
            baseline,
        )
        .expect("daemon binds a loopback port");
        let addr = handle.tcp_addr().expect("TCP endpoint resolves");
        let mut client = Client::connect_tcp(&addr.to_string()).expect("client connects");
        client.request_line("not json").expect("error answered");
        let stats = client
            .request_line(r#"{"op":"stats","id":1}"#)
            .expect("stats answered");
        let v = parse(&stats).expect("stats response is JSON");
        let Some(Json::Obj(fields)) = v.get("stats") else {
            panic!("stats object missing: {stats}");
        };
        let summary: Vec<(&str, u64)> = fields
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_u64().expect("numeric stat")))
            .collect();
        let expected: &[(&str, u64)] = if telemetry {
            &[
                ("connections", 1),
                ("requests", 2),
                ("errors", 1),
                ("diagnoses", 0),
                ("flight_dumps", 0),
            ]
        } else {
            &[("diagnoses", 0), ("flight_dumps", 0)]
        };
        assert_eq!(summary, expected, "telemetry {telemetry}: {stats}");
        handle.stop();
    }
}

/// Past its one slot and one waiter the daemon refuses a diagnosis with
/// the overload error, counts the refusal as an error and not as a
/// diagnosis, and stays ready. How many requests are refused depends on
/// scheduling; the accounting does not.
#[test]
fn overload_is_refused_and_counted_apart_from_diagnoses() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 4;
    let baseline = Arc::new(Baseline::prepare(&test_config()));
    let handle = Server::start_with_baseline(
        ServeConfig {
            workers: 1,
            queue: 1,
            ..test_config()
        },
        Endpoint::Tcp("127.0.0.1:0".to_owned()),
        Arc::clone(&baseline),
    )
    .expect("daemon binds a loopback port");
    let addr = handle
        .tcp_addr()
        .expect("TCP endpoint resolves")
        .to_string();
    let scenario = baseline.sample_scenario(3).expect("scenario sampled");
    let line = write_diagnose_request(
        1,
        &DiagnoseJob {
            algo: Algorithm::NdLg,
            after: scenario.after,
            feed: Some(scenario.feed),
            explain: true,
            ..Default::default()
        },
    );
    let start = std::sync::Barrier::new(CLIENTS);
    let (reports, refusals) = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut client = Client::connect_tcp(&addr).expect("client connects");
                    start.wait();
                    let (mut reports, mut refusals) = (0u64, 0u64);
                    for _ in 0..ROUNDS {
                        let response = client.request_line(&line).expect("diagnose answered");
                        let v = parse(&response).expect("response is JSON");
                        match v.get("error").and_then(Json::as_str) {
                            Some(error) => {
                                assert_eq!(error, "server overloaded: diagnosis queue full");
                                refusals += 1;
                            }
                            None => {
                                assert!(
                                    matches!(v.get("ok"), Some(Json::Bool(true))),
                                    "{response}"
                                );
                                DiagnosticReport::from_json_value(
                                    v.get("report").expect("report present"),
                                )
                                .expect("report parses");
                                reports += 1;
                            }
                        }
                    }
                    (reports, refusals)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread succeeds"))
            .fold((0, 0), |(r, f), (cr, cf)| (r + cr, f + cf))
    });
    assert_eq!(reports + refusals, (CLIENTS * ROUNDS) as u64);
    assert!(reports >= 1, "the held slot always serves someone");

    let mut client = Client::connect_tcp(&addr).expect("client connects");
    let stats = client
        .request_line(r#"{"op":"stats","id":2}"#)
        .expect("stats answered");
    let v = parse(&stats).expect("stats response is JSON");
    let summary = v.get("stats").expect("stats object present");
    let stat = |name: &str| summary.get(name).and_then(Json::as_u64);
    assert_eq!(stat("diagnoses"), Some(reports), "{stats}");
    assert_eq!(stat("errors"), Some(refusals), "{stats}");
    let health = client
        .request_line(r#"{"op":"health","id":3}"#)
        .expect("health answered");
    assert_eq!(
        parse(&health)
            .expect("JSON")
            .get("health")
            .and_then(Json::as_str),
        Some("ready")
    );
    handle.stop();
}
