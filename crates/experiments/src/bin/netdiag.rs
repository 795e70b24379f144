//! `netdiag` — command-line front end to the NetDiagnoser reproduction.
//!
//! ```text
//! netdiag simulate --out DIR [--seed N] [--sensors N] [--failure SPEC]
//!                  [--blocked FRAC] [--lg FRAC] [--topology FILE]
//!     SPEC: links:<x> | router | misconfig | misconfig+link
//!     Generates the 165-AS topology — or loads one from FILE in the
//!     plain-text format (`netdiag_topology::text`) — injects a failure,
//!     and writes the
//!     troubleshooter's view to DIR: sensors.txt, before.txt, after.txt,
//!     feed.txt, lg.txt, ip2as.txt — plus truth.txt (ground truth, for
//!     checking answers).
//!
//! netdiag diagnose --dir DIR [--algo tomo|nd-edge|nd-bgpigp|nd-lg]
//!                  [--json] [--min-confidence F] [--max-issues N]
//!     Reads a scenario directory and prints the diagnosis report —
//!     the flat text by default, or the versioned `DiagnosticReport`
//!     JSON with `--json`. The threshold flags feed the report's
//!     `DiagnosticsConfig` (drop weak findings, cap the issue list).
//!
//! netdiag explain TRACE.jsonl [--placement P] [--trial N] [--algo A]
//!     Replays a `--trace` event log into a per-hypothesis causal
//!     narrative for one trial.
//!
//! netdiag trials [--placements N] [--failures N] [--seed N]
//!                [--failure SPEC] [--blocked FRAC] [--lg FRAC]
//!                [--threads N]
//!     Runs the paper's placement x failure experiment loop on the trial
//!     worker pool and prints per-algorithm accuracy means. `--threads`
//!     caps the pool (default: available parallelism).
//!
//! netdiag gen --ases N [--seed N] [--tier1 N] [--transit-frac F]
//!             [--multihoming F] [--peering F] [--converge] [--threads N]
//!             [--json]
//!     Generates a seeded internet-scale topology (power-law provider
//!     degrees, tier-1 clique, Gao-Rexford tiering) and prints its shape.
//!     With `--converge` it builds the simulator, converges the full RIB
//!     (sharded over `--threads` workers when > 1) and reports wall
//!     times, message counts and peak RSS — `--json` emits the same as
//!     one machine-readable line (scripts/check.sh pins its counts).
//! ```
//!
//! `simulate` and `diagnose` accept `--profile FILE` (instrumentation
//! counters and phase timings as a JSON run report), `--trace FILE`
//! (structured JSONL event log, replayable with `explain`) and
//! `--trace-chrome FILE` (the same events as Chrome-trace JSON, loadable
//! in Perfetto / `chrome://tracing`).

// A runnable demo talks to its user on stdout.
#![allow(clippy::print_stdout)]
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use netdiag_experiments::bridge::{observations, routing_feed};
use netdiag_experiments::explain::ExplainFilter;
use netdiag_experiments::runner::{prepare_with, RunConfig};
use netdiag_experiments::sampling::{sample_failure, FailureSpec};
use netdiag_netsim::{apply_failure, looking_glass_query, probe_mesh};
use netdiag_obs::{InMemoryRecorder, Recorder, RecorderHandle, TraceRecorder};
use netdiagnoser::text::{parse_feed, parse_observations, RecordedIpToAs, RecordedLookingGlass};
use netdiagnoser::{Algorithm, DiagnosticsConfig, NetDiagnoser};

fn usage() -> ! {
    eprintln!(
        "usage:\n  netdiag simulate --out DIR [--seed N] [--sensors N] \
         [--failure links:<x>|router|misconfig|misconfig+link] [--blocked FRAC] [--lg FRAC] \
         [--topology FILE] [--profile FILE] [--trace FILE] [--trace-chrome FILE]\n  \
         netdiag diagnose --dir DIR [--algo tomo|nd-edge|nd-bgpigp|nd-lg] [--json] \
         [--min-confidence F] [--max-issues N] [--profile FILE] \
         [--trace FILE] [--trace-chrome FILE]\n  \
         netdiag explain TRACE.jsonl [--placement P] [--trial N] \
         [--algo tomo|nd-edge|nd-bgpigp|nd-lg]\n  \
         netdiag trials [--placements N] [--failures N] [--seed N] \
         [--failure links:<x>|router|misconfig|misconfig+link] [--blocked FRAC] [--lg FRAC] \
         [--threads N]\n  \
         netdiag gen --ases N [--seed N] [--tier1 N] [--transit-frac F] [--multihoming F] \
         [--peering F] [--converge] [--threads N] [--json]"
    );
    std::process::exit(2)
}

/// Output sinks selected on the command line.
struct RunSinks {
    profile: Option<(PathBuf, Arc<InMemoryRecorder>)>,
    tracer: Option<Arc<TraceRecorder>>,
    trace_path: Option<PathBuf>,
    chrome_path: Option<PathBuf>,
}

/// The recorder for a run: a fanout of the sinks selected by `--profile`,
/// `--trace` and `--trace-chrome`, or the free no-op when none was given.
fn run_recorder(args: &[String]) -> (RecorderHandle, RunSinks) {
    let trace_path = get_flag(args, "--trace").map(PathBuf::from);
    let chrome_path = get_flag(args, "--trace-chrome").map(PathBuf::from);
    let profile = get_flag(args, "--profile")
        .map(|path| (PathBuf::from(path), Arc::new(InMemoryRecorder::new())));
    let tracer =
        (trace_path.is_some() || chrome_path.is_some()).then(|| Arc::new(TraceRecorder::new()));
    let mut sinks: Vec<Arc<dyn Recorder>> = Vec::new();
    if let Some((_, sink)) = &profile {
        sinks.push(Arc::clone(sink) as Arc<dyn Recorder>);
    }
    if let Some(t) = &tracer {
        sinks.push(Arc::clone(t) as Arc<dyn Recorder>);
    }
    let handle = if sinks.is_empty() {
        RecorderHandle::noop()
    } else {
        RecorderHandle::fanout(sinks)
    };
    (
        handle,
        RunSinks {
            profile,
            tracer,
            trace_path,
            chrome_path,
        },
    )
}

/// Writes whichever run reports and trace exports were requested.
fn write_outputs(sinks: RunSinks) -> Result<(), ExitCode> {
    fn write(path: &Path, contents: String) -> Result<(), ExitCode> {
        fs::write(path, contents).map_err(|e| {
            eprintln!("cannot write {}: {e}", path.display());
            ExitCode::FAILURE
        })
    }
    if let Some((path, sink)) = &sinks.profile {
        write(path, sink.report().to_json())?;
    }
    if let Some(t) = &sinks.tracer {
        if t.dropped() > 0 {
            eprintln!(
                "warning: trace ring overflowed, {} oldest events dropped",
                t.dropped()
            );
        }
        if let Some(path) = &sinks.trace_path {
            write(path, t.to_jsonl())?;
        }
        if let Some(path) = &sinks.chrome_path {
            write(path, t.to_chrome_trace())?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("simulate") => simulate(args.collect()),
        Some("diagnose") => diagnose(args.collect()),
        Some("explain") => explain_cmd(args.collect()),
        Some("trials") => trials(args.collect()),
        Some("gen") => gen_cmd(args.collect()),
        _ => usage(),
    }
}

fn get_flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parses a `--failure` value (`links:<x>`, `router`, `misconfig`,
/// `misconfig+link`); `None` means the default single link failure.
fn parse_failure_spec(value: Option<&str>) -> FailureSpec {
    match value {
        None => FailureSpec::Links(1),
        Some("router") => FailureSpec::Router,
        Some("misconfig") => FailureSpec::Misconfig,
        Some("misconfig+link") => FailureSpec::MisconfigPlusLink,
        Some(s) => match s.strip_prefix("links:").and_then(|x| x.parse().ok()) {
            Some(x) => FailureSpec::Links(x),
            None => usage(),
        },
    }
}

/// `netdiag trials`: the placement x failure experiment loop on the
/// worker pool, summarised as per-algorithm accuracy means.
fn trials(args: Vec<String>) -> ExitCode {
    let parse_or_usage = |flag: &str, default: usize| -> usize {
        get_flag(&args, flag).map_or(default, |v| v.parse().unwrap_or_else(|_| usage()))
    };
    let seed: u64 = get_flag(&args, "--seed").map_or(1, |v| v.parse().unwrap_or_else(|_| usage()));
    let blocked: f64 =
        get_flag(&args, "--blocked").map_or(0.0, |v| v.parse().unwrap_or_else(|_| usage()));
    let lg_frac: f64 =
        get_flag(&args, "--lg").map_or(1.0, |v| v.parse().unwrap_or_else(|_| usage()));
    let fc = netdiag_experiments::figures::FigureConfig {
        placements: parse_or_usage("--placements", 10),
        failures_per_placement: parse_or_usage("--failures", 100),
        base_seed: seed,
        topology_seed: seed,
        threads: parse_or_usage("--threads", 0),
        ..Default::default()
    };
    let cfg = RunConfig {
        failure: parse_failure_spec(get_flag(&args, "--failure").as_deref()),
        blocked_frac: blocked,
        lg_frac,
        ..Default::default()
    };
    let net = fc.internet();
    let t0 = std::time::Instant::now();
    let trials = netdiag_experiments::figures::collect_trials(&net, &cfg, &fc);
    let elapsed = t0.elapsed();
    if trials.is_empty() {
        eprintln!("no unreachability-causing failures could be drawn");
        return ExitCode::FAILURE;
    }
    let mean = |f: &dyn Fn(&netdiag_experiments::runner::TrialResult) -> Option<f64>| -> String {
        let vals: Vec<f64> = trials.iter().filter_map(f).collect();
        if vals.is_empty() {
            "-".into()
        } else {
            format!("{:.3}", vals.iter().sum::<f64>() / vals.len() as f64)
        }
    };
    println!(
        "{} trials ({} placements x {} failures) in {elapsed:.1?}",
        trials.len(),
        fc.placements,
        fc.failures_per_placement
    );
    println!("algorithm   sensitivity  specificity");
    for (name, get) in [
        (
            "tomo",
            &(|t: &netdiag_experiments::runner::TrialResult| Some(t.tomo))
                as &dyn Fn(&netdiag_experiments::runner::TrialResult) -> Option<_>,
        ),
        ("nd-edge", &|t| Some(t.nd_edge)),
        ("nd-bgpigp", &|t| Some(t.nd_bgpigp)),
        ("nd-lg", &|t| t.nd_lg),
    ] {
        let sens = mean(&|t| get(t).map(|e| e.sensitivity));
        let spec = mean(&|t| get(t).map(|e| e.specificity));
        println!("{name:<11} {sens:>11}  {spec:>11}");
    }
    ExitCode::SUCCESS
}

fn simulate(args: Vec<String>) -> ExitCode {
    let out = PathBuf::from(get_flag(&args, "--out").unwrap_or_else(|| usage()));
    let seed: u64 = get_flag(&args, "--seed").map_or(1, |v| v.parse().unwrap_or_else(|_| usage()));
    let sensors_n: usize =
        get_flag(&args, "--sensors").map_or(10, |v| v.parse().unwrap_or_else(|_| usage()));
    let blocked: f64 =
        get_flag(&args, "--blocked").map_or(0.0, |v| v.parse().unwrap_or_else(|_| usage()));
    let lg_frac: f64 =
        get_flag(&args, "--lg").map_or(1.0, |v| v.parse().unwrap_or_else(|_| usage()));
    let failure_spec = parse_failure_spec(get_flag(&args, "--failure").as_deref());

    let net = match get_flag(&args, "--topology") {
        None => netdiag_topology::builders::build_internet(
            &netdiag_topology::builders::InternetConfig {
                seed,
                ..Default::default()
            },
        ),
        Some(file) => {
            let text = match fs::read_to_string(&file) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {file}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let topology = match netdiag_topology::text::parse_topology(&text) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("topology parse error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let net = netdiag_topology::builders::Internet::from_topology(topology);
            if net.cores.is_empty() || net.stubs.len() < 2 {
                eprintln!(
                    "custom topology needs at least one core AS (the troubleshooter)                      and two stub ASes (sensor hosts)"
                );
                return ExitCode::FAILURE;
            }
            net
        }
    };
    let sensors_n = sensors_n.min(net.stubs.len());
    let cfg = RunConfig {
        n_sensors: sensors_n,
        failure: failure_spec,
        blocked_frac: blocked,
        lg_frac,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
    let (recorder, sinks) = run_recorder(&args);
    let ctx = {
        let _trial = netdiag_obs::trial_scope(0, netdiag_obs::SETUP_TRIAL);
        prepare_with(&net, &cfg, &mut rng, recorder)
    };
    let topology = ctx.sim.topology();

    // Draw failures until one causes unreachability.
    let _trial = netdiag_obs::trial_scope(0, 0);
    let mut frng = StdRng::seed_from_u64(seed ^ 0xF00D);
    let (failure, broken, after) = loop {
        let Some(failure) = sample_failure(
            &ctx.sim,
            &ctx.mesh_before,
            &ctx.sensors,
            cfg.failure,
            &mut frng,
        ) else {
            eprintln!("no failure of that class is sampleable here");
            return ExitCode::FAILURE;
        };
        let mut broken = ctx.sim.clone();
        {
            let _phase = netdiag_obs::phase_scope(netdiag_obs::Phase::Inject);
            apply_failure(&mut broken, &failure);
        }
        let after = {
            let _phase = netdiag_obs::phase_scope(netdiag_obs::Phase::Measure);
            probe_mesh(&broken, &ctx.sensors, &ctx.blocked)
        };
        if after.failed_count() > 0 {
            break (failure, broken, after);
        }
    };

    let mut broken = broken;
    let observed = broken.take_observed();
    let igp_events = broken.take_igp_events();
    let obs = observations(&ctx.sensors, &ctx.mesh_before, &after);
    let feed = routing_feed(topology, ctx.observer, &observed, &igp_events);

    // Record pre-failure Looking Glass answers for every (available AS,
    // destination) pair.
    let mut lg = RecordedLookingGlass::new();
    for &a in &ctx.lg_available {
        for s in ctx.sensors.sensors() {
            if let Some(path) = looking_glass_query(&ctx.sim, a, s.addr) {
                lg.record(a, s.addr, path);
            }
        }
    }

    // IP-to-AS mapping restricted to observed addresses.
    let mut ip2as_text = String::from("# ip2as <addr> <as>\n");
    let mut seen: BTreeSet<Ipv4Addr> = BTreeSet::new();
    for snap in [&obs.before, &obs.after] {
        for p in &snap.paths {
            for h in &p.hops {
                if let netdiagnoser::Hop::Addr(a) = h {
                    if seen.insert(*a) {
                        if let Some(asn) = topology.as_of_ip(*a) {
                            let _ = writeln!(ip2as_text, "ip2as {a} {}", asn.0);
                        }
                    }
                }
            }
        }
    }

    // Ground truth for checking answers.
    let mut truth = String::from("# failed links as interface address pairs\n");
    for l in failure.all_failure_sites(&ctx.sim) {
        let link = topology.link(l);
        let _ = writeln!(truth, "failed {} {}", link.addr_a, link.addr_b);
    }

    // A Graphviz rendering with the failure sites highlighted.
    let dot = netdiag_topology::export::to_dot(
        topology,
        &netdiag_topology::export::DotOptions {
            highlight: failure.all_failure_sites(&ctx.sim).into_iter().collect(),
            hide_stubs: true,
        },
    );

    if let Err(e) = fs::create_dir_all(&out) {
        eprintln!("cannot create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let (sensors_txt, before_txt, after_txt) = netdiagnoser::text::write_observations(&obs);
    let files = [
        ("sensors.txt", sensors_txt),
        ("before.txt", before_txt),
        ("after.txt", after_txt),
        ("feed.txt", netdiagnoser::text::write_feed(&feed)),
        ("lg.txt", lg.write()),
        ("ip2as.txt", ip2as_text),
        ("truth.txt", truth),
        ("topology.dot", dot),
    ];
    for (name, contents) in files {
        if let Err(e) = fs::write(out.join(name), contents) {
            eprintln!("cannot write {name}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(code) = write_outputs(sinks) {
        return code;
    }
    println!(
        "scenario written to {} ({} failed paths, {} observed messages)",
        out.display(),
        after.failed_count(),
        observed.len()
    );
    ExitCode::SUCCESS
}

fn read(dir: &Path, name: &str) -> Result<String, ExitCode> {
    fs::read_to_string(dir.join(name)).map_err(|e| {
        eprintln!("cannot read {}: {e}", dir.join(name).display());
        ExitCode::FAILURE
    })
}

fn diagnose(args: Vec<String>) -> ExitCode {
    let dir = PathBuf::from(get_flag(&args, "--dir").unwrap_or_else(|| usage()));
    let algo = get_flag(&args, "--algo").unwrap_or_else(|| "nd-edge".into());

    let (sensors, before, after, feed_txt, lg_txt, ip2as_txt) = match (
        read(&dir, "sensors.txt"),
        read(&dir, "before.txt"),
        read(&dir, "after.txt"),
        read(&dir, "feed.txt"),
        read(&dir, "lg.txt"),
        read(&dir, "ip2as.txt"),
    ) {
        (Ok(a), Ok(b), Ok(c), Ok(d), Ok(e), Ok(f)) => (a, b, c, d, e, f),
        _ => return ExitCode::FAILURE,
    };
    let obs = match parse_observations(&sensors, &before, &after) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("parse error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let feed = match parse_feed(&feed_txt) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("feed parse error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let lg = match RecordedLookingGlass::parse(&lg_txt) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("lg parse error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ip2as = match RecordedIpToAs::parse(&ip2as_txt) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("ip2as parse error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let Ok(algorithm) = algo.parse::<Algorithm>() else {
        usage()
    };
    let as_json = args.iter().any(|a| a == "--json");
    let mut config = DiagnosticsConfig::for_algorithm(algorithm);
    if let Some(f) = get_flag(&args, "--min-confidence") {
        let Ok(min) = f.parse::<f64>() else { usage() };
        config.min_confidence = min;
    }
    if let Some(n) = get_flag(&args, "--max-issues") {
        let Ok(max) = n.parse::<usize>() else { usage() };
        config.max_issues = max;
    }
    let (recorder, sinks) = run_recorder(&args);
    let report = {
        let _trial = netdiag_obs::trial_scope(0, 0);
        let _phase = netdiag_obs::phase_scope(netdiag_obs::Phase::Diagnose);
        match NetDiagnoser::builder()
            .config(config)
            .routing_feed(feed)
            .looking_glass(lg)
            .recorder(recorder)
            .build()
            .report(&obs, &ip2as)
        {
            Ok(r) => r,
            Err(e) => {
                eprintln!("diagnosis failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    if let Err(code) = write_outputs(sinks) {
        return code;
    }
    // Write through a fallible sink: a closed pipe (e.g. `| head`) must
    // end the program quietly, not panic.
    let mut out = String::new();
    if as_json {
        out.push_str(&report.to_json());
        out.push('\n');
    } else {
        out.push_str(&report.to_string());
    }
    if let Ok(truth) = read(&dir, "truth.txt") {
        out.push_str("--- ground truth (truth.txt) ---\n");
        for line in truth.lines().filter(|l| l.starts_with("failed")) {
            out.push_str(line);
            out.push('\n');
        }
    }
    use std::io::Write as _;
    let _ = std::io::stdout().write_all(out.as_bytes());
    ExitCode::SUCCESS
}

/// Peak resident-set size of this process in kB (`VmHWM` from
/// `/proc/self/status`); `None` off Linux.
fn peak_rss_kb() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `netdiag gen`: generate a seeded internet-scale topology and
/// optionally converge it, reporting shape, wall times and peak RSS.
fn gen_cmd(args: Vec<String>) -> ExitCode {
    let n_ases: usize = get_flag(&args, "--ases")
        .unwrap_or_else(|| usage())
        .parse()
        .unwrap_or_else(|_| usage());
    let seed: u64 = get_flag(&args, "--seed").map_or(1, |v| v.parse().unwrap_or_else(|_| usage()));
    let parse_f64 = |flag: &str, default: f64| -> f64 {
        get_flag(&args, flag).map_or(default, |v| v.parse().unwrap_or_else(|_| usage()))
    };
    let mut cfg = netdiag_topology::gen::GenConfig::new(n_ases, seed);
    if let Some(t1) = get_flag(&args, "--tier1") {
        cfg.n_tier1 = t1.parse().unwrap_or_else(|_| usage());
    }
    cfg.transit_frac = parse_f64("--transit-frac", cfg.transit_frac);
    cfg.multihoming = parse_f64("--multihoming", cfg.multihoming);
    cfg.peering_density = parse_f64("--peering", cfg.peering_density);
    let threads: usize =
        get_flag(&args, "--threads").map_or(1, |v| v.parse().unwrap_or_else(|_| usage()));
    let converge = args.iter().any(|a| a == "--converge");
    let as_json = args.iter().any(|a| a == "--json");

    let t0 = std::time::Instant::now();
    let net = match netdiag_topology::gen::generate(&cfg) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("generation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let gen_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t = &net.topology;
    let (ases, routers, links) = (t.as_count(), t.router_count(), t.link_count());
    let (n_tier1, n_transit, n_stub) = (net.tier1.len(), net.transits.len(), net.stubs.len());

    let mut converge_stats = None;
    if converge {
        let topology = Arc::new(net.topology);
        let mut sim = if threads > 1 {
            netdiag_netsim::Sim::new_parallel(topology, threads)
        } else {
            netdiag_netsim::Sim::new(topology)
        };
        let t1 = std::time::Instant::now();
        if threads > 1 {
            sim.converge_all_sharded(threads);
        } else {
            sim.converge_all();
        }
        let converge_ms = t1.elapsed().as_secs_f64() * 1e3;
        // Full-RIB check: every router must hold a route to every prefix.
        let topology = sim.topology();
        let rib_routes: u64 = topology
            .routers()
            .iter()
            .map(|r| sim.bgp().loc_rib(r.id).count() as u64)
            .sum();
        converge_stats = Some((converge_ms, sim.bgp_messages(), rib_routes));
    }
    let rss_kb = peak_rss_kb();

    if as_json {
        let mut line = format!(
            "{{\"ases\":{ases},\"tier1\":{n_tier1},\"transits\":{n_transit},\
             \"stubs\":{n_stub},\"routers\":{routers},\"links\":{links},\
             \"threads\":{threads},\"gen_ms\":{gen_ms:.1}"
        );
        if let Some((converge_ms, messages, rib_routes)) = converge_stats {
            let _ = write!(
                line,
                ",\"converge_ms\":{converge_ms:.1},\"messages\":{messages},\
                 \"rib_routes\":{rib_routes}"
            );
        }
        if let Some(kb) = rss_kb {
            let _ = write!(line, ",\"rss_peak_kb\":{kb}");
        }
        line.push('}');
        println!("{line}");
    } else {
        println!(
            "generated {ases} ASes ({n_tier1} tier-1, {n_transit} transit, {n_stub} stub), \
             {routers} routers, {links} links in {gen_ms:.1} ms"
        );
        if let Some((converge_ms, messages, rib_routes)) = converge_stats {
            println!(
                "converged in {:.2} s ({messages} BGP messages, {rib_routes} Loc-RIB routes, \
                 {threads} thread{})",
                converge_ms / 1e3,
                if threads == 1 { "" } else { "s" }
            );
        }
        if let Some(kb) = rss_kb {
            println!("peak RSS {:.1} MiB", kb as f64 / 1024.0);
        }
    }
    ExitCode::SUCCESS
}

fn explain_cmd(args: Vec<String>) -> ExitCode {
    let mut file = None;
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if matches!(a, "--placement" | "--trial" | "--algo") {
            i += 2;
        } else if a.starts_with("--") {
            usage();
        } else {
            if file.is_some() {
                usage();
            }
            file = Some(args[i].clone());
            i += 1;
        }
    }
    let file = file.unwrap_or_else(|| usage());
    let parse_u32 = |flag: &str| -> Option<u32> {
        get_flag(&args, flag).map(|v| v.parse().unwrap_or_else(|_| usage()))
    };
    let filter = ExplainFilter {
        placement: parse_u32("--placement"),
        trial: parse_u32("--trial"),
        algo: get_flag(&args, "--algo"),
    };
    let trace = match fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match netdiag_experiments::explain::explain(&trace, &filter) {
        Ok(narrative) => {
            use std::io::Write as _;
            let _ = std::io::stdout().write_all(narrative.as_bytes());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("explain: {e}");
            ExitCode::FAILURE
        }
    }
}
