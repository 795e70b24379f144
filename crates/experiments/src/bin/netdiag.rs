//! `netdiag` — command-line front end to the NetDiagnoser reproduction.
//!
//! ```text
//! netdiag simulate --out DIR [--seed N] [--sensors N] [--failure SPEC]
//!                  [--blocked FRAC] [--lg FRAC] [--topology FILE]
//!     SPEC: links:<x> | router | misconfig | misconfig+link
//!     Generates the 165-AS topology — or loads one from FILE in the
//!     plain-text format (`netdiag_topology::text`) — prepares one
//!     placement and draws a failure that breaks reachability, as the
//!     trial runner does (`runner::prepare_seeded`, `runner::draw`; it
//!     gives up after `runner::MAX_ATTEMPTS` draws). Writes the
//!     troubleshooter's view to DIR as a `netdiagnoser::text::ScenarioDir`
//!     (sensors, snapshots, feed, Looking Glass dump, IP-to-AS map), plus
//!     the ground truth and a Graphviz rendering for checking answers.
//!
//! netdiag diagnose --dir DIR [--algo tomo|nd-edge|nd-bgpigp|nd-lg]
//!                  [--json] [--min-confidence F] [--max-issues N]
//!     Reads a scenario directory (`ScenarioDir`; the feed and Looking
//!     Glass files may be absent) and prints the diagnosis report — the
//!     flat text by default, followed by the ground truth when DIR has
//!     one, or the versioned `DiagnosticReport` JSON alone with `--json`.
//!     The threshold flags feed the report's `DiagnosticsConfig` (drop
//!     weak findings, cap the issue list).
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
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use netdiag_experiments::explain::ExplainFilter;
use netdiag_experiments::runner::{draw, prepare_seeded, RunConfig, TrialScratch};
use netdiag_experiments::sampling::FailureSpec;
use netdiag_netsim::looking_glass_query;
use netdiag_obs::{LiveRecorder, Recorder, RecorderHandle, TraceRecorder};
use netdiagnoser::text::{
    write_feed, write_observations, RecordedIpToAs, RecordedLookingGlass, ScenarioDir,
};
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
    profile: Option<(PathBuf, Arc<LiveRecorder>)>,
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
        .map(|path| (PathBuf::from(path), Arc::new(LiveRecorder::new())));
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
        write(path, sink.snapshot().to_json())?;
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

/// The value of a numeric flag, `default` when it is absent; a value
/// that does not parse is a usage error.
fn num_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    get_flag(args, name).map_or(default, |v| v.parse().unwrap_or_else(|_| usage()))
}

/// The trial settings `trials` and `simulate` share: `--failure`,
/// `--blocked` and `--lg`.
fn run_config(args: &[String]) -> RunConfig {
    RunConfig {
        failure: parse_failure_spec(get_flag(args, "--failure").as_deref()),
        blocked_frac: num_flag(args, "--blocked", 0.0),
        lg_frac: num_flag(args, "--lg", 1.0),
        ..Default::default()
    }
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
    let seed = num_flag(&args, "--seed", 1);
    let fc = netdiag_experiments::figures::FigureConfig {
        placements: num_flag(&args, "--placements", 10),
        failures_per_placement: num_flag(&args, "--failures", 100),
        base_seed: seed,
        topology_seed: seed,
        threads: num_flag(&args, "--threads", 0),
        ..Default::default()
    };
    let cfg = run_config(&args);
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
    let seed = num_flag(&args, "--seed", 1);
    let sensors_n: usize = num_flag(&args, "--sensors", 10);
    let cfg = run_config(&args);

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
                    "custom topology needs at least one core AS (the troubleshooter) \
                     and two stub ASes (sensor hosts)"
                );
                return ExitCode::FAILURE;
            }
            net
        }
    };
    let cfg = RunConfig {
        n_sensors: sensors_n.min(net.stubs.len()),
        ..cfg
    };
    let (recorder, sinks) = run_recorder(&args);
    let ctx = prepare_seeded(&net, &cfg, seed, recorder);
    let topology = ctx.sim.topology();
    let _trial = netdiag_obs::trial_scope(0, 0);
    let drawn = match draw(&ctx, &mut TrialScratch::new(&ctx), cfg.failure, seed) {
        Ok(drawn) => drawn,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

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
    let mut ip2as = RecordedIpToAs::new();
    let obs = drawn.observations(&ctx);
    let paths = obs.before.paths.iter().chain(&obs.after.paths);
    for hop in paths.flat_map(|p| &p.hops) {
        if let netdiagnoser::Hop::Addr(a) = *hop {
            if let Some(asn) = topology.as_of_ip(a) {
                ip2as.record(a, asn);
            }
        }
    }

    // Ground truth for checking answers, and a Graphviz rendering with
    // the failure sites highlighted.
    let sites = drawn.failure.all_failure_sites(&ctx.sim);
    let mut truth = String::from("# failed links as interface address pairs\n");
    for &l in &sites {
        let link = topology.link(l);
        let _ = writeln!(truth, "failed {} {}", link.addr_a, link.addr_b);
    }
    let dot = netdiag_topology::export::to_dot(
        topology,
        &netdiag_topology::export::DotOptions {
            highlight: sites.into_iter().collect(),
            hide_stubs: true,
        },
    );

    let (sensors, before, after) = write_observations(&obs);
    let scenario = ScenarioDir {
        sensors: Some(sensors),
        before: Some(before),
        after,
        feed: Some(write_feed(&drawn.feed)),
        lg: Some(lg.write()),
        ip2as: Some(ip2as.write()),
        truth: Some(truth),
        dot: Some(dot),
    };
    if let Err(e) = scenario.write(&out) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    if let Err(code) = write_outputs(sinks) {
        return code;
    }
    println!(
        "scenario written to {} ({} failed paths, {} observed messages)",
        out.display(),
        drawn.failed_paths,
        drawn.observed_messages
    );
    ExitCode::SUCCESS
}

fn diagnose(args: Vec<String>) -> ExitCode {
    let dir = PathBuf::from(get_flag(&args, "--dir").unwrap_or_else(|| usage()));
    let algo = get_flag(&args, "--algo").unwrap_or_else(|| "nd-edge".into());

    let read = ScenarioDir::read(&dir).and_then(|scenario| {
        let inputs = scenario.parse()?;
        Ok((scenario.truth, inputs))
    });
    let (truth, inputs) = match read {
        Ok(read) => read,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let Ok(algorithm) = algo.parse::<Algorithm>() else {
        usage()
    };
    let as_json = args.iter().any(|a| a == "--json");
    let mut config = DiagnosticsConfig::for_algorithm(algorithm);
    config.min_confidence = num_flag(&args, "--min-confidence", config.min_confidence);
    config.max_issues = num_flag(&args, "--max-issues", config.max_issues);
    let (recorder, sinks) = run_recorder(&args);
    let report = {
        let _trial = netdiag_obs::trial_scope(0, 0);
        let _phase = netdiag_obs::phase_scope(netdiag_obs::Phase::Diagnose);
        let mut builder = NetDiagnoser::builder().config(config).recorder(recorder);
        if let Some(feed) = inputs.feed {
            builder = builder.routing_feed(feed);
        }
        if let Some(lg) = inputs.lg {
            builder = builder.looking_glass(lg);
        }
        match builder.build().report(&inputs.obs, &inputs.ip2as) {
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
        if let Some(truth) = truth {
            out.push_str("--- ground truth (truth.txt) ---\n");
            for line in truth.lines().filter(|l| l.starts_with("failed")) {
                out.push_str(line);
                out.push('\n');
            }
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
    let mut cfg = netdiag_topology::gen::GenConfig::new(n_ases, num_flag(&args, "--seed", 1));
    cfg.n_tier1 = num_flag(&args, "--tier1", cfg.n_tier1);
    cfg.transit_frac = num_flag(&args, "--transit-frac", cfg.transit_frac);
    cfg.multihoming = num_flag(&args, "--multihoming", cfg.multihoming);
    cfg.peering_density = num_flag(&args, "--peering", cfg.peering_density);
    let threads: usize = num_flag(&args, "--threads", 1);
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
        sim.converge_all_sharded(threads);
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
