//! The traced layer walk (`--trace 1`).
//!
//! Walks the workload's own inputs through each layer's public calls,
//! one span per call, in this order:
//!
//! 1. `topology`: build the workload's internet (the paper internet, or
//!    the generated 1k-AS one for `converge-1k`);
//! 2. `igp`: one all-links-up SPF over every AS;
//! 3. `bgp`: full convergences on one thread (`netsim.sim_new` +
//!    `bgp.converge`) and one sharded over two threads;
//! 4. `experiments`/`netsim`/`core`: a trial grid, trial by trial, on the
//!    public calls `run_trial_with` makes (sample, restore, fail, probe,
//!    bridge, build/feed/instance/greedy for Tomo, ND-edge and ND-bgpigp,
//!    evaluate), checked equal to `collect_trials` on one and two
//!    threads, which are also timed (untraced) for the pool metrics;
//! 5. `core`: request pipelines (parse, build, feed, instance, greedy,
//!    report, render) over the daemon's scenarios, checked byte-equal to
//!    the daemon's answers;
//! 6. `serve`: a daemon under open-loop load at the `lo` and `hi` rates
//!    and a bisection for the highest sustained rate; its own
//!    `serve.phase.*` spans come from the `stats` verb.
//!
//! Every workload walks every layer, sized to what the workload stresses
//! (see [`Spec::of`]), so every per-layer metric is measured on every
//! workload's inputs.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use netdiag_experiments::bridge::{observations, routing_feed, TruthIpToAs};
use netdiag_experiments::figures::collect_trials;
use netdiag_experiments::runner::{prepare_with, PlacementContext, RunConfig, TrialResult};
use netdiag_experiments::sampling::sample_failure_from;
use netdiag_experiments::truth::{evaluate, TruthMap};
use netdiag_igp::{Igp, LinkState};
use netdiag_netsim::{apply_failure, probe_mesh, Failure, ProbeMesh, Sim, SimSnapshot};
use netdiag_obs::json::Json;
use netdiag_obs::RecorderHandle;
use netdiag_serve::proto::diagnose_response;
use netdiag_topology::builders::Internet;
use netdiag_topology::gen::{generate, GenConfig};
use netdiag_topology::LinkId;
use netdiagnoser::text::{parse_feed, parse_snapshot};
use netdiagnoser::{
    BuildOptions, Diagnosis, DiagnosticReport, IpToAs, NetDiagnoser, Observations, Problem,
    RoutingFeed, Weights,
};

use crate::loadgen::max_rate;
use crate::measure::{mean, median, Outcome};
use crate::serve::{self, Daemon};
use crate::trace::{Summary, Tracer};
use crate::trials;
use crate::{converge, Params, Workload, PAPER_TOPOLOGY_SEED};

// The walk replays `collect_trials` call by call, so it restates three of
// `netdiag-experiments`' private choices. A drift in any of them makes the
// walked trials differ from `collect_trials`, which the walk checks on
// every run (`walked == pooled1`): that check is the one guard.

/// Sampling attempts per trial before giving up: `MAX_ATTEMPTS` in
/// `crates/experiments/src/runner.rs`, the bound of `run_trial_with`'s loop.
const MAX_ATTEMPTS: usize = 200;

/// The RNG seed placement `p` of a grid is prepared with: the `prng` seed
/// in `prepare_contexts`, `crates/experiments/src/figures/mod.rs`.
fn prepare_seed(base_seed: u64, p: usize) -> u64 {
    base_seed ^ (p as u64).wrapping_mul(0x9E37_79B9)
}

/// The RNG seed trial `t` of placement `p` draws its failure with:
/// `trial_seed` in `crates/experiments/src/figures/mod.rs`.
fn trial_seed(base_seed: u64, p: usize, t: usize) -> u64 {
    base_seed
        ^ 0xABCD
        ^ (p as u64).wrapping_mul(0x85EB_CA6B)
        ^ (t as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

/// Per-layer metrics that are the mean duration of one span name:
/// `(metric, unit, span)`, the unit (`ms` or `us`) setting the scale.
const SPAN_MEANS: [(&str, &str, &str); 18] = [
    ("topology.build_ms", "ms", "topology.build"),
    ("igp.spf_ms", "ms", "igp.spf"),
    ("bgp.converge_ms", "ms", "bgp.converge"),
    ("bgp.sharded2_ms", "ms", "bgp.sharded2"),
    ("netsim.fail_us", "us", "netsim.fail"),
    ("netsim.restore_us", "us", "netsim.restore"),
    ("netsim.probe_ms", "ms", "netsim.probe"),
    ("experiments.prepare_ms", "ms", "experiments.prepare"),
    ("experiments.sample_us", "us", "experiments.sample"),
    ("experiments.bridge_us", "us", "experiments.bridge"),
    ("experiments.evaluate_us", "us", "experiments.evaluate"),
    ("core.parse_us", "us", "core.parse"),
    ("core.build_us", "us", "core.build"),
    ("core.feed_us", "us", "core.feed"),
    ("core.instance_us", "us", "core.instance"),
    ("core.greedy_us", "us", "core.greedy"),
    ("core.report_us", "us", "core.report"),
    ("core.render_us", "us", "core.render"),
];

/// How much of each layer a workload's walk covers.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Spec {
    /// ASes of a generated internet; 0 walks the paper internet.
    gen_ases: usize,
    /// Simultaneous link failures per trial.
    links: usize,
    /// Placements of the walked grid.
    placements: usize,
    /// Trials per placement.
    trials: usize,
    /// Full one-thread convergences.
    converges: usize,
    /// Request pipelines.
    requests: usize,
}

impl Spec {
    /// The walk for `p`'s workload: a 2 x 50 grid for the trial
    /// workloads, 200 request pipelines for the daemon and three
    /// convergences for `converge-1k`, with every other layer walked
    /// lightly on the same inputs.
    fn of(p: &Params) -> Spec {
        let spec = match p.workload {
            Workload::ServePaper => Spec {
                gen_ases: 0,
                links: 1,
                placements: 1,
                trials: 20,
                converges: 1,
                requests: 200,
            },
            Workload::Trials1Link | Workload::Trials3Link => Spec {
                gen_ases: 0,
                links: if p.workload == Workload::Trials1Link {
                    1
                } else {
                    3
                },
                placements: 2,
                trials: 50,
                converges: 1,
                requests: 64,
            },
            Workload::Converge1k => Spec {
                gen_ases: converge::ases(p),
                links: 1,
                placements: 1,
                trials: 10,
                converges: 3,
                requests: 64,
            },
        };
        if p.quick {
            Spec {
                placements: 1,
                trials: spec.trials.min(10),
                converges: 1,
                requests: spec.requests.min(32),
                ..spec
            }
        } else {
            spec
        }
    }
}

/// A placement's persistent scratch simulator, kept as `TrialScratch`
/// keeps it: restored to `snap` before every attempt but the first.
struct Scratch {
    sim: Sim,
    snap: SimSnapshot,
    dirty: bool,
}

/// What the trial walk counted beyond its spans.
#[derive(Default)]
struct TrialCounts {
    attempts: u64,
    redraws: u64,
    fail_msgs: u64,
}

/// Runs the walk, writes its spans as JSON lines to `trace_out`, and
/// returns every per-layer metric.
pub fn run(p: &Params, trace_out: &Path) -> Outcome {
    let spec = Spec::of(p);
    let tr = Tracer::default();
    let mut out = Outcome::default();

    // 1-3: topology, IGP, BGP.
    let built = tr.op("op.build", || {
        tr.span("topology.build", || -> Result<Internet, String> {
            if spec.gen_ases > 0 {
                generate(&GenConfig::new(spec.gen_ases, p.seed))
                    .map(|g| Internet::from_topology(g.topology))
                    .map_err(|e| format!("generation failed: {e}"))
            } else {
                Ok(trials::internet())
            }
        })
    });
    let net = match built {
        Ok(net) => net,
        Err(e) => {
            out.problems.push(e);
            return out;
        }
    };
    let topology = Arc::new(net.topology.clone());
    let igp = tr.op("op.spf", || {
        tr.span("igp.spf", || {
            Igp::compute(&topology, &LinkState::all_up(&topology))
        })
    });
    drop(igp);
    let mut messages = 0;
    let mut converge_walls = Vec::with_capacity(spec.converges);
    for _ in 0..spec.converges {
        let t0 = Instant::now();
        let sim = tr.op("op.converge", || {
            let mut sim = tr.span("netsim.sim_new", || Sim::new(Arc::clone(&topology)));
            tr.span("bgp.converge", || sim.converge_all());
            sim
        });
        converge_walls.push(t0.elapsed().as_secs_f64());
        messages = sim.bgp_messages();
    }
    let sharded = tr.op("op.converge", || {
        tr.span("bgp.sharded2", || converge::converge(&topology, 2))
    });
    out.check(sharded.bgp_messages() == messages, || {
        format!(
            "sharded(2) delivered {} messages, one thread {messages}",
            sharded.bgp_messages()
        )
    });
    drop(sharded);

    // 4: the trial grid, walked and pooled.
    let cfg = trials::run_config(spec.links);
    let fc = trials::grid(spec.placements, spec.trials, p.seed * 1000, 1);
    let mut counts = TrialCounts::default();
    let mut walked: Vec<Option<TrialResult>> = Vec::new();
    for pl in 0..fc.placements {
        let (ctx, mut scratch) = tr.op("op.prepare", || {
            let mut rng = StdRng::seed_from_u64(prepare_seed(fc.base_seed, pl));
            let ctx = tr.span("experiments.prepare", || {
                prepare_with(&net, &cfg, &mut rng, RecorderHandle::noop())
            });
            let scratch = tr.span("netsim.snapshot", || {
                let sim = ctx.sim.clone();
                let snap = sim.snapshot();
                Scratch {
                    sim,
                    snap,
                    dirty: false,
                }
            });
            (ctx, scratch)
        });
        for t in 0..fc.failures_per_placement {
            let mut rng = StdRng::seed_from_u64(trial_seed(fc.base_seed, pl, t));
            walked.push(tr.op("op.trial", || {
                walk_trial(&tr, &ctx, &cfg, &mut rng, &mut scratch, &mut counts)
            }));
        }
    }
    let dups = dup_share(&walked, fc.failures_per_placement);
    let walked: Vec<TrialResult> = walked.into_iter().flatten().collect();
    let n_trials = (fc.placements * fc.failures_per_placement) as u64;
    out.attempted += n_trials;
    out.failed += n_trials - walked.len() as u64;
    let t0 = Instant::now();
    let pooled1 = collect_trials(&net, &cfg, &fc);
    let pool1 = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let pooled2 = collect_trials(
        &net,
        &cfg,
        &trials::grid(fc.placements, fc.failures_per_placement, fc.base_seed, 2),
    );
    let pool2 = t0.elapsed().as_secs_f64();
    out.check(walked == pooled1, || {
        "walked trials differ from collect_trials".to_owned()
    });
    out.check(pooled1 == pooled2, || {
        "collect_trials differs between 1 and 2 threads".to_owned()
    });

    // 5-6: request pipelines and the daemon under load.
    let daemon = if spec.gen_ases > 0 {
        Daemon::start(p.seed, spec.gen_ases, p.seed)
    } else {
        Daemon::start(PAPER_TOPOLOGY_SEED, 0, p.seed)
    };
    let mut d = match daemon {
        Ok(d) => d,
        Err(e) => {
            out.problems.push(format!("daemon set-up: {e}"));
            return out;
        }
    };
    out.problems.extend(d.check_parity());
    let sizes = walk_requests(&tr, &d, spec.requests, &mut out);
    out.attempted += spec.requests as u64;
    let legs = daemon_legs(&d, p.seconds, &mut out);
    d.stop();

    // Spans out, metrics computed.
    let sum = tr.summary();
    if let Err(e) = write_trace(trace_out, &tr) {
        out.problems
            .push(format!("writing {}: {e}", trace_out.display()));
    }
    print_layers(&sum);
    for (metric, unit, span) in SPAN_MEANS {
        let scale = if unit == "ms" { 1e6 } else { 1e3 };
        out.push(metric, unit, sum.mean_ns(span) / scale);
    }
    let per = |n: u64, d: u64| n as f64 / d.max(1) as f64;
    out.push("converge.wall_s", "s", median(&converge_walls));
    out.push("bgp.messages", "count", messages as f64);
    out.push(
        "bgp.ns_per_msg",
        "ns",
        sum.mean_ns("bgp.converge") / messages.max(1) as f64,
    );
    out.push(
        "netsim.fail_msgs",
        "count",
        per(counts.fail_msgs, sum.count("netsim.fail")),
    );
    out.push(
        "netsim.redraw_share",
        "ratio",
        per(counts.redraws, counts.attempts),
    );
    out.push("experiments.dup_share", "ratio", dups);
    out.push(
        "experiments.pool_1t_per_s",
        "1/s",
        pooled1.len() as f64 / pool1,
    );
    out.push("experiments.pool_speedup", "ratio", pool1 / pool2);
    out.push("trials.per_s", "1/s", pooled2.len() as f64 / pool2);
    out.push("core.sets", "count", sizes.0);
    out.push("core.candidates", "count", sizes.1);
    for (name, unit, value) in legs {
        out.push(name, unit, value);
    }
    let coverage = sum.coverage();
    out.push("trace.coverage", "ratio", coverage);
    // The walked grid against the pool on the same grid: no replay memo
    // and the spans' own cost on one side, so on trials-1link this is
    // mostly the memo's win.
    let walked_ns = sum.total_ns("op.prepare") + sum.total_ns("op.trial");
    out.push("trace.overhead", "ratio", walked_ns as f64 / 1e9 / pool1);
    out.check(coverage >= 0.90, || {
        format!("layer spans cover {coverage:.3} of operation time, below 0.90")
    });
    out
}

/// One trial on the public calls `run_trial_with` makes, without the
/// replay memo. Mirrors its loop exactly, so the result must equal
/// `collect_trials`' for the same seed.
fn walk_trial(
    tr: &Tracer,
    ctx: &PlacementContext,
    cfg: &RunConfig,
    rng: &mut StdRng,
    scratch: &mut Scratch,
    counts: &mut TrialCounts,
) -> Option<TrialResult> {
    let Scratch { sim, snap, dirty } = scratch;
    for _ in 0..MAX_ATTEMPTS {
        let failure = tr.span("experiments.sample", || {
            sample_failure_from(
                &ctx.sim,
                &ctx.probed_links,
                &ctx.mesh_before,
                &ctx.sensors,
                cfg.failure,
                rng,
            )
        })?;
        counts.attempts += 1;
        if *dirty {
            tr.span("netsim.restore", || sim.restore(snap));
        }
        *dirty = true;
        let before = sim.bgp_messages();
        tr.span("netsim.fail", || apply_failure(sim, &failure));
        counts.fail_msgs += sim.bgp_messages() - before;
        let mesh_after = tr.span("netsim.probe", || {
            probe_mesh(sim, &ctx.sensors, &ctx.blocked)
        });
        if mesh_after.failed_count() == 0 {
            counts.redraws += 1;
            continue;
        }
        return Some(score_trial(tr, ctx, cfg, sim, failure, mesh_after));
    }
    None
}

/// Diagnoses and scores one trial as `run_trial_with` does: Tomo,
/// ND-edge and ND-bgpigp, each built, pruned and solved on the public
/// `Problem`/`HittingSetInstance` calls. (No workload blocks traceroute
/// or fails routers, so ND-LG and router detection never run.)
fn score_trial(
    tr: &Tracer,
    ctx: &PlacementContext,
    cfg: &RunConfig,
    sim: &mut Sim,
    failure: Failure,
    mesh_after: ProbeMesh,
) -> TrialResult {
    let topology = ctx.sim.topology();
    let (obs, feed, truth, failed_sites) = tr.span("experiments.bridge", || {
        let observed = sim.take_observed();
        let igp_events = sim.take_igp_events();
        let obs = observations(&ctx.sensors, &ctx.mesh_before, &mesh_after);
        let feed = routing_feed(topology, ctx.observer, &observed, &igp_events);
        let truth = TruthMap::build(topology, &ctx.mesh_before, &mesh_after);
        let failed_sites: BTreeSet<LinkId> = failure
            .all_failure_sites(&ctx.sim)
            .into_iter()
            .filter(|l| truth.probed_links().contains(l))
            .collect();
        (obs, feed, truth, failed_sites)
    });
    let ip2as = TruthIpToAs { topology };
    let weights = cfg.diagnostics.weights;
    let tomo = diagnose(
        tr,
        &obs,
        &ip2as,
        BuildOptions::tomo(),
        None,
        Weights { a: 1, b: 0 },
    );
    let edge = diagnose(tr, &obs, &ip2as, BuildOptions::nd_edge(), None, weights);
    let bgpigp = diagnose(
        tr,
        &obs,
        &ip2as,
        BuildOptions::nd_edge(),
        Some(&feed),
        weights,
    );
    tr.span("experiments.evaluate", || TrialResult {
        failed_paths: mesh_after.failed_count(),
        tomo: evaluate(topology, &truth, &tomo, &failed_sites),
        nd_edge: evaluate(topology, &truth, &edge, &failed_sites),
        nd_bgpigp: evaluate(topology, &truth, &bgpigp, &failed_sites),
        nd_lg: None,
        router_detected: None,
        failure,
        failed_sites,
    })
}

/// One diagnosis on the public calls, one span each.
fn diagnose(
    tr: &Tracer,
    obs: &Observations,
    ip2as: &dyn IpToAs,
    opts: BuildOptions,
    feed: Option<&RoutingFeed>,
    weights: Weights,
) -> Diagnosis {
    let mut problem = tr.span("core.build", || Problem::build(obs, ip2as, opts));
    if let Some(feed) = feed {
        tr.span("core.feed", || problem.apply_feed(obs, feed));
    }
    let instance = tr.span("core.instance", || problem.instance());
    let greedy = tr.span("core.greedy", || instance.greedy(weights));
    Diagnosis::new(problem, greedy)
}

/// `requests` request pipelines over the daemon's scenarios, each
/// checked byte-equal to the daemon's answer and its report equal to
/// `NetDiagnoser::report` on the same inputs. Returns the mean instance
/// size (sets, candidates).
fn walk_requests(tr: &Tracer, d: &Daemon, requests: usize, out: &mut Outcome) -> (f64, f64) {
    let baseline = &d.baseline;
    let config = serve::request_config();
    let (mut sets, mut candidates) = (Vec::new(), Vec::new());
    for i in 0..requests {
        let k = i % d.scenarios().len();
        let scenario = &d.scenarios()[k];
        let verdict = tr.op("op.request", || -> Result<(), String> {
            let (obs, feed) = tr.span("core.parse", || -> Result<_, String> {
                let after = parse_snapshot(&scenario.after).map_err(|e| e.to_string())?;
                let feed = parse_feed(&scenario.feed).map_err(|e| e.to_string())?;
                let obs = Observations {
                    sensors: baseline.sensors().to_vec(),
                    before: baseline.before().clone(),
                    after,
                };
                Ok((obs, feed))
            })?;
            let ip2as = baseline.ip_to_as();
            let mut problem = tr.span("core.build", || {
                Problem::build(&obs, &ip2as, BuildOptions::nd_edge())
            });
            tr.span("core.feed", || problem.apply_feed(&obs, &feed));
            let instance = tr.span("core.instance", || problem.instance());
            sets.push((instance.failure_sets.len() + instance.reroute_sets.len()) as f64);
            candidates.push(instance.candidates.len() as f64);
            let greedy = tr.span("core.greedy", || instance.greedy(config.weights));
            let (parts, whole) = tr.span("core.report", || {
                let parts =
                    DiagnosticReport::from_diagnosis(&Diagnosis::new(problem, greedy), &config);
                let whole = NetDiagnoser::builder()
                    .config(config)
                    .routing_feed(feed)
                    .looking_glass(baseline.looking_glass())
                    .build()
                    .report(&obs, &ip2as);
                (parts, whole)
            });
            if whole.as_ref() != Ok(&parts) {
                return Err("report from the parts differs from NetDiagnoser::report".into());
            }
            let line = tr.span("core.render", || {
                diagnose_response(k as u64, &parts.to_json(), &parts.to_string(), None)
            });
            if line != d.expected(k) {
                return Err("rendered response differs from the daemon's".into());
            }
            Ok(())
        });
        if let Err(e) = verdict {
            out.problems.push(format!("request {i}: {e}"));
        }
    }
    (mean(&sets), mean(&candidates))
}

/// The daemon legs: warm-up, `lo`, `hi` (bracketed by `stats` reads for
/// the daemon's own phase spans) and the bisection, sharing `secs` as
/// 20% / 30% / 50%. Returns the `serve.*` metrics.
fn daemon_legs(d: &Daemon, secs: f64, out: &mut Outcome) -> Vec<(&'static str, &'static str, f64)> {
    let warm = d.leg(serve::HI_RPS, serve::WARMUP_SECS.min(secs));
    let lo = d.leg(serve::LO_RPS, secs * 0.2);
    let before = d.stats();
    let hi = d.leg(serve::HI_RPS, secs * 0.3);
    let after = d.stats();
    let (lo_rate, hi_rate, probes) = serve::BISECT;
    let (max_rps, bisect) = max_rate(lo_rate, hi_rate, probes, serve::SLO_P99_MS, |rate| {
        d.leg(rate, secs * 0.5 / probes as f64)
    });
    for leg in [&warm, &lo, &hi].into_iter().chain(&bisect) {
        serve::tally(out, leg);
    }
    let (before, after) = match (before, after) {
        (Ok(b), Ok(a)) => (b, a),
        (Err(e), _) | (_, Err(e)) => {
            out.problems.push(e);
            (Json::Null, Json::Null)
        }
    };
    // Means of the daemon's own spans over the `hi` leg alone.
    let delta = |name: &str| -> (f64, f64) {
        let read = |v: &Json, key: &str| {
            v.get("spans")
                .and_then(|s| s.get(name))
                .and_then(|s| s.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        let count = read(&after, "count").saturating_sub(read(&before, "count"));
        let sum = read(&after, "sum_ns").saturating_sub(read(&before, "sum_ns"));
        (sum as f64, count.max(1) as f64)
    };
    let mean_us = |name: &str| {
        let (sum, count) = delta(name);
        sum / count / 1e3
    };
    let queue = mean_us("serve.phase.queue");
    let request = mean_us("serve.request");
    let phases: f64 = [
        "serve.phase.restore",
        "serve.phase.diagnose",
        "serve.phase.render",
    ]
    .iter()
    .map(|n| delta(n).0)
    .sum();
    let phase_coverage = phases / delta("serve.request").0.max(1.0);
    out.check(phase_coverage >= 0.90, || {
        format!("serve phases cover {phase_coverage:.3} of serve.request, below 0.90")
    });
    let depth = after
        .get("gauges")
        .and_then(|g| g.get("serve.queue_depth"))
        .and_then(|g| g.get("high_water"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let wire = hi.mean_send_to_answer_us() - queue - request;
    eprintln!(
        "serve: lo p50 {:.3} p99 {:.3} | hi p50 {:.3} p99 {:.3} ms | max {max_rps:.0} req/s",
        lo.latency_ms(50.0),
        lo.latency_ms(99.0),
        hi.latency_ms(50.0),
        hi.latency_ms(99.0),
    );
    vec![
        ("serve.queue_us", "us", queue),
        ("serve.restore_us", "us", mean_us("serve.phase.restore")),
        ("serve.diagnose_us", "us", mean_us("serve.phase.diagnose")),
        ("serve.render_us", "us", mean_us("serve.phase.render")),
        ("serve.request_us", "us", request),
        ("serve.cpu_us_per_req", "us", hi.cpu_us_per_req()),
        ("serve.queue_depth_max", "count", depth as f64),
        ("serve.wire_us", "us", wire),
        ("serve.phase_coverage", "ratio", phase_coverage),
        ("serve.gen_late_p99_ms", "ms", hi.late_ms(99.0)),
        ("serve.lo.p50_ms", "ms", lo.latency_ms(50.0)),
        ("serve.lo.p99_ms", "ms", lo.latency_ms(99.0)),
        ("serve.hi.p50_ms", "ms", hi.latency_ms(50.0)),
        ("serve.hi.p99_ms", "ms", hi.latency_ms(99.0)),
        ("serve.max_rps", "1/s", max_rps),
    ]
}

/// Share of trials whose failure repeats an earlier draw of the same
/// placement: the most the replay memo can save.
fn dup_share(results: &[Option<TrialResult>], per_placement: usize) -> f64 {
    let dups: usize = results
        .chunks(per_placement.max(1))
        .map(|placement| {
            (0..placement.len())
                .filter(|&i| {
                    placement[i].as_ref().is_some_and(|r| {
                        placement[..i]
                            .iter()
                            .flatten()
                            .any(|q| q.failure == r.failure)
                    })
                })
                .count()
        })
        .sum();
    dups as f64 / results.iter().flatten().count().max(1) as f64
}

fn write_trace(path: &Path, tr: &Tracer) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, tr.to_jsonl())
}

/// Prints each layer's self time and share of operation time.
fn print_layers(sum: &Summary) {
    let total = sum.op_wall_ns().max(1) as f64;
    for (layer, ns) in sum.layer_self_ns() {
        eprintln!(
            "layer {layer:<12} self {:>10.3} ms  {:>5.1}%",
            ns as f64 / 1e6,
            ns as f64 / total * 100.0
        );
    }
}
