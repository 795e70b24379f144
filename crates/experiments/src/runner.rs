//! End-to-end experiment runner: placement → converge → probe → fail →
//! re-probe → diagnose → score. One [`PlacementContext`] per sensor
//! placement, many [`run_trial`] calls per context — matching the paper's
//! "10 random sensor placements and 100 failures per placement".

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use netdiag_netsim::{
    apply_failure, apply_failure_full, probe_mesh, Failure, ProbeMesh, SensorSet, Sim, SimSnapshot,
};
use netdiag_obs::{names, RecorderHandle};
use netdiag_topology::builders::Internet;
use netdiag_topology::{AsId, LinkId};
use netdiagnoser::{run, Algorithm, DiagnosticsConfig, Observations, RoutingFeed};

use crate::bridge::{observations, routing_feed, SimLookingGlass, TruthIpToAs};
use crate::placement::{place_sensors, Placement};
use crate::sampling::{probed_links, sample_failure, sample_failure_from, FailureSpec};
use crate::truth::{evaluate, mesh_diagnosability, Evaluation, TruthMap};

/// Where the troubleshooting AS (AS-X) sits in the hierarchy (§5.3
/// studies core vs edge placement).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObserverPosition {
    /// A core AS (the paper's default; Abilene here).
    Core,
    /// A tier-2 transit AS.
    Tier2,
    /// A stub AS hosting the first sensor.
    SensorStub,
}

/// Configuration of one experiment scenario.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Number of sensors (paper default: 10).
    pub n_sensors: usize,
    /// Where AS-X sits (paper default: a core AS).
    pub observer: ObserverPosition,
    /// Placement strategy (paper default: random stubs).
    pub placement: Placement,
    /// Failure class to inject.
    pub failure: FailureSpec,
    /// Fraction of probed ASes that block traceroute (`f_b`).
    pub blocked_frac: f64,
    /// Fraction of probed ASes providing a Looking Glass.
    pub lg_frac: f64,
    /// Diagnosis tunables (greedy weights and reporting thresholds),
    /// shared by every algorithm scored in a trial. The `algorithm`
    /// field is ignored here — `score_trial` runs all four variants.
    pub diagnostics: DiagnosticsConfig,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            n_sensors: 10,
            observer: ObserverPosition::Core,
            placement: Placement::Random,
            failure: FailureSpec::Links(1),
            blocked_frac: 0.0,
            lg_frac: 1.0,
            diagnostics: DiagnosticsConfig::default(),
        }
    }
}

/// A prepared sensor placement: healthy converged network plus the
/// pre-failure measurements.
pub struct PlacementContext {
    /// Healthy converged simulator (observer set, message buffers drained).
    pub sim: Sim,
    /// The placed sensors.
    pub sensors: SensorSet,
    /// The troubleshooting AS (AS-X) — the first core AS.
    pub observer: AsId,
    /// ASes blocking traceroute.
    pub blocked: BTreeSet<AsId>,
    /// ASes providing Looking Glass servers (always includes AS-X).
    pub lg_available: BTreeSet<AsId>,
    /// The `T-` probe mesh (with blocking applied).
    pub mesh_before: ProbeMesh,
    /// Diagnosability `D(G)` of the unblocked pre-failure mesh.
    pub diagnosability: f64,
    /// Distinct links of `mesh_before` (the failure-sampling universe),
    /// computed once here instead of once per sampling attempt.
    pub probed_links: Vec<LinkId>,
    /// Completed-trial memo keyed by injected failure: the troubleshooter
    /// is deterministic, so a failure drawn a second time (common at paper
    /// scale, where hundreds of draws hit the same few hundred probed
    /// links) replays the recorded outcome instead of re-simulating.
    /// `None` records "fully rerouted — redraw"; [`run_trial_with`] and
    /// [`draw_with`] both record and skip those, and only the trial loop
    /// records and replays outcomes. Bypassed under a tracer, whose
    /// per-trial event stream a replayed outcome cannot reproduce;
    /// metrics runs use it and count hits under `trial.memo_hits`.
    replay: Mutex<BTreeMap<Vec<u64>, Option<TrialResult>>>,
}

/// Prepares a placement on a generated internet.
pub fn prepare(net: &Internet, cfg: &RunConfig, rng: &mut StdRng) -> PlacementContext {
    prepare_with(net, cfg, rng, RecorderHandle::noop())
}

/// [`prepare`] with an instrumentation recorder: the simulator (and every
/// trial clone of it) reports IGP, BGP and probe counters to `recorder`,
/// and the preparation itself is timed as `trial.setup` spans. Builds a
/// [`placement_base`] for this one placement; callers that prepare many
/// placements of one internet build the base once and call
/// [`prepare_on`].
pub fn prepare_with(
    net: &Internet,
    cfg: &RunConfig,
    rng: &mut StdRng,
    recorder: RecorderHandle,
) -> PlacementContext {
    let base = placement_base(net, recorder.clone());
    prepare_on(&base, net, cfg, rng, recorder)
}

/// The healthy simulator every placement of `net` is prepared on
/// ([`Sim::base`]): the topology, its all-links-up IGP and the BGP
/// session tables, which depend on the internet alone. Its SPF runs
/// report to `recorder` and it is timed as a `trial.setup` span.
///
/// The base is built in its own `(NO_PLACEMENT, SETUP_TRIAL)` trial
/// scope, so the logical clock of its trace events starts at zero
/// whatever the thread ran before, and the caller's scope resumes where
/// it was.
pub fn placement_base(net: &Internet, recorder: RecorderHandle) -> Sim {
    let _trial = netdiag_obs::trial_scope(netdiag_obs::NO_PLACEMENT, netdiag_obs::SETUP_TRIAL);
    let _setup = recorder.span(names::TRIAL_SETUP);
    Sim::base(Arc::new(net.topology.clone()), 1, recorder.clone())
}

/// Prepares a placement of `net` on `base`, a [`placement_base`] of the
/// same internet: the placement's simulator is scoped from the base
/// ([`Sim::scoped`]) and shares its topology, IGP and session tables, so
/// only the sensor prefixes' BGP columns, the converged routes and the
/// `T-` mesh are the placement's own. Timed as the `trial.setup` span.
pub fn prepare_on(
    base: &Sim,
    net: &Internet,
    cfg: &RunConfig,
    rng: &mut StdRng,
    recorder: RecorderHandle,
) -> PlacementContext {
    let _setup = recorder.span(names::TRIAL_SETUP);
    let topology = base.topology();
    let spec = place_sensors(net, cfg.placement, cfg.n_sensors, rng);
    let sensors = SensorSet::place(topology, &spec);
    let observer = match cfg.observer {
        ObserverPosition::Core => net.cores[0].as_id,
        ObserverPosition::Tier2 => net.tier2[0].as_id,
        ObserverPosition::SensorStub => sensors.sensors()[0].as_id,
    };

    // Trials only probe between sensors, so the simulator's BGP tables
    // are sized to the sensor prefixes alone.
    let origins = sensors.as_ids();
    let mut sim = base.scoped(&origins, recorder.clone());
    sensors.register(&mut sim);
    sim.converge_for(&origins);
    // Observe after the initial convergence: trials only want the
    // messages a failure triggers.
    sim.set_observer(observer);

    // Probe once without blocking to learn the probed ASes and the
    // diagnosability of the placement.
    let plain_mesh = probe_mesh(&sim, &sensors, &BTreeSet::new());
    let diagnosability = mesh_diagnosability(&plain_mesh);
    let probed_ases: BTreeSet<AsId> = plain_mesh
        .traceroutes
        .iter()
        .flat_map(|t| t.hops.iter().filter_map(|h| h.router()))
        .map(|r| topology.as_of_router(r))
        .collect();

    // Sample the blocking and Looking-Glass sets among probed ASes. AS-X
    // never blocks itself and always has its own routing data ("its own
    // BGP information" acts as its Looking Glass).
    let mut blockable: Vec<AsId> = probed_ases
        .iter()
        .copied()
        .filter(|&a| a != observer)
        .collect();
    blockable.shuffle(rng);
    let n_blocked = (cfg.blocked_frac * blockable.len() as f64).round() as usize;
    let blocked: BTreeSet<AsId> = blockable[..n_blocked.min(blockable.len())]
        .iter()
        .copied()
        .collect();

    let mut lg_pool: Vec<AsId> = probed_ases.iter().copied().collect();
    lg_pool.shuffle(rng);
    let n_lg = (cfg.lg_frac * lg_pool.len() as f64).round() as usize;
    let mut lg_available: BTreeSet<AsId> =
        lg_pool[..n_lg.min(lg_pool.len())].iter().copied().collect();
    lg_available.insert(observer);

    // With no blocking the blocked-aware mesh is the plain mesh: reuse it
    // instead of probing the same network a second time.
    let mesh_before = if blocked.is_empty() {
        plain_mesh
    } else {
        probe_mesh(&sim, &sensors, &blocked)
    };

    let probed = probed_links(&mesh_before);
    PlacementContext {
        sim,
        sensors,
        observer,
        blocked,
        lg_available,
        mesh_before,
        diagnosability,
        probed_links: probed,
        replay: Mutex::new(BTreeMap::new()),
    }
}

/// Per-algorithm evaluations for one failure trial.
#[derive(Clone, Debug, PartialEq)]
pub struct TrialResult {
    /// The injected failure.
    pub failure: Failure,
    /// Ground-truth failure sites restricted to probed links.
    pub failed_sites: BTreeSet<LinkId>,
    /// Number of sensor pairs that lost reachability.
    pub failed_paths: usize,
    /// Plain Boolean tomography.
    pub tomo: Evaluation,
    /// Logical links + reroute sets.
    pub nd_edge: Evaluation,
    /// ND-edge + AS-X control plane.
    pub nd_bgpigp: Evaluation,
    /// ND-bgpigp + Looking Glass (only when traceroute blocking is on).
    pub nd_lg: Option<Evaluation>,
    /// For router-failure trials: did ND-edge's hypothesis touch the failed
    /// router (the paper's router-detection criterion)?
    pub router_detected: Option<bool>,
}

/// Maximum failure-sampling attempts before giving up on a trial. The
/// troubleshooter is only invoked for failures that actually cause
/// unreachability, so reroutable-only samples are redrawn (as in the
/// paper, which counts only unreachability-causing failures).
pub const MAX_ATTEMPTS: usize = 200;

/// Per-placement scratch state of the production trial loop: one CoW clone
/// of the healthy simulator plus its snapshot, reused across every trial
/// and sampling attempt of the placement (a worker rebuilds it only when
/// it switches placements). Restoring between attempts is a handful of
/// `Arc` bumps; injecting is the incremental reconvergence path.
pub struct TrialScratch {
    sim: Sim,
    baseline: SimSnapshot,
    dirty: bool,
}

impl TrialScratch {
    /// Clones the placement's healthy simulator and snapshots it.
    pub fn new(ctx: &PlacementContext) -> Self {
        let sim = ctx.sim.clone();
        let baseline = sim.snapshot();
        TrialScratch {
            sim,
            baseline,
            dirty: false,
        }
    }

    /// One sampling attempt: rolls the scratch back to the healthy
    /// baseline if an earlier attempt broke it, injects `failure` on the
    /// incremental path and re-probes the mesh.
    fn attempt(
        &mut self,
        ctx: &PlacementContext,
        failure: &Failure,
        attempt: usize,
        recorder: &RecorderHandle,
    ) -> ProbeMesh {
        recorder.event(names::EV_TRIAL_ATTEMPT, || {
            netdiag_obs::EventPayload::new()
                .field("attempt", attempt)
                .field("kind", failure_kind(failure))
        });
        if self.dirty {
            self.sim.restore(&self.baseline);
        }
        self.dirty = true;
        {
            let _phase = netdiag_obs::phase_scope(netdiag_obs::Phase::Inject);
            let _inject = recorder.span(names::TRIAL_INJECT);
            apply_failure(&mut self.sim, failure);
        }
        let _phase = netdiag_obs::phase_scope(netdiag_obs::Phase::Measure);
        let _measure = recorder.span(names::TRIAL_MEASURE);
        probe_mesh(&self.sim, &ctx.sensors, &ctx.blocked)
    }
}

/// Memo key of a failure, for the per-placement replay memo. Only classes
/// whose identity is a plain id tuple are memoized; misconfigurations (and
/// combinations containing them) carry prefixes and always re-simulate.
fn failure_key(f: &Failure) -> Option<Vec<u64>> {
    match f {
        Failure::Links(ls) => Some(
            std::iter::once(0u64)
                .chain(ls.iter().map(|l| l.index() as u64))
                .collect(),
        ),
        Failure::Router(r) => Some(vec![1, r.index() as u64]),
        Failure::Misconfig(_) | Failure::Combined(_) => None,
    }
}

/// Runs one failure trial: samples failures until one causes
/// unreachability, then diagnoses and scores. Returns `None` if no
/// unreachability-causing failure of the class could be drawn.
///
/// Convenience wrapper over [`run_trial_with`] that builds a fresh
/// [`TrialScratch`] for this one trial; loops should hold a scratch per
/// placement and call [`run_trial_with`] directly.
pub fn run_trial(ctx: &PlacementContext, cfg: &RunConfig, rng: &mut StdRng) -> Option<TrialResult> {
    let mut scratch = TrialScratch::new(ctx);
    run_trial_with(ctx, cfg, rng, &mut scratch)
}

/// The production trial loop: persistent scratch simulator, incremental
/// reconvergence ([`apply_failure`]), and the placement's replay memo.
/// Produces results identical to [`run_trial_reference`] for the same
/// RNG seed — `tests/parallel_parity.rs` holds the two against each other.
pub fn run_trial_with(
    ctx: &PlacementContext,
    cfg: &RunConfig,
    rng: &mut StdRng,
    scratch: &mut TrialScratch,
) -> Option<TrialResult> {
    let recorder = ctx.sim.recorder().clone();
    // A hit returns a recorded outcome without re-simulating, so it cannot
    // replay the trial's event stream: the memo serves every run except a
    // traced one. Metrics runs keep it and count the hits.
    let memo_on = !recorder.trace_enabled();
    for attempt in 0..MAX_ATTEMPTS {
        let failure = sample_failure_from(
            &ctx.sim,
            &ctx.probed_links,
            &ctx.mesh_before,
            &ctx.sensors,
            cfg.failure,
            rng,
        )?;
        let key = if memo_on { failure_key(&failure) } else { None };
        if let Some(k) = &key {
            let memo = ctx.replay.lock().expect("replay memo poisoned");
            if let Some(hit) = memo.get(k) {
                recorder.add(names::TRIAL_MEMO_HITS, 1);
                match hit {
                    Some(result) => return Some(result.clone()),
                    None => continue, // known fully-rerouted: redraw
                }
            }
        }
        let mesh_after = scratch.attempt(ctx, &failure, attempt, &recorder);
        if mesh_after.failed_count() == 0 {
            if let Some(k) = key {
                ctx.replay
                    .lock()
                    .expect("replay memo poisoned")
                    .insert(k, None);
            }
            continue; // fully rerouted: no unreachability, redraw
        }
        let result = score_trial(ctx, cfg, &mut scratch.sim, failure, mesh_after, &recorder);
        if let Some(k) = key {
            ctx.replay
                .lock()
                .expect("replay memo poisoned")
                .insert(k, Some(result.clone()));
        }
        return Some(result);
    }
    None
}

/// [`prepare_with`] for the single placement named by `seed`, the one
/// `netdiag simulate` writes out and the daemon baseline serves. Failures
/// are then drawn from it with [`draw`].
pub fn prepare_seeded(
    net: &Internet,
    cfg: &RunConfig,
    seed: u64,
    recorder: RecorderHandle,
) -> PlacementContext {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
    let _trial = netdiag_obs::trial_scope(0, netdiag_obs::SETUP_TRIAL);
    prepare_with(net, cfg, &mut rng, recorder)
}

/// One unreachability-causing failure drawn by [`draw`], with the
/// troubleshooter's view of it.
#[derive(Clone, Debug)]
pub struct Drawn {
    /// The injected failure.
    pub failure: Failure,
    /// Number of sensor pairs that lost reachability.
    pub failed_paths: usize,
    /// BGP messages AS-X observed while the network reconverged.
    pub observed_messages: usize,
    /// The `T+` probe mesh.
    pub mesh_after: ProbeMesh,
    /// AS-X's routing-feed delta.
    pub feed: RoutingFeed,
}

impl Drawn {
    /// The troubleshooter's observations: the placement's sensors and
    /// `T-` snapshot, and this draw's `T+` snapshot.
    pub fn observations(&self, ctx: &PlacementContext) -> Observations {
        observations(&ctx.sensors, &ctx.mesh_before, &self.mesh_after)
    }
}

/// Why [`draw`] found no scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DrawError {
    /// No failure of the class can be built on this placement.
    NotSampleable,
    /// Every one of [`MAX_ATTEMPTS`] draws was fully rerouted.
    NeverBroke,
}

impl std::fmt::Display for DrawError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DrawError::NotSampleable => f.write_str("no failure of that class is sampleable here"),
            DrawError::NeverBroke => write!(
                f,
                "no failure of that class broke reachability in {MAX_ATTEMPTS} draws"
            ),
        }
    }
}

impl std::error::Error for DrawError {}

/// Draws failures of class `spec` until one breaks reachability, with
/// the RNG seeded from `seed ^ 0xF00D`. Each draw takes the trial loop's
/// sampling and attempt steps on the caller's `scratch` (built from
/// `ctx`), which is left holding the broken network. There is no
/// diagnosis or scoring: the caller gets the troubleshooter's inputs.
/// Like the trial loop, it skips a failure the placement's replay memo
/// already records as fully rerouted and records each one it finds, so
/// the memo never changes which failure is drawn.
pub fn draw(
    ctx: &PlacementContext,
    scratch: &mut TrialScratch,
    spec: FailureSpec,
    seed: u64,
) -> Result<Drawn, DrawError> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
    draw_with(ctx, scratch, spec, &mut rng)
}

/// [`draw`] with the caller's RNG.
pub fn draw_with(
    ctx: &PlacementContext,
    scratch: &mut TrialScratch,
    spec: FailureSpec,
    rng: &mut StdRng,
) -> Result<Drawn, DrawError> {
    let recorder = ctx.sim.recorder().clone();
    // The trial loop's memo rule: bypassed under a tracer.
    let memo_on = !recorder.trace_enabled();
    for attempt in 0..MAX_ATTEMPTS {
        let failure = sample_failure_from(
            &ctx.sim,
            &ctx.probed_links,
            &ctx.mesh_before,
            &ctx.sensors,
            spec,
            rng,
        )
        .ok_or(DrawError::NotSampleable)?;
        let key = if memo_on { failure_key(&failure) } else { None };
        if let Some(k) = &key {
            let memo = ctx.replay.lock().expect("replay memo poisoned");
            if let Some(None) = memo.get(k) {
                recorder.add(names::TRIAL_MEMO_HITS, 1);
                continue; // known fully-rerouted: redraw
            }
        }
        let mesh_after = scratch.attempt(ctx, &failure, attempt, &recorder);
        if mesh_after.failed_count() == 0 {
            if let Some(k) = key {
                ctx.replay
                    .lock()
                    .expect("replay memo poisoned")
                    .insert(k, None);
            }
            continue; // fully rerouted: no unreachability, redraw
        }
        let (feed, observed_messages) = drain_feed(ctx, &mut scratch.sim);
        return Ok(Drawn {
            failure,
            failed_paths: mesh_after.failed_count(),
            observed_messages,
            mesh_after,
            feed,
        });
    }
    Err(DrawError::NeverBroke)
}

/// The pre-incremental trial loop, frozen as the behavioral baseline: a
/// fresh clone + snapshot per call, full reconvergence per attempt
/// ([`apply_failure_full`]), per-attempt probed-set recomputation, and no
/// memo. [`collect_trials_sequential`](crate::figures::collect_trials_sequential)
/// runs on this path, and tests hold the production loop to it.
pub fn run_trial_reference(
    ctx: &PlacementContext,
    cfg: &RunConfig,
    rng: &mut StdRng,
) -> Option<TrialResult> {
    let recorder = ctx.sim.recorder().clone();
    let mut broken = ctx.sim.clone();
    let baseline = broken.snapshot();
    let mut first_attempt = true;
    for attempt in 0..MAX_ATTEMPTS {
        let failure = sample_failure(&ctx.sim, &ctx.mesh_before, &ctx.sensors, cfg.failure, rng)?;
        if !first_attempt {
            broken.restore(&baseline);
        }
        first_attempt = false;
        recorder.event(names::EV_TRIAL_ATTEMPT, || {
            netdiag_obs::EventPayload::new()
                .field("attempt", attempt)
                .field("kind", failure_kind(&failure))
        });
        {
            let _phase = netdiag_obs::phase_scope(netdiag_obs::Phase::Inject);
            let _inject = recorder.span(names::TRIAL_INJECT);
            apply_failure_full(&mut broken, &failure);
        }
        let mesh_after = {
            let _phase = netdiag_obs::phase_scope(netdiag_obs::Phase::Measure);
            let _measure = recorder.span(names::TRIAL_MEASURE);
            probe_mesh(&broken, &ctx.sensors, &ctx.blocked)
        };
        if mesh_after.failed_count() == 0 {
            continue; // fully rerouted: no unreachability, redraw
        }
        return Some(score_trial(
            ctx,
            cfg,
            &mut broken,
            failure,
            mesh_after,
            &recorder,
        ));
    }
    None
}

/// Shared tail of a successful trial: drains the broken simulator's
/// observation buffers, runs every diagnosis algorithm, and scores them
/// against ground truth. Identical for the production and reference loops.
fn score_trial(
    ctx: &PlacementContext,
    cfg: &RunConfig,
    broken: &mut Sim,
    failure: Failure,
    mesh_after: ProbeMesh,
    recorder: &RecorderHandle,
) -> TrialResult {
    let topology = ctx.sim.topology();
    let obs = observations(&ctx.sensors, &ctx.mesh_before, &mesh_after);
    let (feed, _) = drain_feed(ctx, broken);
    let truth = TruthMap::build(topology, &ctx.mesh_before, &mesh_after);
    let ip2as = TruthIpToAs { topology };

    let failed_sites: BTreeSet<LinkId> = failure
        .all_failure_sites(&ctx.sim)
        .into_iter()
        .filter(|l| truth.probed_links().contains(l))
        .collect();

    // The troubleshooting system records Looking Glass AS paths alongside
    // its periodic baseline mesh, so UH mapping of the pre-failure paths
    // uses the pre-failure LG views (after the failure, sources toward
    // dead destinations have no AS path to report at all).
    let lg = SimLookingGlass {
        sim: &ctx.sim,
        available: &ctx.lg_available,
    };
    let weights = cfg.diagnostics.weights;
    let diagnose = |algorithm| {
        run(
            algorithm,
            &obs,
            &ip2as,
            Some(&feed),
            Some(&lg),
            weights,
            recorder,
        )
    };

    let diagnose_phase = netdiag_obs::phase_scope(netdiag_obs::Phase::Diagnose);
    let diagnose_span = recorder.span(names::TRIAL_DIAGNOSE);
    let d_tomo = diagnose(Algorithm::Tomo);
    let d_edge = diagnose(Algorithm::NdEdge);
    let d_bgpigp = diagnose(Algorithm::NdBgpIgp);

    let router_detected = match failure {
        Failure::Router(r) => {
            let links: BTreeSet<LinkId> = topology.router(r).links.iter().copied().collect();
            let hyp = truth.hypothesis_links(&d_edge);
            Some(hyp.intersection(&links).next().is_some())
        }
        _ => None,
    };

    // ND-LG is scored only when some AS blocks traceroute.
    let nd_lg_eval = (!ctx.blocked.is_empty()).then(|| {
        let d = diagnose(Algorithm::NdLg);
        evaluate(topology, &truth, &d, &failed_sites)
    });
    drop(diagnose_span);
    drop(diagnose_phase);

    TrialResult {
        failed_paths: mesh_after.failed_count(),
        tomo: evaluate(topology, &truth, &d_tomo, &failed_sites),
        nd_edge: evaluate(topology, &truth, &d_edge, &failed_sites),
        nd_bgpigp: evaluate(topology, &truth, &d_bgpigp, &failed_sites),
        nd_lg: nd_lg_eval,
        router_detected,
        failure,
        failed_sites,
    }
}

/// AS-X's routing-feed delta after a failure, built by draining the
/// broken simulator's observation buffers, and how many BGP messages AS-X
/// observed.
fn drain_feed(ctx: &PlacementContext, broken: &mut Sim) -> (RoutingFeed, usize) {
    let observed = broken.take_observed();
    let igp_events = broken.take_igp_events();
    let feed = routing_feed(ctx.sim.topology(), ctx.observer, &observed, &igp_events);
    (feed, observed.len())
}

/// Short event label for a failure class.
fn failure_kind(f: &Failure) -> &'static str {
    match f {
        Failure::Links(_) => "links",
        Failure::Router(_) => "router",
        Failure::Misconfig(_) => "misconfig",
        Failure::Combined(_) => "combined",
    }
}
