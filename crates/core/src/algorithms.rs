//! The four diagnosis algorithms of the paper: Tomo, ND-edge, ND-bgpigp
//! and ND-LG, run by one pipeline ([`run`]) whose steps the [`Algorithm`]
//! variant picks.

use std::collections::{BTreeMap, BTreeSet};

use netdiag_obs::{names, RecorderHandle};
use netdiag_topology::AsId;

use crate::diagnosis::Diagnosis;
use crate::graph::{EdgeId, Epoch, HopNode, PathRef};
use crate::hitting_set::Weights;
use crate::observation::{Hop, IpToAs, LookingGlass, Observations, ProbePath, RoutingFeed};
use crate::problem::{BuildOptions, Problem};

/// Which diagnosis algorithm to run.
///
/// The four variants are one pipeline that grows a step at a time; the
/// methods below name the steps a variant takes, and [`run`] takes them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum Algorithm {
    /// Plain multi-AS Boolean tomography (§2).
    Tomo,
    /// Logical links + reroute sets (§3.1–3.2) — the best choice without
    /// ISP cooperation.
    #[default]
    NdEdge,
    /// ND-edge + AS-X's control plane (§3.3) — requires a routing feed.
    NdBgpIgp,
    /// ND-bgpigp + Looking Glass mapping of unidentified hops (§3.4).
    NdLg,
}

impl Algorithm {
    /// Every variant, in paper order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Tomo,
        Algorithm::NdEdge,
        Algorithm::NdBgpIgp,
        Algorithm::NdLg,
    ];

    /// The canonical (CLI and [`Display`](std::fmt::Display)) name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Tomo => "tomo",
            Algorithm::NdEdge => "nd-edge",
            Algorithm::NdBgpIgp => "nd-bgpigp",
            Algorithm::NdLg => "nd-lg",
        }
    }

    /// How the variant builds its problem.
    pub(crate) fn build_options(self) -> BuildOptions {
        match self {
            Algorithm::Tomo => BuildOptions::tomo(),
            Algorithm::NdEdge | Algorithm::NdBgpIgp => BuildOptions::nd_edge(),
            Algorithm::NdLg => BuildOptions::nd_lg(),
        }
    }

    /// True when the variant refines its problem with AS-X's routing
    /// feed (§3.3).
    pub fn reads_feed(self) -> bool {
        matches!(self, Algorithm::NdBgpIgp | Algorithm::NdLg)
    }

    /// True when the variant maps unidentified hops with Looking Glass
    /// queries and clusters the links between them (§3.4).
    pub fn reads_looking_glass(self) -> bool {
        self == Algorithm::NdLg
    }

    /// The greedy scoring weights the variant runs with: Tomo ignores
    /// reroute sets (`a = 1, b = 0`); the others take `configured`.
    pub(crate) fn weights(self, configured: Weights) -> Weights {
        match self {
            Algorithm::Tomo => Weights { a: 1, b: 0 },
            _ => configured,
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "tomo" => Ok(Algorithm::Tomo),
            "nd-edge" | "nd_edge" => Ok(Algorithm::NdEdge),
            "nd-bgpigp" | "nd_bgpigp" => Ok(Algorithm::NdBgpIgp),
            "nd-lg" | "nd_lg" => Ok(Algorithm::NdLg),
            other => Err(format!("unknown algorithm {other:?}")),
        }
    }
}

/// Runs `algorithm` on `obs`: the one diagnosis pipeline behind the
/// paper-named functions, [`NetDiagnoser`](crate::NetDiagnoser) and the
/// experiment runner.
///
/// Builds the variant's problem (Tomo: pre-failure graph only; ND-edge
/// and ND-bgpigp: plus logical links and reroute sets; ND-LG: plus
/// unidentified links as candidates), tags unidentified hops from `lg`
/// when the variant [reads a Looking Glass](Algorithm::reads_looking_glass),
/// refines the problem with `feed` when it
/// [reads the feed](Algorithm::reads_feed), then runs the greedy hitting
/// set (with ND-LG's link clusters) under `weights`, or Tomo's fixed
/// `a = 1, b = 0`. Inputs the variant does not read are ignored; one it
/// reads but that is `None` skips its step.
pub fn run(
    algorithm: Algorithm,
    obs: &Observations,
    ip2as: &dyn IpToAs,
    feed: Option<&RoutingFeed>,
    lg: Option<&dyn LookingGlass>,
    weights: Weights,
    recorder: &RecorderHandle,
) -> Diagnosis {
    recorder.event(names::EV_DIAG_START, || {
        netdiag_obs::EventPayload::new().field("algorithm", algorithm.name())
    });
    let mut problem = Problem::build_recorded(obs, ip2as, algorithm.build_options(), recorder);
    if let Some(lg) = lg.filter(|_| algorithm.reads_looking_glass()) {
        tag_unidentified_hops(&mut problem, obs, ip2as, lg, recorder);
    }
    if let Some(feed) = feed.filter(|_| algorithm.reads_feed()) {
        problem.apply_feed_recorded(obs, feed, recorder);
    }
    trace_problem(&problem, recorder);
    let mut instance = problem.instance();
    if algorithm.reads_looking_glass() {
        instance.clusters = build_clusters(&problem);
    }
    let greedy = instance.greedy_recorded(algorithm.weights(weights), recorder);
    finish(Diagnosis::new(problem, greedy), algorithm.name(), recorder)
}

/// **Tomo** (§2.4): multi-source multi-destination Boolean tomography on
/// the pre-failure graph — the greedy minimum-hitting-set heuristic of
/// Algorithm 1. Uses only the pre-failure paths plus the post-failure
/// reachability matrix; no logical links, no reroute information.
pub fn tomo(obs: &Observations, ip2as: &dyn IpToAs) -> Diagnosis {
    run(
        Algorithm::Tomo,
        obs,
        ip2as,
        None,
        None,
        Weights::default(),
        &RecorderHandle::noop(),
    )
}

/// **ND-edge** (§3.1–§3.2): Tomo plus logical links (per-neighbor
/// inter-domain link splitting, catching router misconfigurations) and
/// reroute sets mined from the post-failure paths.
pub fn nd_edge(obs: &Observations, ip2as: &dyn IpToAs, weights: Weights) -> Diagnosis {
    run(
        Algorithm::NdEdge,
        obs,
        ip2as,
        None,
        None,
        weights,
        &RecorderHandle::noop(),
    )
}

/// **ND-bgpigp** (§3.3): ND-edge refined with AS-X's control plane — IGP
/// link-down events force edges into the hypothesis; BGP withdrawals
/// exonerate upstream links on failed paths.
pub fn nd_bgpigp(
    obs: &Observations,
    ip2as: &dyn IpToAs,
    feed: &RoutingFeed,
    weights: Weights,
) -> Diagnosis {
    run(
        Algorithm::NdBgpIgp,
        obs,
        ip2as,
        Some(feed),
        None,
        weights,
        &RecorderHandle::noop(),
    )
}

/// **ND-LG** (§3.4): ND-bgpigp extended to handle blocked traceroutes.
/// Unidentified hops are mapped to candidate ASes via Looking Glass
/// AS-path queries; unidentified links that may be the same physical link
/// are clustered so one pick explains all of their path failures.
pub fn nd_lg(
    obs: &Observations,
    ip2as: &dyn IpToAs,
    feed: &RoutingFeed,
    lg: &dyn LookingGlass,
    weights: Weights,
) -> Diagnosis {
    run(
        Algorithm::NdLg,
        obs,
        ip2as,
        Some(feed),
        Some(lg),
        weights,
        &RecorderHandle::noop(),
    )
}

/// Emits the problem-shape trace event after construction (and feed
/// refinement, where applicable): set counts, sensor-pair names, and an
/// id→label table for every edge later events may reference.
fn trace_problem(problem: &Problem, recorder: &RecorderHandle) {
    recorder.event(names::EV_DIAG_PROBLEM, || {
        let pair = |s: &crate::problem::PathSet| -> netdiag_obs::Value {
            format!("s{}->s{}", s.src.index(), s.dst.index()).into()
        };
        let failure_pairs: Vec<netdiag_obs::Value> =
            problem.failure_sets.iter().map(pair).collect();
        let reroute_pairs: Vec<netdiag_obs::Value> =
            problem.reroute_sets.iter().map(pair).collect();
        let mut referenced: BTreeSet<EdgeId> = problem.candidates.iter().collect();
        referenced.extend(problem.forced.iter().copied());
        for s in problem
            .failure_sets
            .iter()
            .chain(problem.reroute_sets.iter())
        {
            referenced.extend(s.edges.iter());
        }
        let edge_labels: Vec<netdiag_obs::Value> = referenced
            .iter()
            .map(|&e| {
                netdiag_obs::Value::List(vec![e.index().into(), problem.graph.edge_label(e).into()])
            })
            .collect();
        netdiag_obs::EventPayload::new()
            .field("edges", problem.graph.edge_count())
            .field("candidates", problem.candidates.len())
            .field("failures", problem.failure_sets.len())
            .field("reroutes", problem.reroute_sets.len())
            .field("failure_pairs", failure_pairs)
            .field("reroute_pairs", reroute_pairs)
            .field("edge_labels", edge_labels)
    });
}

/// Records the per-diagnosis counters once a hypothesis exists.
fn finish(diagnosis: Diagnosis, algorithm: &'static str, recorder: &RecorderHandle) -> Diagnosis {
    if recorder.enabled() {
        recorder.add(names::DIAG_RUNS, 1);
        recorder.observe(names::DIAG_HYPOTHESIS_SIZE, diagnosis.len() as u64);
    }
    recorder.event(names::EV_DIAG_DONE, || {
        let ids: Vec<netdiag_obs::Value> = diagnosis
            .hypothesis
            .iter()
            .map(|&e| e.index().into())
            .collect();
        let labels: Vec<netdiag_obs::Value> = diagnosis
            .hypothesis
            .iter()
            .map(|&e| diagnosis.problem.graph.edge_label(e).into())
            .collect();
        let forced: Vec<netdiag_obs::Value> = diagnosis
            .problem
            .forced
            .iter()
            .map(|&e| e.index().into())
            .collect();
        let unexplained: Vec<netdiag_obs::Value> = diagnosis
            .greedy
            .unexplained_failures
            .iter()
            .map(|&i| i.into())
            .collect();
        netdiag_obs::EventPayload::new()
            .field("algorithm", algorithm)
            .field("hypothesis", ids)
            .field("labels", labels)
            .field("forced", forced)
            .field("unexplained_failures", unexplained)
    });
    diagnosis
}

/// Maps every unidentified hop to a candidate-AS tag using Looking Glass
/// AS paths (first step of ND-LG), with one trace event per tagged hop.
fn tag_unidentified_hops(
    problem: &mut Problem,
    obs: &Observations,
    ip2as: &dyn IpToAs,
    lg: &dyn LookingGlass,
    recorder: &RecorderHandle,
) {
    let epochs: [(Epoch, &[ProbePath]); 2] = [
        (Epoch::Before, &obs.before.paths),
        (Epoch::After, &obs.after.paths),
    ];
    for (epoch, paths) in epochs {
        if epoch == Epoch::After && problem.after_edges.is_empty() {
            continue; // after-snapshot not part of the graph
        }
        for (index, path) in paths.iter().enumerate() {
            if !path.hops.iter().any(|h| matches!(h, Hop::Star)) {
                continue;
            }
            let path_ref = PathRef { epoch, index };
            tag_path(problem, obs, ip2as, lg, path, path_ref, recorder);
        }
    }
}

/// Tags the star runs of one path.
fn tag_path(
    problem: &mut Problem,
    obs: &Observations,
    ip2as: &dyn IpToAs,
    lg: &dyn LookingGlass,
    path: &ProbePath,
    path_ref: PathRef,
    recorder: &RecorderHandle,
) {
    let src_as = obs.sensor(path.src).as_id;
    let dst_addr = obs.sensor(path.dst).addr;
    let hop_as: Vec<Option<AsId>> = path
        .hops
        .iter()
        .map(|h| match h {
            Hop::Addr(a) => ip2as.as_of(*a),
            Hop::Star => None,
        })
        .collect();

    // Query the source AS's Looking Glass, else the first available one
    // along the path (§3.4).
    let mut lg_path = lg.as_path(src_as, dst_addr);
    if lg_path.is_none() {
        let mut tried = BTreeSet::from([src_as]);
        for a in hop_as.iter().flatten() {
            if tried.insert(*a) {
                lg_path = lg.as_path(*a, dst_addr);
                if lg_path.is_some() {
                    break;
                }
            }
        }
    }
    // Without any Looking Glass the unidentified hops cannot be mapped at
    // all — they could belong to any AS between the flanks.
    let Some(lg_path) = lg_path else {
        return;
    };
    let as_list = |ases: &mut dyn Iterator<Item = &AsId>| -> netdiag_obs::Value {
        netdiag_obs::Value::List(ases.map(|a| a.0.into()).collect())
    };

    // Walk maximal star runs.
    let mut i = 0;
    while i < path.hops.len() {
        if !matches!(path.hops[i], Hop::Star) {
            i += 1;
            continue;
        }
        let start = i;
        while i < path.hops.len() && matches!(path.hops[i], Hop::Star) {
            i += 1;
        }
        let end = i; // run = [start, end)
        let a_prev = hop_as[..start]
            .iter()
            .rev()
            .flatten()
            .next()
            .copied()
            .unwrap_or(src_as);
        let a_next = hop_as[end..].iter().flatten().next().copied();
        let tag = derive_tag(&lg_path, a_prev, a_next);
        if tag.is_empty() {
            continue;
        }
        for pos in start..end {
            if let Some(node) = problem.graph.node_id(&HopNode::Uh(path_ref, pos)) {
                problem.graph.set_tag(node, tag.clone());
                recorder.event(names::EV_DIAG_LG_TAG, || {
                    let epoch = if path_ref.epoch == Epoch::Before {
                        "before"
                    } else {
                        "after"
                    };
                    let (src, dst) = (path.src.index(), path.dst.index());
                    netdiag_obs::EventPayload::new()
                        .field("path", format!("{epoch} s{src}->s{dst}"))
                        .field("hop", pos)
                        .field("candidates", as_list(&mut tag.iter()))
                        .field("lg_path", as_list(&mut lg_path.iter()))
                });
            }
        }
    }
}

/// Derives the candidate-AS tag of a star run flanked by known ASes,
/// given the Looking Glass AS path (§3.4: a single AS between the flanks
/// gives an exact tag; several give a combined tag like `{B, D}`).
fn derive_tag(lg_path: &[AsId], a_prev: AsId, a_next: Option<AsId>) -> BTreeSet<AsId> {
    if let Some(pa) = lg_path.iter().position(|&a| a == a_prev) {
        let after = &lg_path[pa + 1..];
        let between = match a_next {
            Some(next) => after
                .iter()
                .position(|&a| a == next)
                .map(|rel| &after[..rel]),
            None => Some(after),
        };
        if let Some(between) = between.filter(|b| !b.is_empty()) {
            return between.iter().copied().collect();
        }
    }
    // Fallback: the flanking ASes themselves.
    let mut tag = BTreeSet::from([a_prev]);
    tag.extend(a_next);
    tag
}

/// Builds the link clusters of §3.4 among unidentified candidate edges:
/// two unidentified links may be the same physical link when (i) their
/// endpoint AS tags match, (ii) they lie on different paths, and (iii)
/// they appear in the same number of failure sets.
fn build_clusters(problem: &Problem) -> BTreeMap<EdgeId, Vec<EdgeId>> {
    struct Info {
        edge: EdgeId,
        tag_from: Option<BTreeSet<AsId>>,
        tag_to: Option<BTreeSet<AsId>>,
        path: PathRef,
        failures: usize,
    }
    let infos: Vec<Info> = problem
        .candidates
        .iter()
        .filter(|&e| problem.graph.is_unidentified(e))
        .filter_map(|e| {
            let d = problem.graph.edge(e);
            let (from_key, to_key) = problem.graph.endpoints(e);
            // The path identity comes from the Uh endpoint.
            let path = match (from_key, to_key) {
                (HopNode::Uh(p, _), _) | (_, HopNode::Uh(p, _)) => p,
                _ => return None,
            };
            let failures = problem
                .failure_sets
                .iter()
                .filter(|s| s.edges.contains(e))
                .count();
            Some(Info {
                edge: e,
                tag_from: problem.graph.node(d.from).tag.clone(),
                tag_to: problem.graph.node(d.to).tag.clone(),
                path,
                failures,
            })
        })
        .collect();

    let matches = |a: &Info, b: &Info| -> bool {
        a.path != b.path
            && a.failures == b.failures
            && a.tag_from.is_some()
            && a.tag_to.is_some()
            && a.tag_from == b.tag_from
            && a.tag_to == b.tag_to
    };

    // Greedy grouping in deterministic (EdgeId) order.
    let mut group_of: BTreeMap<EdgeId, usize> = BTreeMap::new();
    let mut groups: Vec<Vec<EdgeId>> = Vec::new();
    for (i, info) in infos.iter().enumerate() {
        if group_of.contains_key(&info.edge) {
            continue;
        }
        let gid = groups.len();
        let mut members = vec![info.edge];
        group_of.insert(info.edge, gid);
        for other in &infos[i + 1..] {
            if !group_of.contains_key(&other.edge) && matches(info, other) {
                group_of.insert(other.edge, gid);
                members.push(other.edge);
            }
        }
        groups.push(members);
    }

    let mut clusters = BTreeMap::new();
    for members in groups.iter().filter(|g| g.len() > 1) {
        for &e in members {
            clusters.insert(
                e,
                members
                    .iter()
                    .copied()
                    .filter(|&m| m != e)
                    .collect::<Vec<_>>(),
            );
        }
    }
    clusters
}
