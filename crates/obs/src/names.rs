//! The workspace's metric and trace-event vocabulary.
//!
//! Names follow a `layer.metric` scheme so reports group naturally when
//! sorted. Every instrumented crate pulls its constants from here — the
//! single place a future perf PR looks to see what is already measured.
//!
//! Structured trace events (the `EV_*` constants) share the registry so
//! the xtask `obs-unknown-name`/`obs-dead-name` lints keep the trace
//! vocabulary honest exactly like metric names.

// --- igp: link-state SPF ---------------------------------------------------

/// Counter: Dijkstra runs (one per router per AS recompute).
pub const IGP_SPF_RUNS: &str = "igp.spf_runs";
/// Counter: nodes settled across all SPF runs.
pub const IGP_SETTLED_NODES: &str = "igp.settled_nodes";
/// Counter: sources recomputed by delta-SPF (the affected cone — compare
/// against `igp.spf_runs` to see how much work the delta path skipped).
pub const IGP_SPF_DELTA_NODES: &str = "igp.spf.delta_nodes";

// --- bgp: message-driven convergence ---------------------------------------

/// Counter: BGP messages delivered (update + withdraw).
pub const BGP_MSGS: &str = "bgp.msgs";
/// Counter: decision-process invocations.
pub const BGP_DECISIONS: &str = "bgp.decisions";
/// Counter: `Bgp::run` convergence rounds.
pub const BGP_RUNS: &str = "bgp.runs";
/// Counter: prefixes inspected by scoped BGP replay after a failure (the
/// per-session adj-in index keeps this far below a full-table refresh).
pub const BGP_REPLAY_PREFIXES_SCOPED: &str = "bgp.replay.prefixes_scoped";

// --- sim: copy-on-write snapshots -------------------------------------------

/// Counter: copy-on-write breaks — shared per-AS IGP tables or per-router
/// BGP state cloned because a mutation touched them.
pub const SIM_SNAPSHOT_COW_BREAKS: &str = "sim.snapshot.cow_breaks";

// --- probe: simulated measurements -----------------------------------------

/// Counter: traceroutes rendered.
pub const PROBE_TRACEROUTES: &str = "probe.traceroutes";
/// Counter: hops across all traceroutes.
pub const PROBE_HOPS: &str = "probe.hops";
/// Counter: hops that answered with a star (blocked AS).
pub const PROBE_BLOCKED_HOPS: &str = "probe.blocked_hops";

// --- hs: minimum hitting set ------------------------------------------------

/// Counter: greedy Algorithm-1 iterations (one per selected edge).
pub const HS_GREEDY_ITERS: &str = "hs.greedy_iters";
/// Histogram: candidate-edge count per solved instance.
pub const HS_CANDIDATES: &str = "hs.candidates";
/// Counter: bitset words touched by greedy scoring (popcount loops).
pub const HS_WORDS_SCANNED: &str = "hitting_set.words_scanned";

// --- feed: routing-data integration (ND-bgpigp) -----------------------------

/// Counter: edges forced into the hypothesis by IGP link-down messages.
pub const FEED_FORCED_EDGES: &str = "feed.forced_edges";
/// Counter: edges exonerated from failure sets by BGP withdrawals.
pub const FEED_EXONERATED_EDGES: &str = "feed.exonerated_edges";

// --- diag: whole-diagnosis results ------------------------------------------

/// Counter: diagnosis runs through the facade or algorithm entry points.
pub const DIAG_RUNS: &str = "diag.runs";
/// Histogram: hypothesis-set size per diagnosis.
pub const DIAG_HYPOTHESIS_SIZE: &str = "diag.hypothesis_size";

// --- report: structured diagnostic reports ----------------------------------

/// Counter: structured `DiagnosticReport`s built from diagnoses.
pub const REPORT_BUILDS: &str = "report.builds";
/// Histogram: issue count per built report.
pub const REPORT_ISSUES: &str = "report.issues";

// --- serve: the diagnosis daemon --------------------------------------------

/// Counter: client connections accepted by the daemon.
pub const SERVE_CONNECTIONS: &str = "serve.connections";
/// Counter: protocol requests handled (any op, success or error).
pub const SERVE_REQUESTS: &str = "serve.requests";
/// Counter: requests answered with an error response.
pub const SERVE_ERRORS: &str = "serve.errors";
/// Span: one diagnose request, from dequeue to serialized response.
pub const SERVE_REQUEST: &str = "serve.request";
/// Gauge: pool queue depth — raised on submit, lowered when a worker
/// dequeues; current + high-water in stats (a level, not a histogram:
/// the counter/series API would monotone-aggregate a value that is
/// supposed to go back down).
pub const SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";
/// Span: time a diagnose request waited in the pool queue (submit to
/// worker pickup).
pub const SERVE_PHASE_QUEUE: &str = "serve.phase.queue";
/// Span: restoring the converged baseline snapshot for one request.
pub const SERVE_PHASE_RESTORE: &str = "serve.phase.restore";
/// Span: running the diagnosis algorithm for one request.
pub const SERVE_PHASE_DIAGNOSE: &str = "serve.phase.diagnose";
/// Span: rendering the response (report build + serialization).
pub const SERVE_PHASE_RENDER: &str = "serve.phase.render";
/// Counter: flight-recorder dumps written (requests that breached the
/// latency SLO and had their trace tail-sampled to JSONL).
pub const SERVE_FLIGHT_DUMPS: &str = "serve.flight_dumps";

// --- trial: experiment-runner phases (span names) ---------------------------

/// Span: failure injection + reconvergence of one trial.
pub const TRIAL_INJECT: &str = "trial.inject";
/// Span: post-failure probe mesh measurement of one trial.
pub const TRIAL_MEASURE: &str = "trial.measure";
/// Span: diagnosis algorithm execution of one trial.
pub const TRIAL_DIAGNOSE: &str = "trial.diagnose";
/// Span: topology + control-plane setup of one placement.
pub const TRIAL_SETUP: &str = "trial.setup";
/// Counter: trial units a pool worker stole from another placement's
/// queue after draining its own.
pub const TRIAL_POOL_STEAL: &str = "trial.pool.steal";
/// Counter: trial draws answered from the placement's replay memo (a
/// failure already simulated for this placement) instead of simulated.
pub const TRIAL_MEMO_HITS: &str = "trial.memo_hits";

// --- trace events: causal per-trial streams ----------------------------------
//
// Emitted through `RecorderHandle::event` with typed payloads; payload
// fields are documented at the emission site. `layer.event` naming keeps
// them sorted next to the layer's metrics.

/// Event: one AS-wide SPF recompute (payload: as id, routers, settled).
pub const EV_IGP_SPF: &str = "igp.spf_recompute";
/// Event: one BGP message delivered (payload: kind, from, to, prefix).
pub const EV_BGP_MESSAGE: &str = "bgp.message";
/// Event: a BGP session changed state (payload: state, endpoints).
pub const EV_BGP_SESSION: &str = "bgp.session_state";
/// Event: one traceroute rendered (payload: src, dst, reached, hops
/// with `*` for blocked answers).
pub const EV_PROBE_TRACEROUTE: &str = "probe.traceroute";
/// Event: one physical link failed in the simulator.
pub const EV_SIM_LINK_FAIL: &str = "sim.link_fail";
/// Event: one physical link repaired in the simulator.
pub const EV_SIM_LINK_REPAIR: &str = "sim.link_repair";
/// Event: a diagnosis algorithm started (payload: algorithm).
pub const EV_DIAG_START: &str = "diag.start";
/// Event: problem instance built (payload: candidate/failure/reroute
/// counts, pair names and edge labels for replay).
pub const EV_DIAG_PROBLEM: &str = "diag.problem_built";
/// Event: ND-LG tagged one unidentified hop with candidate ASes
/// (payload: path as snapshot and sensor pair, hop index, candidate ASes
/// and the Looking Glass AS path they were read from).
pub const EV_DIAG_LG_TAG: &str = "diag.lg_tag";
/// Event: one reroute set constructed (payload: pair, excluded edges).
pub const EV_DIAG_REROUTE_SET: &str = "diag.reroute_set";
/// Event: diagnosis finished (payload: algorithm, hypothesis labels,
/// forced edges, unexplained failure pairs).
pub const EV_DIAG_DONE: &str = "diag.done";
/// Event: an IGP link-down message forced an edge into the hypothesis.
pub const EV_FEED_FORCED: &str = "feed.igp_forced";
/// Event: a BGP withdrawal exonerated an edge from failure sets.
pub const EV_FEED_EXONERATED: &str = "feed.bgp_exonerated";
/// Event: greedy hitting set started (payload: candidates, failures).
pub const EV_HS_BEGIN: &str = "hs.begin";
/// Event: greedy picked one edge (payload: iteration, edge, score,
/// newly covered failure/reroute observation indices, remaining).
pub const EV_HS_PICK: &str = "hs.pick";
/// Event: the runner drew (or redrew) a candidate failure for a trial.
pub const EV_TRIAL_ATTEMPT: &str = "trial.attempt";
