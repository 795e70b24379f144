//! The `converge-1k` workload: full-RIB BGP convergence of a generated
//! 1,000-AS internet on one thread.
//!
//! All of the work is the BGP message plane (plus the initial SPF); no
//! diagnosis or daemon code runs, so this is the control for changes to
//! `core` and `serve`.

use std::sync::Arc;
use std::time::Instant;

use netdiag_netsim::Sim;
use netdiag_topology::gen::{generate, GenConfig};
use netdiag_topology::Topology;

use crate::measure::{median, peak_rss_mib, process_cpu, Outcome};
use crate::{repeat_for, Params};

/// ASes of the generated internet.
pub(crate) fn ases(p: &Params) -> usize {
    if p.quick {
        150
    } else {
        1000
    }
}

/// BGP messages a full convergence of the seed-1 1k-AS internet
/// delivers (pinned since the flat substrate landed).
pub(crate) const SEED1_MESSAGES: u64 = 1_684_843;
/// Generations (each with a warm-up convergence) per run; `setup_s` is
/// their median.
const SETUP_REPS: usize = 3;

/// The generated topology for `seed`.
fn topology(p: &Params) -> Result<Arc<Topology>, String> {
    generate(&GenConfig::new(ases(p), p.seed))
        .map(|g| Arc::new(g.topology))
        .map_err(|e| format!("generation failed: {e}"))
}

/// Converges every prefix, on one thread or sharded over `threads`.
pub(crate) fn converge(topology: &Arc<Topology>, threads: usize) -> Sim {
    if threads > 1 {
        let mut sim = Sim::new_parallel(Arc::clone(topology), threads);
        sim.converge_all_sharded(threads);
        sim
    } else {
        let mut sim = Sim::new(Arc::clone(topology));
        sim.converge_all();
        sim
    }
}

/// Loc-RIB routes summed over every router.
fn rib_routes(sim: &Sim) -> u64 {
    sim.topology()
        .routers()
        .iter()
        .map(|r| sim.bgp().loc_rib(r.id).count() as u64)
        .sum()
}

/// Do two converged simulators hold identical Loc-RIBs everywhere?
fn same_ribs(a: &Sim, b: &Sim) -> bool {
    a.topology()
        .routers()
        .iter()
        .all(|r| a.bgp().loc_rib(r.id).eq(b.bgp().loc_rib(r.id)))
}

/// The e2e run: one-thread convergences for `--seconds`. One converged
/// simulator is alive at a time, so `rss_peak_mb` is the footprint of one
/// full RIB; the two-thread check runs after it is read.
pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut warm = None;
    for _ in 0..SETUP_REPS {
        drop(warm.take());
        let t0 = Instant::now();
        let topology = match topology(p) {
            Ok(t) => t,
            Err(e) => {
                out.problems.push(e);
                return out;
            }
        };
        let sim = converge(&topology, 1);
        setups.push(t0.elapsed().as_secs_f64());
        warm = Some((topology, sim));
    }
    let Some((topology, warm)) = warm else {
        return out;
    };
    let messages = warm.bgp_messages();
    let full = (topology.router_count() * topology.as_count()) as u64;
    let routes = rib_routes(&warm);
    out.check(routes == full, || {
        format!("partial RIB: {routes} of {full} routes")
    });
    if p.seed == 1 && ases(p) == 1000 {
        out.check(messages == SEED1_MESSAGES, || {
            format!("{messages} messages at seed 1, pinned {SEED1_MESSAGES}")
        });
    }

    let mut walls = Vec::new();
    let mut last = Some(warm);
    let cpu0 = process_cpu();
    repeat_for(p.seconds, 3, |_| {
        drop(last.take());
        let t0 = Instant::now();
        let sim = converge(&topology, 1);
        walls.push(t0.elapsed().as_secs_f64());
        out.attempted += 1;
        out.failed += u64::from(sim.bgp_messages() != messages);
        last = Some(sim);
    });
    let cpu = process_cpu().saturating_sub(cpu0).as_secs_f64();
    let rss = peak_rss_mib();
    if let Some(last) = &last {
        let sharded = converge(&topology, 2);
        out.check(
            sharded.bgp_messages() == messages && same_ribs(&sharded, last),
            || "sharded(2) convergence differs from one thread".to_owned(),
        );
    }
    eprintln!(
        "converge: {} runs, median {:.1} ms, {:.1} ms CPU each, {messages} messages",
        walls.len(),
        median(&walls) * 1e3,
        cpu * 1e3 / walls.len() as f64
    );
    out.push("setup_s", "s", median(&setups));
    out.push("rss_peak_mb", "MiB", rss);
    out
}
