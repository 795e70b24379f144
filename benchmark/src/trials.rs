//! The `trials-1link` and `trials-3link` workloads: the paper's trial
//! grid (10 placements x 100 failures) through `collect_trials` on two
//! threads.
//!
//! One-link failures are Fig 6/8's workload: draws often repeat a
//! failure, so the replay memo hits, reconvergence cones are small and
//! placement preparation is a large share. Three-link failures are Fig
//! 7/10's: the memo almost never hits, cones are about 3x larger and the
//! failure/reroute set families grow, so failure replay and the greedy
//! dominate. A change that helps one at the other's cost shows here.

use std::time::Instant;

use netdiag_experiments::figures::{collect_trials, FigureConfig};
use netdiag_experiments::runner::{RunConfig, TrialResult};
use netdiag_experiments::sampling::FailureSpec;
use netdiag_topology::builders::{build_internet, Internet, InternetConfig};

use crate::measure::{mean, median, peak_rss_mib, process_cpu, Outcome};
use crate::{repeat_for, Params, PAPER_TOPOLOGY_SEED};

/// Worker threads of the measured pool (at most `nproc` = 2).
pub(crate) const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// The paper's evaluation internet.
pub(crate) fn internet() -> Internet {
    build_internet(&InternetConfig {
        seed: PAPER_TOPOLOGY_SEED,
        ..InternetConfig::default()
    })
}

/// One grid's configuration: `base_seed` picks placements and failures.
pub(crate) fn grid(
    placements: usize,
    failures_per_placement: usize,
    base_seed: u64,
    threads: usize,
) -> FigureConfig {
    FigureConfig {
        placements,
        failures_per_placement,
        topology_seed: PAPER_TOPOLOGY_SEED,
        base_seed,
        threads,
        ..FigureConfig::default()
    }
}

/// The paper grid, 10 placements x 100 failures (2 x 10 when quick).
pub(crate) fn paper_grid(p: &Params, base_seed: u64, threads: usize) -> FigureConfig {
    if p.quick {
        grid(2, 10, base_seed, threads)
    } else {
        grid(10, 100, base_seed, threads)
    }
}

/// Set-up of a run: the topology build and the preparation of the
/// first grid's placements (control-plane convergence and the `T-` probe
/// mesh), through `collect_trials` on a grid with no trials. It runs on
/// one thread: pool threads started here would leave allocator arenas
/// behind, and `rss_peak_mb` would count them.
fn set_up(cfg: &RunConfig, p: &Params, base_seed: u64) -> Internet {
    let net = internet();
    let empty = FigureConfig {
        failures_per_placement: 0,
        ..paper_grid(p, base_seed, 1)
    };
    drop(collect_trials(&net, cfg, &empty));
    net
}

/// The trial configuration for `links` simultaneous link failures.
pub(crate) fn run_config(links: usize) -> RunConfig {
    RunConfig {
        failure: FailureSpec::Links(links),
        ..RunConfig::default()
    }
}

/// The lowest mean ND-edge sensitivity a correct diagnoser reaches on
/// `links`-link failures. Over a run's grids the mean measures
/// 0.989-0.994 for one link and about 0.91 for three (as EXPERIMENTS.md
/// reports), whatever the seed.
pub(crate) fn sensitivity_floor(links: usize) -> f64 {
    if links == 1 {
        0.98
    } else {
        0.85
    }
}

/// The e2e run: paper grids on two threads for `--seconds`.
pub fn run(p: &Params, links: usize) -> Outcome {
    let mut out = Outcome::default();
    let cfg = run_config(links);
    // Grid g of seed S draws from base seed S * 1000 + g, so no two
    // seeds share a grid.
    let base = p.seed * 1000;
    let mut setups = Vec::new();
    let mut net = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        net = Some(set_up(&cfg, p, base));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let net = net.expect("at least one set-up ran");

    // The one-thread reference for the first grid, outside the clock.
    let reference = collect_trials(&net, &cfg, &paper_grid(p, base, 1));

    let mut walls = Vec::new();
    let mut rss = 0.0;
    let mut all: Vec<TrialResult> = Vec::new();
    let cpu0 = process_cpu();
    let started = Instant::now();
    repeat_for(p.seconds, 3, |g| {
        let fc = paper_grid(p, base + g as u64, THREADS);
        let t0 = Instant::now();
        let trials = collect_trials(&net, &cfg, &fc);
        walls.push(t0.elapsed().as_secs_f64());
        let expected = (fc.placements * fc.failures_per_placement) as u64;
        out.attempted += expected;
        out.failed += expected.saturating_sub(trials.len() as u64);
        if g == 0 {
            out.check(trials == reference, || {
                "collect_trials differs between 1 and 2 threads".to_owned()
            });
            // The footprint of one pooled grid. Later grids only add
            // allocator arenas as fresh pool threads come and go, by an
            // amount that depends on thread timing, not on this code.
            rss = peak_rss_mib();
        }
        all.extend(trials);
    });
    let wall = started.elapsed().as_secs_f64();
    let cpu = process_cpu().saturating_sub(cpu0).as_secs_f64();

    let sensitivity = mean(
        &all.iter()
            .map(|t| t.nd_edge.sensitivity)
            .collect::<Vec<_>>(),
    );
    out.check(sensitivity >= sensitivity_floor(links), || {
        format!(
            "mean ND-edge sensitivity {sensitivity:.3} below {}",
            sensitivity_floor(links)
        )
    });
    eprintln!(
        "trials-{links}link: {} grids, median {:.1} ms, {:.0} trials/s, {:.3} ms CPU per trial, \
         sensitivity {sensitivity:.3}",
        walls.len(),
        median(&walls) * 1e3,
        all.len() as f64 / wall,
        cpu * 1e3 / all.len() as f64
    );
    out.push("setup_s", "s", median(&setups));
    out.push("rss_peak_mb", "MiB", rss);
    out
}
