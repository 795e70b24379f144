//! Ablations of the design choices DESIGN.md calls out (beyond the paper's
//! own figures):
//!
//! * **scoring weights** — the ND-edge score is `a·|C(ℓ)| + b·|R(ℓ)|`
//!   with `a = b = 1` in the paper; the sweep shows what the reroute term
//!   actually buys (`b = 0` disables §3.2, `a = 0` keeps only reroutes);
//! * **greedy vs exact hitting set** — the paper argues the greedy
//!   approximation is good enough; comparing hypothesis sizes against the
//!   exact minimum on the real instances quantifies the gap.

use netdiagnoser::{BuildOptions, DiagnosticsConfig, Problem, Weights};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::bridge::TruthIpToAs;
use crate::figures::{collect_trials, FigureConfig, FigureOutput};
use crate::output::{f4, Table};
use crate::runner::{draw_with, prepare_with, RunConfig, TrialScratch};
use crate::sampling::FailureSpec;

/// The weight pairs swept.
pub const WEIGHTS: [(u32, u32); 5] = [(1, 0), (1, 1), (1, 2), (2, 1), (0, 1)];

/// Regenerates both ablation tables.
pub fn run(fc: &FigureConfig) -> Vec<FigureOutput> {
    vec![weight_sweep(fc), greedy_vs_exact(fc)]
}

/// Mean ND-edge sensitivity/specificity under 3 link failures, per weight
/// pair.
fn weight_sweep(fc: &FigureConfig) -> FigureOutput {
    let net = fc.internet();
    let mut table = Table::new(&["a", "b", "sensitivity", "specificity", "hypothesis_size"]);
    for (a, b) in WEIGHTS {
        let cfg = RunConfig {
            failure: FailureSpec::Links(3),
            diagnostics: DiagnosticsConfig {
                weights: Weights { a, b },
                ..Default::default()
            },
            ..Default::default()
        };
        let trials = collect_trials(&net, &cfg, fc);
        let n = trials.len().max(1) as f64;
        table.row(&[
            a.to_string(),
            b.to_string(),
            f4(trials.iter().map(|t| t.nd_edge.sensitivity).sum::<f64>() / n),
            f4(trials.iter().map(|t| t.nd_edge.specificity).sum::<f64>() / n),
            f4(trials
                .iter()
                .map(|t| t.nd_edge.hypothesis_size as f64)
                .sum::<f64>()
                / n),
        ]);
    }
    FigureOutput::new("ablation_ndedge_weights", table)
}

/// Greedy vs exact hypothesis sizes on real single/multi-failure
/// instances.
fn greedy_vs_exact(fc: &FigureConfig) -> FigureOutput {
    let net = fc.internet();
    let mut table = Table::new(&[
        "failure_links",
        "instances",
        "greedy_mean_size",
        "exact_mean_size",
        "greedy_optimal_fraction",
    ]);
    for x in [1usize, 2, 3] {
        let cfg = RunConfig {
            failure: FailureSpec::Links(x),
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(fc.base_seed ^ 0xAB1A);
        let mut greedy_sizes = Vec::new();
        let mut exact_sizes = Vec::new();
        for p in 0..fc.placements.min(3) {
            let mut prng = StdRng::seed_from_u64(fc.base_seed ^ (p as u64 + 77));
            let ctx = prepare_with(&net, &cfg, &mut prng, fc.recorder.clone());
            let mut scratch = TrialScratch::new(&ctx);
            for _ in 0..fc.failures_per_placement.min(10) {
                // The trial loop's draw, without its diagnoses: the exact
                // solver runs on the rebuilt problem instead.
                let Ok(drawn) = draw_with(&ctx, &mut scratch, cfg.failure, &mut rng) else {
                    continue;
                };
                let obs = drawn.observations(&ctx);
                let topology = ctx.sim.topology();
                let ip2as = TruthIpToAs { topology };
                let problem = Problem::build(&obs, &ip2as, BuildOptions::nd_edge());
                let instance = problem.instance();
                let greedy = instance.greedy(Weights::default());
                let Some(exact) = instance.exact(greedy.hypothesis.len()) else {
                    continue; // unhittable or budget exhausted: skip
                };
                greedy_sizes.push(greedy.hypothesis.len());
                exact_sizes.push(exact.len());
            }
        }
        let n = greedy_sizes.len().max(1) as f64;
        let optimal = greedy_sizes
            .iter()
            .zip(&exact_sizes)
            .filter(|(g, e)| g == e)
            .count() as f64
            / n;
        table.row(&[
            x.to_string(),
            greedy_sizes.len().to_string(),
            f4(greedy_sizes.iter().sum::<usize>() as f64 / n),
            f4(exact_sizes.iter().sum::<usize>() as f64 / n),
            f4(optimal),
        ]);
    }
    FigureOutput::new("ablation_greedy_vs_exact", table)
}
