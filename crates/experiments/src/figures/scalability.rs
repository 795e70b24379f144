//! Scalability of the logical-link graph (§3.1): the paper argues that
//! per-neighbor logical links keep the graph tractable ("as long as
//! sensors are not deployed in each AS in the Internet"). This study
//! measures the inferred-graph sizes and diagnosis runtimes as the sensor
//! count grows.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use netdiagnoser::{nd_edge, tomo, BuildOptions, Problem, Weights};

use crate::bridge::TruthIpToAs;
use crate::figures::{FigureConfig, FigureOutput};
use crate::output::{f4, Table};
use crate::runner::{draw_with, placement_base, prepare_on, RunConfig, TrialScratch};
use crate::sampling::FailureSpec;

/// Sensor counts swept.
pub const SENSOR_COUNTS: [usize; 5] = [5, 10, 20, 40, 80];

/// Regenerates the scalability table.
pub fn run(fc: &FigureConfig) -> Vec<FigureOutput> {
    let net = fc.internet();
    let base = placement_base(&net, fc.recorder.clone());
    let mut table = Table::new(&[
        "sensors",
        "plain_edges",
        "logical_edges",
        "logical_blowup",
        "tomo_ms",
        "nd_edge_ms",
    ]);
    for &n in &SENSOR_COUNTS {
        let cfg = RunConfig {
            n_sensors: n,
            failure: FailureSpec::Links(1),
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(fc.base_seed ^ 0x5CA1E ^ n as u64);
        let ctx = prepare_on(&base, &net, &cfg, &mut rng, fc.recorder.clone());
        // One representative unreachability-causing failure.
        let mut frng = StdRng::seed_from_u64(fc.base_seed ^ n as u64);
        let Ok(drawn) = draw_with(&ctx, &mut TrialScratch::new(&ctx), cfg.failure, &mut frng)
        else {
            continue;
        };
        let obs = drawn.observations(&ctx);
        let topology = ctx.sim.topology();
        let ip2as = TruthIpToAs { topology };

        let plain = Problem::build(&obs, &ip2as, BuildOptions::tomo());
        let logical = Problem::build(&obs, &ip2as, BuildOptions::nd_edge());

        // lint: allow(nondet-source): this figure reports real elapsed time;
        // the timing is the measurement, it never feeds simulation state
        let t0 = Instant::now();
        let _ = tomo(&obs, &ip2as);
        let tomo_ms = t0.elapsed().as_secs_f64() * 1e3;
        // lint: allow(nondet-source): same as above — measured wall time
        let t1 = Instant::now();
        let _ = nd_edge(&obs, &ip2as, Weights::default());
        let nd_ms = t1.elapsed().as_secs_f64() * 1e3;

        table.row(&[
            n.to_string(),
            plain.graph.edge_count().to_string(),
            logical.graph.edge_count().to_string(),
            f4(logical.graph.edge_count() as f64 / plain.graph.edge_count().max(1) as f64),
            f4(tomo_ms),
            f4(nd_ms),
        ]);
    }
    vec![FigureOutput::new("scalability_logical_links", table)]
}
