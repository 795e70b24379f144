//! **Figure 9** — diagnosability vs specificity scatter.
//!
//! The paper varies the number of probing sources from 5 to 90 and plots,
//! per (placement, failure) pair, the diagnosability of the inferred graph
//! against ND-edge's specificity under single link failures. Expected
//! shape: specificity grows with diagnosability, always above ~0.75.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::figures::{FigureConfig, FigureOutput};
use crate::output::{f4, Table};
use crate::runner::{placement_base, prepare_on, run_trial, RunConfig};
use crate::sampling::FailureSpec;

/// Sensor counts swept to span the diagnosability range.
pub const SENSOR_COUNTS: [usize; 6] = [5, 10, 20, 40, 60, 90];

/// Regenerates Figure 9 (one row per (placement, failure) pair).
pub fn run(fc: &FigureConfig) -> Vec<FigureOutput> {
    let net = fc.internet();
    let base = placement_base(&net, fc.recorder.clone());
    let mut table = Table::new(&["sensors", "diagnosability", "nd_edge_specificity"]);
    // Spread the placement budget over the sensor counts.
    let per_count = fc.placements.div_ceil(2).max(1);
    let failures = (fc.failures_per_placement / 5).max(1);
    for &n in &SENSOR_COUNTS {
        let cfg = RunConfig {
            n_sensors: n,
            failure: FailureSpec::Links(1),
            ..Default::default()
        };
        for p in 0..per_count {
            let mut rng = StdRng::seed_from_u64(
                fc.base_seed ^ (n as u64) << 8 ^ (p as u64).wrapping_mul(0x9E37_79B9),
            );
            let ctx = prepare_on(&base, &net, &cfg, &mut rng, fc.recorder.clone());
            let mut frng = StdRng::seed_from_u64(fc.base_seed ^ 0xF19 ^ (n as u64 * 31 + p as u64));
            for _ in 0..failures {
                if let Some(tr) = run_trial(&ctx, &cfg, &mut frng) {
                    table.row(&[
                        n.to_string(),
                        f4(ctx.diagnosability),
                        f4(tr.nd_edge.specificity),
                    ]);
                }
            }
        }
    }
    vec![FigureOutput::new(
        "fig9_diagnosability_vs_specificity",
        table,
    )]
}
