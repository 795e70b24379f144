//! **Figure 5** — sensor placement vs diagnosability.
//!
//! The paper plots the diagnosability `D(G)` of the inferred graph as the
//! number of sensors grows, for four placement strategies. Expected shape:
//! "same AS" highest, "distant AS" low, "distant AS + split path" in
//! between, "random" worst.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::figures::{FigureConfig, FigureOutput};
use crate::output::{f4, Table};
use crate::placement::Placement;
use crate::runner::{placement_base, prepare_on, RunConfig};

/// Sensor counts swept on the x axis.
pub const SENSOR_COUNTS: [usize; 6] = [5, 10, 20, 30, 40, 50];

/// Regenerates Figure 5.
pub fn run(fc: &FigureConfig) -> Vec<FigureOutput> {
    let net = fc.internet();
    let base = placement_base(&net, fc.recorder.clone());
    let strategies = [
        ("same_as", Placement::SameAs),
        ("distant_as", Placement::DistantAs),
        ("distant_as_split", Placement::DistantAsSplit),
        ("random", Placement::Random),
    ];
    let mut table = Table::new(&[
        "sensors",
        "same_as",
        "distant_as",
        "distant_as_split",
        "random",
    ]);
    for &n in &SENSOR_COUNTS {
        let mut row = vec![n.to_string()];
        for (_, placement) in strategies {
            let cfg = RunConfig {
                n_sensors: n,
                placement,
                ..Default::default()
            };
            // Mean diagnosability over the placements.
            let mut sum = 0.0;
            for p in 0..fc.placements {
                let mut rng =
                    StdRng::seed_from_u64(fc.base_seed ^ (p as u64).wrapping_mul(0x9E37_79B9));
                let ctx = prepare_on(&base, &net, &cfg, &mut rng, fc.recorder.clone());
                sum += ctx.diagnosability;
            }
            row.push(f4(sum / fc.placements as f64));
        }
        table.row(&row);
    }
    vec![FigureOutput::new("fig5_placement_diagnosability", table)]
}
