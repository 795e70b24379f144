//! [`draw`] shares the placement's replay memo with the trial loop: a
//! failure the memo already records as fully rerouted is redrawn without
//! re-simulating, and every rerouted failure a draw simulates is recorded.
//! The memo must be a pure saving: a seed drawn on a memo-warm placement
//! gives the scenario it gives on a fresh one.

// Test code: unwrap on a broken fixture is the correct failure mode.
#![allow(clippy::unwrap_used)]

use netdiag_experiments::figures::FigureConfig;
use netdiag_experiments::runner::{draw, prepare_seeded, RunConfig, TrialScratch};
use netdiag_experiments::sampling::FailureSpec;
use netdiag_obs::{names, RecorderHandle};

#[test]
fn a_memo_warm_placement_draws_what_a_fresh_one_does() {
    let net = FigureConfig::default().internet();
    let cfg = RunConfig::default();
    let seeds = 0..12u64;
    for spec in [FailureSpec::Links(1), FailureSpec::Links(3)] {
        let (recorder, live) = RecorderHandle::live();
        let warm = prepare_seeded(&net, &cfg, 5, recorder);
        let mut scratch = TrialScratch::new(&warm);
        // Warm the memo with every seed, then draw them all again.
        for seed in seeds.clone() {
            draw(&warm, &mut scratch, spec, seed).unwrap();
        }
        let before = live.snapshot().counter(names::TRIAL_MEMO_HITS);
        for seed in seeds.clone() {
            let again = draw(&warm, &mut scratch, spec, seed).unwrap();
            let fresh_ctx = prepare_seeded(&net, &cfg, 5, RecorderHandle::noop());
            let fresh = draw(&fresh_ctx, &mut TrialScratch::new(&fresh_ctx), spec, seed).unwrap();
            assert_eq!(
                format!("{again:?}"),
                format!("{fresh:?}"),
                "{spec:?} seed {seed}"
            );
        }
        // One-link draws reroute often, so the second pass must have
        // skipped some simulations; otherwise the check above proves
        // nothing about the memo.
        let hits = live.snapshot().counter(names::TRIAL_MEMO_HITS) - before;
        if spec == FailureSpec::Links(1) {
            assert!(hits > 0, "no memo hits on the second pass");
        }
    }
}
