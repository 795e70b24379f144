//! Parallel trial collection must be a pure wall-clock optimisation:
//! [`collect_trials`] (worker pool over placements x trials) and
//! [`collect_trials_sequential`] (single thread, same derived seeds) must
//! return identical results in identical order.

// Test code: unwrap on a broken fixture is the correct failure mode.
#![allow(clippy::unwrap_used)]
use std::sync::Arc;

use netdiag_experiments::figures::{collect_trials, collect_trials_sequential, FigureConfig};
use netdiag_experiments::runner::RunConfig;
use netdiag_experiments::sampling::FailureSpec;
use netdiag_obs::{names, LiveRecorder, Recorder, RecorderHandle, TraceRecorder};

#[test]
fn parallel_equals_sequential() {
    let fc = FigureConfig::quick();
    let net = fc.internet();
    let cfg = RunConfig::default();
    let par = collect_trials(&net, &cfg, &fc);
    let seq = collect_trials_sequential(&net, &cfg, &fc);
    assert_eq!(par, seq);
    assert!(!par.is_empty(), "quick config must yield trials");
}

#[test]
fn parallel_equals_sequential_with_blocking() {
    // Blocking exercises the Looking-Glass branch of run_trial too.
    let fc = FigureConfig {
        placements: 2,
        failures_per_placement: 3,
        ..FigureConfig::default()
    };
    let net = fc.internet();
    let cfg = RunConfig {
        blocked_frac: 0.3,
        failure: FailureSpec::Links(2),
        ..RunConfig::default()
    };
    let par = collect_trials(&net, &cfg, &fc);
    let seq = collect_trials_sequential(&net, &cfg, &fc);
    assert_eq!(par, seq);
}

#[test]
fn recorded_runs_equal_sequential_and_keep_the_replay_memo() {
    // A metrics recorder selects no second path: the pool (at 1 and 2
    // threads) still matches the reference, and on one-link failures,
    // where draws repeat, the replay memo still serves them.
    let grid = FigureConfig {
        placements: 2,
        failures_per_placement: 12,
        ..FigureConfig::default()
    };
    let net = grid.internet();
    for failure in [FailureSpec::Links(1), FailureSpec::Router] {
        let cfg = RunConfig {
            failure,
            ..RunConfig::default()
        };
        let seq = collect_trials_sequential(&net, &cfg, &grid);
        for threads in [1, 2] {
            let (recorder, live) = RecorderHandle::live();
            let fc = FigureConfig {
                threads,
                recorder,
                ..grid.clone()
            };
            assert_eq!(collect_trials(&net, &cfg, &fc), seq, "{failure:?}");
            let hits = live.snapshot().counter(names::TRIAL_MEMO_HITS);
            if failure == FailureSpec::Links(1) {
                assert!(hits > 0, "{threads} thread(s): no memo hits");
            }
        }
    }

    // Under a tracer the memo is off: a hit could not replay the trial's
    // event stream.
    let cfg = RunConfig::default();
    let live = Arc::new(LiveRecorder::new());
    let tracer = Arc::new(TraceRecorder::new());
    let fc = FigureConfig {
        threads: 1,
        recorder: RecorderHandle::fanout(vec![
            Arc::clone(&live) as Arc<dyn Recorder>,
            Arc::clone(&tracer) as Arc<dyn Recorder>,
        ]),
        ..grid.clone()
    };
    assert_eq!(
        collect_trials(&net, &cfg, &fc),
        collect_trials_sequential(&net, &cfg, &grid)
    );
    assert_eq!(live.snapshot().counter(names::TRIAL_MEMO_HITS), 0);
}
