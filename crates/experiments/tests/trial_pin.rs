//! Pins the trial grid's outcomes: the `{:?}` of every [`collect_trials`]
//! result on the paper internet (2 placements x 10 failures, one thread)
//! for each failure class, against `golden/trial_pin.txt`. Any change to
//! placement preparation, failure replay or diagnosis that moves a single
//! trial shows up here as a diff against the golden file.

use netdiag_experiments::figures::{collect_trials, FigureConfig};
use netdiag_experiments::runner::RunConfig;
use netdiag_experiments::sampling::FailureSpec;

/// The golden file's contents for the current code: a `== <class>` header
/// per failure class, then one `{:?}` line per trial.
fn render() -> String {
    let fc = FigureConfig {
        placements: 2,
        failures_per_placement: 10,
        threads: 1,
        ..FigureConfig::default()
    };
    let net = fc.internet();
    let mut out = String::new();
    for (name, failure) in [
        ("links:1", FailureSpec::Links(1)),
        ("links:3", FailureSpec::Links(3)),
        ("router", FailureSpec::Router),
        ("misconfig", FailureSpec::Misconfig),
        ("misconfig+link", FailureSpec::MisconfigPlusLink),
    ] {
        let cfg = RunConfig {
            failure,
            ..RunConfig::default()
        };
        out.push_str(&format!("== {name}\n"));
        for t in collect_trials(&net, &cfg, &fc) {
            out.push_str(&format!("{t:?}\n"));
        }
    }
    out
}

#[test]
fn trial_outcomes_match_the_golden_file() {
    let want = include_str!("golden/trial_pin.txt");
    let got = render();
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} of golden/trial_pin.txt", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "line count");
}
