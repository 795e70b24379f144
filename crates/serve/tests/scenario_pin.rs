//! Pins `Baseline::sample_scenario`: the request inputs it draws for the
//! daemon tests' seeds (baseline seed 7 with 6 sensors; scenario seeds 3
//! and 11), byte for byte, against `golden/sample_scenario.txt`. A change
//! to the failure draw, the attempt step or the rendering of `after` and
//! `feed` shows up here as a diff against the golden file.

use netdiag_serve::{Baseline, ServeConfig};

/// The golden file's contents for the current code: each scenario's
/// `after` and `feed` texts under a `== seed <n> <part>` header.
fn render() -> String {
    let baseline = Baseline::prepare(&ServeConfig {
        seed: 7,
        n_sensors: 6,
        ..Default::default()
    });
    let mut out = String::new();
    for seed in [3, 11] {
        let scenario = baseline.sample_scenario(seed).expect("scenario sampled");
        out.push_str(&format!("== seed {seed} after\n{}", scenario.after));
        out.push_str(&format!("== seed {seed} feed\n{}", scenario.feed));
    }
    out
}

#[test]
fn sampled_scenarios_match_the_golden_file() {
    let want = include_str!("golden/sample_scenario.txt");
    let got = render();
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} of golden/sample_scenario.txt", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "line count");
    assert_eq!(got, want);
}
