//! `netdiag-benchmark --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics of the traced walk
//! with `--trace 1` (spans go to `--trace-out FILE`, by default under the
//! cargo target directory). Exits 1 when any output check fails, 2 on
//! bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use netdiag_benchmark::{converge, serve, trials, walk, Params, Workload};

const USAGE: &str =
    "usage: netdiag-benchmark --workload serve-paper|trials-1link|trials-3link|converge-1k \
                     --seed N --seconds S --trace 0|1 [--trace-out FILE] [--quick]";

fn usage(why: &str) -> ExitCode {
    eprintln!("{why}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let Some(workload) = flag("--workload").and_then(Workload::from_name) else {
        return usage("--workload names no workload");
    };
    let Some(seed) = flag("--seed").and_then(|v| v.parse::<u64>().ok()) else {
        return usage("--seed takes a whole number");
    };
    let Some(seconds) = flag("--seconds")
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
    else {
        return usage("--seconds takes a positive number");
    };
    let traced = match flag("--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => return usage("--trace takes 0 or 1"),
    };
    let params = Params {
        workload,
        seed,
        seconds,
        quick: args.iter().any(|a| a == "--quick"),
    };

    let mut outcome = if traced {
        let out = flag("--trace-out").map_or_else(|| default_trace_path(&params), PathBuf::from);
        walk::run(&params, &out)
    } else {
        match workload {
            Workload::ServePaper => serve::run(&params),
            Workload::Trials1Link => trials::run(&params, 1),
            Workload::Trials3Link => trials::run(&params, 3),
            Workload::Converge1k => converge::run(&params),
        }
    };
    // Every workload is chosen so that no operation fails: the failure
    // share is bounded at +0, so one failed operation voids the run.
    let (failed, attempted) = (outcome.failed, outcome.attempted);
    outcome.check(failed == 0 && attempted > 0, || {
        format!("{failed} of {attempted} operations failed")
    });
    for m in &outcome.metrics {
        eprintln!("{:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for problem in &outcome.problems {
        eprintln!("INCORRECT: {problem}");
    }
    print_result(&outcome.to_json());
    if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints the result line, the one thing this program writes to standard
/// output.
#[allow(clippy::print_stdout)]
fn print_result(line: &str) {
    println!("{line}");
}

/// `<target dir>/netdiag-benchmark/trace-<workload>-seed<N>.jsonl`, the
/// target directory being `$CARGO_TARGET_DIR` or `target`.
fn default_trace_path(p: &Params) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("netdiag-benchmark").join(format!(
        "trace-{}-seed{}.jsonl",
        p.workload.name(),
        p.seed
    ))
}
