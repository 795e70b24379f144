//! Regenerates the paper's figures.
//!
//! ```text
//! figures <fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|claims|ablations|robustness|scalability|summary|all>
//!         [--placements N] [--failures N] [--seed S] [--out DIR] [--quick]
//!         [--threads N] [--profile FILE]
//! ```
//!
//! Defaults match the paper (10 placements x 100 failures per scenario).
//! Tables are printed and written as CSV under `--out` (default
//! `results/`). With `--profile`, instrumentation counters aggregated over
//! every selected figure are written to FILE as a JSON run report and a
//! summary section is printed.

// A runnable demo talks to its user on stdout.
#![allow(clippy::print_stdout)]
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use netdiag_experiments::figures::{self, FigureConfig, FigureOutput};
use netdiag_obs::RecorderHandle;

/// A named figure regenerator.
type FigureFn = fn(&FigureConfig) -> Vec<FigureOutput>;

fn usage() -> ! {
    eprintln!(
        "usage: figures <fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|claims|ablations|robustness|scalability|summary|all> \
         [--placements N] [--failures N] [--seed S] [--out DIR] [--quick] [--threads N] \
         [--profile FILE]"
    );
    std::process::exit(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(which) = args.next() else { usage() };
    let mut fc = FigureConfig::default();
    let mut out_dir = PathBuf::from("results");
    let mut profile = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--profile" => {
                let path = args.next().map(PathBuf::from).unwrap_or_else(|| usage());
                let (handle, sink) = RecorderHandle::live();
                fc.recorder = handle;
                profile = Some((path, sink));
            }
            "--placements" => {
                fc.placements = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--failures" => {
                fc.failures_per_placement = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--seed" => {
                fc.base_seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--threads" => {
                fc.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--out" => out_dir = args.next().map(PathBuf::from).unwrap_or_else(|| usage()),
            "--quick" => {
                fc.placements = FigureConfig::quick().placements;
                fc.failures_per_placement = FigureConfig::quick().failures_per_placement;
            }
            _ => usage(),
        }
    }

    let figs: Vec<(&str, FigureFn)> = vec![
        ("fig5", figures::fig5::run),
        ("fig6", figures::fig6::run),
        ("fig7", figures::fig7::run),
        ("fig8", figures::fig8::run),
        ("fig9", figures::fig9::run),
        ("fig10", figures::fig10::run),
        ("fig11", figures::fig11::run),
        ("fig12", figures::fig12::run),
        ("claims", figures::claims::run),
        ("ablations", figures::ablations::run),
        ("robustness", figures::robustness::run),
        ("scalability", figures::scalability::run),
    ];
    if which == "summary" {
        match netdiag_experiments::summary::build(&out_dir) {
            Ok(md) => {
                print!("{md}");
                println!("(written to {})", out_dir.join("SUMMARY.md").display());
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("summary failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let selected: Vec<_> = figs
        .iter()
        .filter(|(name, _)| which == "all" || which == *name)
        .collect();
    if selected.is_empty() {
        usage();
    }

    for (name, run) in selected {
        let t0 = Instant::now();
        println!("== {name} ==");
        for output in run(&fc) {
            // Ignore broken pipes (`figures ... | head` must not panic).
            use std::io::Write as _;
            let _ = writeln!(std::io::stdout(), "-- {} --", output.name);
            let _ = std::io::stdout().write_all(output.table.to_text().as_bytes());
            let path = out_dir.join(format!("{}.csv", output.name));
            if let Err(e) = output.table.write_csv(&path) {
                eprintln!("failed to write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("(written to {})", path.display());
        }
        println!("[{name} done in {:.1?}]\n", t0.elapsed());
    }
    if which == "all" {
        if let Err(e) = netdiag_experiments::summary::build(&out_dir) {
            eprintln!("summary failed: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "(digest written to {})",
            out_dir.join("SUMMARY.md").display()
        );
    }
    if let Some((path, sink)) = profile {
        let report = sink.snapshot();
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("== run report ==");
        for name in [
            netdiag_obs::names::IGP_SPF_RUNS,
            netdiag_obs::names::BGP_MSGS,
            netdiag_obs::names::PROBE_TRACEROUTES,
            netdiag_obs::names::HS_GREEDY_ITERS,
            netdiag_obs::names::DIAG_RUNS,
            netdiag_obs::names::TRIAL_MEMO_HITS,
        ] {
            println!("{name} = {}", report.counter(name));
        }
        println!("(full report written to {})", path.display());
    }
    ExitCode::SUCCESS
}
