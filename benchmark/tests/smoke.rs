//! `--quick` runs of every workload, end to end and traced: each prints
//! exactly the metrics `BENCHMARK.json` names, with their units, checks
//! its outputs, and the traced run writes parseable spans whose layers
//! account for the operations' time.

use std::path::{Path, PathBuf};
use std::process::Command;

use netdiag_benchmark::Workload;
use netdiag_obs::json::{self, Json};

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    let ledger = json::parse(&text).expect("BENCHMARK.json parses");
    ledger
        .get(list)
        .and_then(Json::as_array)
        .expect("metric list present")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark and returns the parsed result line.
fn run(workload: Workload, trace: bool, trace_out: &Path) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_netdiag-benchmark"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "2",
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--quick"])
        .arg("--trace-out")
        .arg(trace_out)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{} failed:\n{stderr}",
        workload.name()
    );
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the result line is JSON");
    assert!(matches!(result.get("correct"), Some(Json::Bool(true))));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    result
}

fn metric(result: &Json, name: &str) -> f64 {
    match result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
    {
        Some(Json::Num(v)) => *v,
        other => panic!("{name}: {other:?}"),
    }
}

fn assert_prints_exactly(result: &Json, declared: &[(String, String)], workload: Workload) {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object");
    };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned();
            (name.clone(), unit)
        })
        .collect();
    let mut want = declared.to_vec();
    let mut got = printed.clone();
    want.sort();
    got.sort();
    assert_eq!(
        got,
        want,
        "{}: printed metrics differ from BENCHMARK.json",
        workload.name()
    );
    // An unmeasured metric prints as `null`, which `metric` rejects.
    for (name, _) in &printed {
        let v = metric(result, name);
        assert!(v.is_finite() && v != f64::MAX, "{name} reads {v}");
    }
}

fn trace_path(workload: Workload, trace: bool) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{}-{trace}.jsonl", workload.name()))
}

#[test]
fn every_workload_prints_its_end_to_end_metrics() {
    let declared = declared("end_to_end");
    for w in Workload::ALL {
        let result = run(w, false, &trace_path(w, false));
        assert_prints_exactly(&result, &declared, w);
        for (name, _) in &declared {
            assert!(
                metric(&result, name) > 0.0,
                "{}: {name} is not positive",
                w.name()
            );
        }
    }
}

#[test]
fn every_traced_walk_prints_its_layer_metrics_and_spans() {
    let declared = declared("per_layer");
    for w in Workload::ALL {
        let path = trace_path(w, true);
        let result = run(w, true, &path);
        assert_prints_exactly(&result, &declared, w);
        assert!(metric(&result, "trace.coverage") >= 0.90);
        assert!(metric(&result, "serve.phase_coverage") >= 0.90);

        let text = std::fs::read_to_string(&path).expect("the walk wrote its spans");
        let mut layers = std::collections::BTreeSet::new();
        for line in text.lines() {
            let span = json::parse(line).expect("every span line is JSON");
            let name = span.get("name").and_then(Json::as_str).expect("span name");
            let start = span.get("start_ns").and_then(Json::as_u64).expect("start");
            let end = span.get("end_ns").and_then(Json::as_u64).expect("end");
            assert!(end >= start);
            assert!(span.get("op").and_then(Json::as_u64).is_some());
            assert!(span.get("parent").is_some());
            layers.insert(name.split('.').next().unwrap_or(name).to_owned());
        }
        for layer in [
            "op",
            "topology",
            "igp",
            "bgp",
            "netsim",
            "experiments",
            "core",
        ] {
            assert!(layers.contains(layer), "{}: no {layer} spans", w.name());
        }
    }
}
