//! Integration tests of the two command-line binaries, spawned as real
//! processes (Cargo exposes their paths via `CARGO_BIN_EXE_*`).

// Test code: unwrap on a broken fixture is the correct failure mode.
#![allow(clippy::unwrap_used)]
use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn figures() -> Command {
    Command::new(env!("CARGO_BIN_EXE_figures"))
}

fn netdiag() -> Command {
    Command::new(env!("CARGO_BIN_EXE_netdiag"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netdiag_cli_{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn figures_quick_writes_csv_and_prints_table() {
    let dir = temp_dir("fig5");
    let out = figures()
        .args(["fig5", "--quick", "--out", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fig5_placement_diagnosability"));
    assert!(stdout.contains("same_as"));
    let csv = fs::read_to_string(dir.join("fig5_placement_diagnosability.csv")).unwrap();
    assert!(csv.starts_with("sensors,"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn figures_rejects_bad_arguments() {
    for args in [vec!["nope"], vec!["fig5", "--placements", "abc"], vec![]] {
        let out = figures().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }
}

#[test]
fn netdiag_simulate_diagnose_roundtrip() {
    let dir = temp_dir("roundtrip");
    let out = netdiag()
        .args([
            "simulate",
            "--out",
            dir.to_str().unwrap(),
            "--failure",
            "links:1",
            "--seed",
            "11",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for f in [
        "sensors.txt",
        "before.txt",
        "after.txt",
        "feed.txt",
        "lg.txt",
        "ip2as.txt",
        "truth.txt",
        "topology.dot",
    ] {
        assert!(dir.join(f).exists(), "{f} missing");
    }

    // Diagnose with every algorithm; nd-edge must include the true link.
    let truth = fs::read_to_string(dir.join("truth.txt")).unwrap();
    let failed_addr = truth
        .lines()
        .find(|l| l.starts_with("failed"))
        .unwrap()
        .split_whitespace()
        .nth(2)
        .unwrap()
        .to_string();
    for algo in ["tomo", "nd-edge", "nd-bgpigp", "nd-lg"] {
        let out = netdiag()
            .args(["diagnose", "--dir", dir.to_str().unwrap(), "--algo", algo])
            .output()
            .unwrap();
        assert!(out.status.success(), "{algo}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("NetDiagnoser report"), "{algo}");
        if algo == "nd-edge" {
            assert!(
                stdout.contains(&failed_addr),
                "nd-edge must suspect the failed link's interface {failed_addr}:\n{stdout}"
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// `--json` prints one `DiagnosticReport` document and nothing after it
/// (the ground-truth appendix is text-mode only), and a scenario without
/// the optional `truth.txt` diagnoses silently.
#[test]
fn netdiag_diagnose_json_is_one_document_and_truth_is_optional() {
    let dir = temp_dir("json");
    let out = netdiag()
        .args(["simulate", "--out", dir.to_str().unwrap(), "--seed", "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let diagnose = |json: bool| {
        let mut args = vec![
            "diagnose",
            "--dir",
            dir.to_str().unwrap(),
            "--algo",
            "nd-bgpigp",
        ];
        if json {
            args.push("--json");
        }
        netdiag().args(&args).output().unwrap()
    };
    let out = diagnose(true);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let report = netdiagnoser::DiagnosticReport::from_json(stdout.trim_end())
        .unwrap_or_else(|e| panic!("--json output does not parse ({e}):\n{stdout}"));
    assert_eq!(report.algorithm, netdiagnoser::Algorithm::NdBgpIgp);
    let text = String::from_utf8(diagnose(false).stdout).unwrap();
    assert!(text.contains("--- ground truth (truth.txt) ---"), "{text}");

    fs::remove_file(dir.join("truth.txt")).unwrap();
    for json in [false, true] {
        let out = diagnose(json);
        assert_eq!(out.status.code(), Some(0), "json={json}");
        assert!(
            out.stderr.is_empty(),
            "json={json}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!String::from_utf8_lossy(&out.stdout).contains("ground truth"));
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn netdiag_custom_topology() {
    let dir = temp_dir("custom");
    let topo = dir.join("net.txt");
    fs::write(
        &topo,
        "as Core core\nas S1 stub\nas S2 stub\n\
         router Core c1\nrouter S1 a1\nrouter S2 b1\n\
         provider c1 a1\nprovider c1 b1\n",
    )
    .unwrap();
    let out_dir = dir.join("scenario");
    let out = netdiag()
        .args([
            "simulate",
            "--out",
            out_dir.to_str().unwrap(),
            "--topology",
            topo.to_str().unwrap(),
            "--sensors",
            "2",
            "--seed",
            "3",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = netdiag()
        .args(["diagnose", "--dir", out_dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let _ = fs::remove_dir_all(&dir);
}

/// Two peering cores and two stubs dual-homed to both: no single link
/// failure breaks reachability, so `simulate` must give up after the
/// trial loop's draw cap instead of redrawing forever.
#[test]
fn netdiag_simulate_gives_up_when_no_failure_breaks_reachability() {
    let dir = temp_dir("unbreakable");
    let topo = dir.join("net.txt");
    fs::write(
        &topo,
        "as C1 core\nas C2 core\nas S1 stub\nas S2 stub\n\
         router C1 c1\nrouter C2 c2\nrouter S1 a1\nrouter S2 b1\n\
         peer c1 c2\n\
         provider c1 a1\nprovider c2 a1\nprovider c1 b1\nprovider c2 b1\n",
    )
    .unwrap();
    let out = netdiag()
        .args([
            "simulate",
            "--out",
            dir.join("scenario").to_str().unwrap(),
            "--topology",
            topo.to_str().unwrap(),
            "--sensors",
            "2",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("broke reachability"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn netdiag_rejects_bad_input() {
    // Missing directory.
    let out = netdiag()
        .args(["diagnose", "--dir", "/definitely/not/here"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    // Bad algorithm.
    let dir = temp_dir("badalgo");
    netdiag()
        .args(["simulate", "--out", dir.to_str().unwrap(), "--seed", "5"])
        .output()
        .unwrap();
    let out = netdiag()
        .args([
            "diagnose",
            "--dir",
            dir.to_str().unwrap(),
            "--algo",
            "bogus",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    // Corrupt scenario file: parse error names the line.
    let before = dir.join("before.txt");
    let mut text = fs::read_to_string(&before).unwrap();
    text.insert_str(0, "garbage-line\n");
    fs::write(&before, text).unwrap();
    let out = netdiag()
        .args(["diagnose", "--dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("parse error: line 1"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn netdiag_rejects_degenerate_custom_topology() {
    let dir = temp_dir("degenerate");
    let topo = dir.join("net.txt");
    // No core AS at all.
    fs::write(
        &topo,
        "as S1 stub\nas S2 stub\nrouter S1 a1\nrouter S2 b1\npeer a1 b1\n",
    )
    .unwrap();
    let out = netdiag()
        .args([
            "simulate",
            "--out",
            dir.join("x").to_str().unwrap(),
            "--topology",
            topo.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("at least one core"));
    let _ = fs::remove_dir_all(&dir);
}
