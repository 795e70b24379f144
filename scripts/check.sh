#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 build + test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== xtask lint (workspace invariants) =="
# Prebuild so the timed run below measures the linter, not the compiler.
cargo build -q -p netdiag-xtask
lint_start_ms="$(date +%s%3N)"
scripts/lint.sh
lint_elapsed_ms="$(( $(date +%s%3N) - lint_start_ms ))"
echo "lint wall time: ${lint_elapsed_ms}ms"
# The full lint — token passes plus the item-graph passes — must stay
# interactive: under 5 seconds on a warm build.
if [ "$lint_elapsed_ms" -ge 5000 ]; then
    echo "xtask lint took ${lint_elapsed_ms}ms (budget: 5000ms)" >&2
    exit 1
fi

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== benchmark package tests =="
# benchmark/ is a workspace of its own, so the root test run above does
# not build it, yet its layer walk calls experiments/netsim APIs directly.
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "== bench + perf gates (full budget) =="
# scripts/bench.sh runs the perf bench, rewrites BENCH_PR6.json and applies
# the regression / incremental / pool / trace-overhead guards. The gate
# uses the full measurement budget (~1 extra minute): the quick-mode
# 10-sample minima swing by ±30% on a busy box, which a 1.25x regression
# budget cannot tolerate.
BENCH_QUICK=0 scripts/bench.sh

echo "== trial pool smoke (netdiag trials --threads) =="
cargo run -q --release -p netdiag-experiments --bin netdiag -- \
    trials --placements 2 --failures 2 --threads 2

echo "== internet-scale smoke (netdiag gen -> parallel converge, 1k ASes) =="
# Exercises the generator, the parallel-IGP construction and the sharded
# BGP message plane end to end, and asserts the RIB is full (every
# router holds a route to every AS's prefix).
gen_json="$(cargo run -q --release -p netdiag-experiments --bin netdiag -- \
    gen --ases 1000 --seed 1 --converge --threads 2 --json)"
python3 - "$gen_json" <<'PY'
import json, sys
r = json.loads(sys.argv[1])
assert r["rib_routes"] == r["routers"] * r["ases"], f"partial RIB: {r}"
print(f"full RIB: {r['rib_routes']} routes in {r['converge_ms']:.0f}ms")
PY

echo "== trace smoke (simulate -> diagnose --trace -> explain) =="
tracedir="$(mktemp -d)"
trap 'rm -rf "$tracedir"' EXIT
# cargo run (not ./target/release/netdiag): the tier-1 build above only
# covers the root package, not the experiments bins.
netdiag() { cargo run -q --release -p netdiag-experiments --bin netdiag -- "$@"; }
netdiag simulate --out "$tracedir/scn" --seed 3
netdiag diagnose --dir "$tracedir/scn" --algo nd-bgpigp \
    --trace "$tracedir/diag.jsonl" --trace-chrome "$tracedir/diag.chrome.json"
test -s "$tracedir/diag.jsonl"
test -s "$tracedir/diag.chrome.json"
netdiag explain "$tracedir/diag.jsonl" | head -n 20

echo "== serve smoke (daemon round-trip + batch parity) =="
servedir="$tracedir/serve"
mkdir -p "$servedir"
serve() { cargo run -q --release -p netdiag-serve --bin netdiag-serve -- "$@"; }
# Build up front so the background `run` is listening, not compiling.
cargo build -q --release -p netdiag-serve
serve_pid=""
trap 'if [ -n "$serve_pid" ]; then kill "$serve_pid" 2>/dev/null || true; fi; rm -rf "$tracedir"' EXIT
serve run --listen 127.0.0.1:0 --seed 3 --sensors 8 > "$servedir/run.out" &
serve_pid=$!
addr=""
for _ in $(seq 1 150); do
    addr="$(sed -n 's/^listening //p' "$servedir/run.out")"
    [ -n "$addr" ] && break
    sleep 0.2
done
test -n "$addr"
# Structured response: a current-schema DiagnosticReport comes back.
serve request --connect "$addr" --dir "$tracedir/scn" --algo nd-bgpigp --json \
    | grep -q '"schema":1'
# Parity: the daemon's text rendering is byte-identical to the batch CLI
# on the same scenario files (ground-truth appendix stripped).
serve request --connect "$addr" --dir "$tracedir/scn" --algo nd-bgpigp \
    > "$servedir/daemon.txt"
netdiag diagnose --dir "$tracedir/scn" --algo nd-bgpigp \
    | sed '/^--- ground truth/,$d' > "$servedir/batch.txt"
diff -u "$servedir/batch.txt" "$servedir/daemon.txt"
# Live telemetry plane: the stats verb reports a ready daemon whose
# request counter advanced past the diagnoses above, and the Prometheus
# rendering exposes the same registry.
serve stats --connect "$addr" > "$servedir/stats.txt"
cat "$servedir/stats.txt"
grep -q 'health ready' "$servedir/stats.txt"
grep -Eq '[1-9][0-9]* total' "$servedir/stats.txt"
serve stats --connect "$addr" --prom | grep -q '^netdiag_serve_requests_total'
# Clean remote shutdown.
serve stop --connect "$addr" | grep -q '"stopping":true'
wait "$serve_pid"
serve_pid=""

echo "all checks passed"
