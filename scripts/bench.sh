#!/usr/bin/env bash
# Budget check for the telemetry plane: two in-run ratios, each leg
# measured back to back in one process, so neither needs a stored
# baseline. Per-layer and end-to-end performance is measured by the
# benchmark declared in BENCHMARK.json (see benchmark/README.md).
#
#   * live-metrics gate — one LiveRecorder counter bump through the
#     `dyn Recorder` vtable costs <= 2x the same virtual dispatch into a
#     NoopRecorder (`live_metrics_overhead/{bump,dispatch}`, the
#     crates/obs/benches/live.rs criterion group);
#   * telemetry gate — the daemon with the live plane on holds >= 95% of
#     the throughput of the same daemon with telemetry off
#     (`netdiag-serve bench --compare`).
set -euo pipefail
cd "$(dirname "$0")/.."

jsonl="$(mktemp)"
trap 'rm -f "$jsonl"' EXIT

echo "== live-metrics gate: LiveRecorder bump vs NoopRecorder dispatch =="
CRITERION_JSON="$jsonl" cargo bench -q -p netdiag-obs --bench live
python3 - "$jsonl" <<'EOF'
import json, sys

median = {}
with open(sys.argv[1]) as f:
    for line in f:
        if line.strip():
            rec = json.loads(line)
            median[rec["id"]] = rec["median_ns"]
ratio = median["live_metrics_overhead/bump"] / median["live_metrics_overhead/dispatch"]
print(f"live metrics gate: bump/dispatch median ratio {ratio:.3f} (budget <= 2.0)")
if ratio > 2.0:
    sys.exit(f"live record path {ratio:.3f}x exceeds the 2x dispatch budget")
EOF

# Both legs run against one shared converged baseline so they differ
# only in recording; a contended box swings absolute req/s, but the
# paired on/off ratio is stable. 150 requests/client: legs shorter than
# ~0.3s make the ratio swing with scheduler noise even under best-of-3.
echo "== telemetry gate: daemon throughput with live plane on vs off =="
cargo build -q --release -p netdiag-serve
# The binary cargo just built: under CARGO_TARGET_DIR, ./target holds a
# stale build or none.
compare_out="$("${CARGO_TARGET_DIR:-target}/release/netdiag-serve" bench --clients 4 --requests 150 --compare)"
echo "$compare_out"
ratio="$(printf '%s\n' "$compare_out" | sed -n 's/^telemetry-compare:.*ratio \([0-9.]*\)$/\1/p')"
if [ -z "$ratio" ]; then
  echo "telemetry gate: no telemetry-compare line in bench output" >&2
  exit 1
fi
python3 - "$ratio" <<'EOF'
import sys
ratio = float(sys.argv[1])
print(f"telemetry gate: on/off throughput ratio {ratio:.3f} (budget >= 0.95)")
if ratio < 0.95:
    sys.exit(f"telemetry-on throughput is {ratio:.3f}x of telemetry-off (< 0.95 budget)")
EOF
