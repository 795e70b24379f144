#!/usr/bin/env bash
# Budget check for the telemetry plane: two in-run ratios, so neither
# needs a stored baseline. Each gate alternates its two legs sample by
# sample and checks the median of the per-pair ratios, so a slow phase
# of the host lands on both legs rather than on one. Per-layer and
# end-to-end performance is measured by the benchmark declared in
# BENCHMARK.json (see benchmark/README.md).
#
#   * live-metrics gate — one LiveRecorder counter bump through the
#     `dyn Recorder` vtable costs <= 2x the same virtual dispatch into a
#     NoopRecorder (`live_metrics_overhead/bump_vs_dispatch` in
#     crates/obs/benches/live.rs);
#   * telemetry gate — the daemon with the live plane on holds >= 95% of
#     the throughput of the same daemon with telemetry off
#     (`netdiag-serve bench`, 21 on/off pairs of rounds of 4 clients x
#     150 requests; it fails by itself if any round loses a request).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== live-metrics gate: LiveRecorder bump vs NoopRecorder dispatch =="
live_out="$(cargo bench -q -p netdiag-obs --bench live)"
echo "$live_out"
ratio="$(printf '%s\n' "$live_out" | sed -n 's|^live_metrics_overhead/bump_vs_dispatch .* median ratio=\([0-9.]*\) .*|\1|p')"
if [ -z "$ratio" ]; then
  echo "live metrics gate: no bump_vs_dispatch line in bench output" >&2
  exit 1
fi
python3 - "$ratio" <<'EOF'
import sys
ratio = float(sys.argv[1])
print(f"live metrics gate: median per-pair bump/dispatch ratio {ratio:.3f} (budget <= 2.0)")
if ratio > 2.0:
    sys.exit(f"live record path {ratio:.3f}x exceeds the 2x dispatch budget")
EOF

# Both legs run against one shared converged baseline so they differ
# only in recording; a contended box swings absolute req/s, but the
# paired on/off ratio is stable.
echo "== telemetry gate: daemon throughput with live plane on vs off =="
cargo build -q --release -p netdiag-serve
# The binary cargo just built: under CARGO_TARGET_DIR, ./target holds a
# stale build or none.
compare_out="$("${CARGO_TARGET_DIR:-target}/release/netdiag-serve" bench)"
echo "$compare_out"
ratio="$(printf '%s\n' "$compare_out" | sed -n 's/^telemetry-compare:.*ratio \([0-9.]*\)$/\1/p')"
if [ -z "$ratio" ]; then
  echo "telemetry gate: no telemetry-compare line in bench output" >&2
  exit 1
fi
python3 - "$ratio" <<'EOF'
import sys
ratio = float(sys.argv[1])
print(f"telemetry gate: median per-pair on/off throughput ratio {ratio:.3f} (budget >= 0.95)")
if ratio < 0.95:
    sys.exit(f"telemetry-on throughput is {ratio:.3f}x of telemetry-off (< 0.95 budget)")
EOF
