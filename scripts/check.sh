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

echo "== cargo doc (deny warnings) =="
# Broken, ambiguous or private intra-doc links fail the gate, so a
# deleted item cannot leave a dangling link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== workspace tests =="
# The tier-1 run above builds only the root package's tests; the crate
# suites (trial pin, BGP oracle, CoW equivalence, pool parity, live
# recorder stress) run here.
cargo test --workspace -q

echo "== benchmark package tests =="
# benchmark/ is a workspace of its own, so the root test run above does
# not build it, yet its layer walk calls experiments/netsim APIs directly.
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "== telemetry budget gates =="
# The live-metrics record path (<= 2x a NoopRecorder dispatch) and the
# daemon's telemetry on/off throughput ratio (>= 0.95).
scripts/bench.sh

echo "== trial pool smoke (netdiag trials --threads) =="
cargo run -q --release -p netdiag-experiments --bin netdiag -- \
    trials --placements 2 --failures 2 --threads 2

echo "== internet-scale smoke (netdiag gen -> converge, 1k ASes, 1 and 2 threads) =="
# Exercises the generator, the IGP construction and the BGP message
# plane end to end, on the one-thread prefix-at-a-time path and on the
# parallel-IGP + sharded path, and asserts the RIB is full (every router
# holds a route to every AS's prefix). Both must deliver the pinned,
# deterministic message count.
gen_jsons=()
for threads in 1 2; do
    gen_json="$(cargo run -q --release -p netdiag-experiments --bin netdiag -- \
        gen --ases 1000 --seed 1 --converge --threads "$threads" --json)"
    gen_jsons+=("$gen_json")
    python3 - "$gen_json" <<'PY'
import json, sys
r = json.loads(sys.argv[1])
assert r["rib_routes"] == r["routers"] * r["ases"], f"partial RIB: {r}"
assert r["messages"] == 1684843, f"determinism broken: {r['messages']} messages, pinned 1684843"
print(f"{r['threads']} thread(s): full RIB, {r['rib_routes']} routes, "
      f"{r['messages']} messages in {r['converge_ms']:.0f}ms")
PY
done
# Shard workers take ownership of their prefixes' columns and hand them
# back, so two threads must not hold a second copy of the RIBs.
python3 - "${gen_jsons[@]}" <<'PY'
import json, sys
one, two = (json.loads(a)["rss_peak_kb"] for a in sys.argv[1:3])
assert two <= 1.5 * one, f"2-thread peak RSS {two} kB exceeds 1.5x the 1-thread {one} kB"
print(f"peak RSS: 1 thread {one} kB, 2 threads {two} kB ({two / one:.2f}x)")
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
    > "$servedir/daemon.json"
grep -q '"schema":1' "$servedir/daemon.json"
# Parity: the daemon's text rendering is byte-identical to the batch CLI
# on the same scenario files (ground-truth appendix stripped).
serve request --connect "$addr" --dir "$tracedir/scn" --algo nd-bgpigp \
    > "$servedir/daemon.txt"
netdiag diagnose --dir "$tracedir/scn" --algo nd-bgpigp \
    | sed '/^--- ground truth/,$d' > "$servedir/batch.txt"
diff -u "$servedir/batch.txt" "$servedir/daemon.txt"
# The same parity for the JSON report, which carries no appendix.
netdiag diagnose --dir "$tracedir/scn" --algo nd-bgpigp --json > "$servedir/batch.json"
diff -u "$servedir/batch.json" "$servedir/daemon.json"
# Hostile input: an over-long line, a line nested past the JSON depth
# limit, a non-UTF-8 line and a truncated object, one connection each.
# Each must be refused with an error line (or, for the over-long line, a
# closed connection) and leave the daemon serving: the stats check below
# must still read `health ready`.
python3 - "$addr" <<'PY'
import socket, sys
host, port = sys.argv[1].rsplit(":", 1)
lines = {
    "2 MiB line": b"x" * (2 << 20),
    "100k-deep nesting": b"[" * 100_000,
    "non-UTF-8": b'\xff\xfe{"op":"ping"}',
    "truncated object": b'{"op":"diagnose","after":"path 0 1',
}
for name, line in lines.items():
    with socket.create_connection((host, int(port)), timeout=30) as s:
        try:
            s.sendall(line + b"\n")
        except (BrokenPipeError, ConnectionResetError):
            pass  # refused mid-send: the daemon stopped reading the line
        reply = b""
        try:
            while not reply.endswith(b"\n"):
                chunk = s.recv(4096)
                if not chunk:
                    break
                reply += chunk
        except ConnectionResetError:
            pass
    assert name == "2 MiB line" or b'"ok":false' in reply, f"{name}: {reply!r}"
    print(f"hostile {name}: {reply.decode(errors='replace').strip() or 'connection closed'}")
PY
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
