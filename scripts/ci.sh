#!/usr/bin/env bash
# Offline-safe CI gate for the near-stream suite.
#
# Runs the same checks the project expects before every merge:
#   1. release build of the whole workspace,
#   2. the full test suite (unit, integration, doc tests),
#   3. clippy with warnings promoted to errors,
#   4. no environment read outside crates/sim/src/config.rs (benchmark/,
#      a package of its own, is not checked),
#   5. a chaos smoke: the fault-injection sweep at --tiny, which asserts
#      bit-identical results under injected faults across 4 fixed seeds,
#   6. a perf smoke: NSC_JOBS=1 vs NSC_JOBS=8 must produce byte-identical
#      tables and JSON (modulo the host.* wall-clock object),
#   7. a cache smoke: the same harness twice under NSC_CACHE=1 — the
#      second run must be 100% cache hits (zero simulations) and emit a
#      byte-identical report once the host.* object is stripped,
#   8. a cache-tier smoke: the sweep under tiny NSC_CACHE_DISK_BYTES +
#      compression (forced cold evictions, still byte-identical), then a
#      live daemon with a 1-byte cold budget whose hot tier must serve a
#      disk-evicted key, checked via `nsc-client inspect` and the
#      nsc_cache_* Prometheus series,
#   9. an nscd smoke: daemon round trip over a Unix socket, including a
#      warm resubmission that must be served from the cache,
#  10. a trace smoke: one request's span tree and the log flight
#      recorder from a live daemon, and fig09 under NSC_LOG=debug
#      byte-identical to the plain run,
#  11. an overload soak: a saturating nsc_load burst against a one-worker
#      daemon with fault injection armed — every request must get exactly
#      one terminal response (typed sheds allowed, lost responses not)
#      and the shed counters must surface in the Prometheus exporter,
#  12. the repo benchmark (benchmark/run.sh, default arguments): every
#      workload must report correct output and zero failed operations.
#      Host time is not gated here; see benchmark/README.md for how a
#      speed claim is measured.
#
# Simulated counters are pinned exactly by tests/correctness.rs (stage 2).
#
# No network access is required: all dependencies are path dependencies
# inside this workspace, so everything runs with `--offline`.
set -euo pipefail
cd "$(dirname "$0")/.."

# Waits up to 5 s for the daemon on socket $1 to answer a status round
# trip. Testing for the socket file alone is racy: it can exist before
# the daemon listens.
wait_for_daemon() {
  for _ in $(seq 50); do
    ./target/release/nsc-client status --socket "$1" > /dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "nscd on $1 never answered status"
  exit 1
}

echo "== build (release) =="
cargo build --release --workspace --offline

echo "== tests =="
cargo test -q --workspace --offline

echo "== clippy (-D warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== config (one reader of the environment) =="
if grep -rnE 'env::(var\(|var_os\(|vars)' crates src tests examples --include='*.rs' \
    | grep -v '^crates/sim/src/config\.rs:'; then
  echo "environment read outside crates/sim/src/config.rs"; exit 1
fi

PERF_TMP="$(mktemp -d)"
trap 'rm -rf "$PERF_TMP"' EXIT

echo "== chaos (fault-injection smoke, 4 fixed seeds) =="
# Written to the temp dir: a --tiny report must not overwrite the
# committed --small results/fig_fault_sweep.json.
mkdir -p "$PERF_TMP/chaos"
NSC_RESULTS_DIR="$PERF_TMP/chaos" \
  cargo run -q --release -p nsc-bench --offline --bin fig_fault_sweep -- --tiny

echo "== perf (parallel-vs-serial bit-identity) =="
mkdir -p "$PERF_TMP/j1" "$PERF_TMP/j8"
NSC_JOBS=1 NSC_RESULTS_DIR="$PERF_TMP/j1" \
  ./target/release/fig09_speedup --tiny > "$PERF_TMP/j1.txt"
NSC_JOBS=8 NSC_RESULTS_DIR="$PERF_TMP/j8" \
  ./target/release/fig09_speedup --tiny > "$PERF_TMP/j8.txt"
diff "$PERF_TMP/j1.txt" "$PERF_TMP/j8.txt"
# The host object ({jobs, sim_runs, wall_ms, profile, ...}) is the one
# legitimate delta. It is the report's last key and carries nested
# braces (host.profile), so strip from its key to end of line.
diff <(sed 's/,"host":.*//' "$PERF_TMP/j1/fig09_speedup.json") \
     <(sed 's/,"host":.*//' "$PERF_TMP/j8/fig09_speedup.json")
echo "parallel output is bit-identical (jobs 1 vs 8)"

echo "== cache (cold-vs-warm byte-identity, zero warm simulations) =="
CACHE_TMP="$PERF_TMP/cache"
mkdir -p "$CACHE_TMP/cold" "$CACHE_TMP/warm"
NSC_CACHE=1 NSC_CACHE_DIR="$CACHE_TMP/store" NSC_RESULTS_DIR="$CACHE_TMP/cold" \
  ./target/release/fig09_speedup --tiny > "$CACHE_TMP/cold.txt"
NSC_CACHE=1 NSC_CACHE_DIR="$CACHE_TMP/store" NSC_RESULTS_DIR="$CACHE_TMP/warm" \
  ./target/release/fig09_speedup --tiny > "$CACHE_TMP/warm.txt"
diff "$CACHE_TMP/cold.txt" "$CACHE_TMP/warm.txt"
diff <(sed 's/,"host":.*//' "$CACHE_TMP/cold/fig09_speedup.json") \
     <(sed 's/,"host":.*//' "$CACHE_TMP/warm/fig09_speedup.json")
grep -q '"cache_misses":0,' "$CACHE_TMP/warm/fig09_speedup.json" \
  || { echo "warm run simulated instead of replaying"; exit 1; }
grep -q '"cache_hits":0,' "$CACHE_TMP/cold/fig09_speedup.json" \
  || { echo "cold run hit a cache that should have been empty"; exit 1; }
echo "warm run replayed every point from the cache, byte-identical report"

echo "== cache-tier (tiny budgets: evictions, hot-tier hits, inspect) =="
# A cold-tier byte budget far below the sweep's footprint forces
# evictions mid-sweep, with record compression on to cover the framed
# file path. Evicted entries cost a re-simulation, never a changed
# byte: the second sweep must still match the first exactly.
TIER_TMP="$PERF_TMP/tier"
mkdir -p "$TIER_TMP/cold" "$TIER_TMP/warm"
NSC_CACHE=1 NSC_CACHE_DIR="$TIER_TMP/store" NSC_CACHE_DISK_BYTES=4k \
  NSC_CACHE_COMPRESS=1 NSC_RESULTS_DIR="$TIER_TMP/cold" \
  ./target/release/fig09_speedup --tiny > "$TIER_TMP/cold.txt"
NSC_CACHE=1 NSC_CACHE_DIR="$TIER_TMP/store" NSC_CACHE_DISK_BYTES=4k \
  NSC_CACHE_COMPRESS=1 NSC_RESULTS_DIR="$TIER_TMP/warm" \
  ./target/release/fig09_speedup --tiny > "$TIER_TMP/warm.txt"
diff "$TIER_TMP/cold.txt" "$TIER_TMP/warm.txt"
diff <(sed 's/,"host":.*//' "$TIER_TMP/cold/fig09_speedup.json") \
     <(sed 's/,"host":.*//' "$TIER_TMP/warm/fig09_speedup.json")
# Live daemon with a 1-byte cold budget: every store evicts its
# predecessors (the newest entry is spared), yet a resubmission is
# still served — from the in-memory hot tier.
TIER_SOCK="$PERF_TMP/nscd-tier.sock"
NSC_CACHE_DIR="$TIER_TMP/nscd-store" NSC_CACHE_DISK_BYTES=1 \
  ./target/release/nscd --socket "$TIER_SOCK" --jobs 1 &
TIER_PID=$!
wait_for_daemon "$TIER_SOCK"
./target/release/nsc-client submit --socket "$TIER_SOCK" --size tiny --mode NS histogram \
  > /dev/null
./target/release/nsc-client submit --socket "$TIER_SOCK" --size tiny --mode NS bin_tree \
  > /dev/null
# histogram's cold file was evicted by bin_tree's store, but the hot
# tier still holds it: the resubmission must come back cached.
./target/release/nsc-client submit --socket "$TIER_SOCK" --size tiny --mode NS histogram \
  > "$TIER_TMP/resubmit.txt"
grep -q 'cached=true' "$TIER_TMP/resubmit.txt" \
  || { echo "hot tier failed to serve an evicted-from-disk key"; cat "$TIER_TMP/resubmit.txt"; exit 1; }
./target/release/nsc-client inspect --socket "$TIER_SOCK" > "$TIER_TMP/inspect.txt" \
  2> "$TIER_TMP/inspect-summary.txt"
grep -q '"hot_hits":[1-9]' "$TIER_TMP/inspect.txt" \
  || { echo "inspect shows no hot-tier hits"; cat "$TIER_TMP/inspect.txt"; exit 1; }
grep -q '"cold_evictions":[1-9]' "$TIER_TMP/inspect.txt" \
  || { echo "inspect shows no cold evictions under a 1-byte budget"; cat "$TIER_TMP/inspect.txt"; exit 1; }
grep -q '"hottest":"[0-9a-f]' "$TIER_TMP/inspect.txt" \
  || { echo "inspect hottest-keys list empty"; cat "$TIER_TMP/inspect.txt"; exit 1; }
grep -q '^  hot ' "$TIER_TMP/inspect-summary.txt" \
  || { echo "inspect human summary missing tier table"; cat "$TIER_TMP/inspect-summary.txt"; exit 1; }
# The per-tier counters surface in the Prometheus exporter.
./target/release/nsc-client metrics --prom --socket "$TIER_SOCK" > "$TIER_TMP/prom.txt"
grep -q '# TYPE nsc_cache_hot_hits_total counter' "$TIER_TMP/prom.txt" \
  || { echo "cache.hot.hits missing from prometheus exporter"; cat "$TIER_TMP/prom.txt"; exit 1; }
grep -q '# TYPE nsc_cache_cold_evictions_total counter' "$TIER_TMP/prom.txt" \
  || { echo "cache.cold.evictions missing from prometheus exporter"; exit 1; }
./target/release/nsc-client shutdown --socket "$TIER_SOCK" > /dev/null
wait "$TIER_PID"
echo "tiered cache: evictions forced, hot tier served, inspect + prom observable"

echo "== nscd (daemon round trip + warm resubmission) =="
NSCD_SOCK="$PERF_TMP/nscd.sock"
NSC_CACHE_DIR="$PERF_TMP/nscd-cache" ./target/release/nscd --socket "$NSCD_SOCK" --jobs 2 &
NSCD_PID=$!
wait_for_daemon "$NSCD_SOCK"
./target/release/nsc-client submit --socket "$NSCD_SOCK" --size tiny --mode NS histogram \
  > "$PERF_TMP/nscd-cold.txt"
./target/release/nsc-client submit --socket "$NSCD_SOCK" --size tiny --mode NS histogram \
  > "$PERF_TMP/nscd-warm.txt"
grep -q 'cached=false' "$PERF_TMP/nscd-cold.txt" \
  || { echo "first daemon run claimed to be cached"; cat "$PERF_TMP/nscd-cold.txt"; exit 1; }
grep -q 'cached=true' "$PERF_TMP/nscd-warm.txt" \
  || { echo "resubmission was not served from the cache"; cat "$PERF_TMP/nscd-warm.txt"; exit 1; }
diff <(sed 's/cached=.*//' "$PERF_TMP/nscd-cold.txt") \
     <(sed 's/cached=.*//' "$PERF_TMP/nscd-warm.txt")
./target/release/nsc-client status --socket "$NSCD_SOCK" | grep -q '"ok":true'
./target/release/nsc-client status --socket "$NSCD_SOCK" | grep -q '"uptime_ms":'
# Live metrics: the daemon's registry saw both runs (one cached), and
# the Prometheus rendering carries the counter with a TYPE line.
./target/release/nsc-client metrics --socket "$NSCD_SOCK" > "$PERF_TMP/nscd-metrics.txt"
grep -q 'serve.runs_cached[ =]*1' "$PERF_TMP/nscd-metrics.txt" \
  || { echo "daemon metrics missed the cached run"; cat "$PERF_TMP/nscd-metrics.txt"; exit 1; }
./target/release/nsc-client metrics --prom --socket "$NSCD_SOCK" > "$PERF_TMP/nscd-prom.txt"
grep -q '# TYPE nsc_serve_runs_total counter' "$PERF_TMP/nscd-prom.txt" \
  || { echo "prometheus rendering broken"; cat "$PERF_TMP/nscd-prom.txt"; exit 1; }
./target/release/nsc-client shutdown --socket "$NSCD_SOCK" > /dev/null
wait "$NSCD_PID"
echo "daemon served, cached, reported metrics, and shut down cleanly"

echo "== trace (request spans, flight recorder, log-on bit-identity) =="
TRACE_SOCK="$PERF_TMP/nscd-trace.sock"
NSC_LOG=debug NSC_TRACE=1 NSC_CACHE_DIR="$PERF_TMP/nscd-trace-cache" \
  ./target/release/nscd --socket "$TRACE_SOCK" --jobs 2 &
TRACE_PID=$!
wait_for_daemon "$TRACE_SOCK"
./target/release/nsc-client submit --socket "$TRACE_SOCK" --size tiny --mode NS histogram \
  > "$PERF_TMP/trace-submit.txt"
RID="$(sed -n 's/.*rid=\([0-9a-f]*\).*/\1/p' "$PERF_TMP/trace-submit.txt")"
[ -n "$RID" ] || { echo "submit printed no request id"; cat "$PERF_TMP/trace-submit.txt"; exit 1; }
./target/release/nsc-client trace "$RID" --socket "$TRACE_SOCK" > "$PERF_TMP/trace-tree.txt"
# Span rows are indented "  <name> <start>µs <dur>µs"; the header line
# carries the wall time. The spans are sequential slices of one request,
# so their durations must sum to within the reported wall time.
WALL="$(sed -n 's/^request .*: wall \([0-9]*\)µs.*/\1/p' "$PERF_TMP/trace-tree.txt")"
awk -v wall="$WALL" '
  /^  / { n++; gsub(/µs/, "", $3); sum += $3 }
  END {
    if (n < 6)      { printf "only %d spans, want >=6\n", n; exit 1 }
    if (sum > wall) { printf "span durations (%dus) exceed wall (%dus)\n", sum, wall; exit 1 }
    printf "%d spans, %dus of %dus wall accounted\n", n, sum, wall
  }' "$PERF_TMP/trace-tree.txt" \
  || { cat "$PERF_TMP/trace-tree.txt"; exit 1; }
# The flight recorder saw the request: `logs` drains structured records.
./target/release/nsc-client logs --socket "$TRACE_SOCK" > "$PERF_TMP/trace-logs.txt"
grep -q '"level":"debug"' "$PERF_TMP/trace-logs.txt" \
  || { echo "flight recorder empty at NSC_LOG=debug"; cat "$PERF_TMP/trace-logs.txt"; exit 1; }
./target/release/nsc-client shutdown --socket "$TRACE_SOCK" > /dev/null
wait "$TRACE_PID"
# Logging must not perturb simulation: fig09 under NSC_LOG=debug is
# byte-identical to the plain NSC_JOBS=1 run from the perf stage.
mkdir -p "$PERF_TMP/logdbg"
NSC_LOG=debug NSC_JOBS=1 NSC_RESULTS_DIR="$PERF_TMP/logdbg" \
  ./target/release/fig09_speedup --tiny > "$PERF_TMP/logdbg.txt"
diff "$PERF_TMP/j1.txt" "$PERF_TMP/logdbg.txt"
diff <(sed 's/,"host":.*//' "$PERF_TMP/j1/fig09_speedup.json") \
     <(sed 's/,"host":.*//' "$PERF_TMP/logdbg/fig09_speedup.json")
echo "request traced end to end, logs drained, sim output unperturbed"

echo "== soak (nsc_load burst vs one-worker daemon, chaos armed) =="
# A saturating open-loop burst against a deliberately tiny daemon
# (one worker, queue_cap 8) with fault injection armed. The harness
# exits non-zero unless every accepted request got exactly one terminal
# response (lost=0, dup=0) and every completed run was bit-identical
# per key (mismatch=0); typed sheds must surface in the Prometheus
# exporter, and the daemon must drain and exit cleanly afterwards.
SOAK_SOCK="$PERF_TMP/nscd-soak.sock"
NSC_CACHE_DIR="$PERF_TMP/nscd-soak-cache" NSC_FAULT_RATE=1e-3 \
  NSC_QUEUE_CAP=8 NSC_MAX_CONNS=32 \
  ./target/release/nscd --socket "$SOAK_SOCK" --jobs 1 &
SOAK_PID=$!
wait_for_daemon "$SOAK_SOCK"
./target/release/nsc_load --tiny --socket "$SOAK_SOCK" \
  --secs 10 --rate 300 --conns 4 --seed 7 --deadline-ms 2000 --burst 4 \
  | tee "$PERF_TMP/soak.txt"
grep -q ' lost=0 ' "$PERF_TMP/soak.txt" \
  || { echo "soak lost responses"; exit 1; }
./target/release/nsc-client metrics --prom --socket "$SOAK_SOCK" > "$PERF_TMP/soak-prom.txt"
grep -q '# TYPE nsc_serve_shed_total counter' "$PERF_TMP/soak-prom.txt" \
  || { echo "serve.shed missing from prometheus exporter"; cat "$PERF_TMP/soak-prom.txt"; exit 1; }
grep -q '# TYPE nsc_serve_deadline_exceeded_total counter' "$PERF_TMP/soak-prom.txt" \
  || { echo "serve.deadline_exceeded missing from prometheus exporter"; exit 1; }
./target/release/nsc-client shutdown --socket "$SOAK_SOCK" > /dev/null
wait "$SOAK_PID"
echo "soak survived: one terminal response per request, typed sheds observable"

echo "== benchmark (every workload correct, no failed operations) =="
# A plain run exits 0 even when a correctness check fails, so the
# per-workload `ops attempted N failed M correct B` lines are the gate.
# Its --check-noise mode is not run here: it fails on host noise by
# design. Sharing target/ reuses the release build from stage 1.
CARGO_TARGET_DIR="$PWD/target" benchmark/run.sh | tee "$PERF_TMP/bench.txt"
grep -q '^ops attempted ' "$PERF_TMP/bench.txt" \
  || { echo "benchmark reported no workload"; exit 1; }
if grep -E '^ops attempted .*(failed [1-9]|correct false)' "$PERF_TMP/bench.txt"; then
  echo "benchmark: a workload failed operations or produced incorrect output"
  exit 1
fi
echo "benchmark: every workload correct, no failed operations"

echo "CI checks passed."
