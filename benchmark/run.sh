#!/usr/bin/env bash
# The repo benchmark: builds, runs each workload in its own process,
# checks outputs, prints every metric by name. See benchmark/README.md.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--traced] [--check-noise]
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1   (BENCHMARK.json's form)
set -euo pipefail

ROOT=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$ROOT"
TARGET=${CARGO_TARGET_DIR:-.bench_build}
case "$TARGET" in /*) ;; *) TARGET="$ROOT/$TARGET" ;; esac
export CARGO_TARGET_DIR="$TARGET"

# Build notes go to stderr: the last line of stdout is the result.
# The benchmark itself, then the daemon it measures from the repo's own
# manifest; the binary refuses to run if the two release profiles differ.
build_start=$(date +%s.%N)
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
cargo build --release --offline --quiet -p nsc-serve --bin nscd >&2
build_s=$(echo "$(date +%s.%N) $build_start" | awk '{printf "%.3f", $1 - $2}')

# Private scratch for socket, cache and results, on a path relative to
# the checkout so the Unix socket name stays short. If this script dies
# before the benchmark can reap its daemon, the pid file names it.
RUN_DIR="benchmark/out/run-$$"
mkdir -p "$RUN_DIR"
child=
cleanup() {
    [ -n "$child" ] && kill "$child" 2>/dev/null || true
    for f in "$RUN_DIR"/*.pid; do
        [ -e "$f" ] && kill "$(cat "$f")" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$RUN_DIR"
}
trap cleanup EXIT
trap 'exit 143' TERM INT HUP

"$TARGET/release/nsc_benchmark" --root . --nscd "$TARGET/release/nscd" \
    --run-dir "$RUN_DIR" --build-s "$build_s" "$@" &
child=$!
rc=0
wait "$child" || rc=$?
child=
exit "$rc"
