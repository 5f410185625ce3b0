#!/usr/bin/env bash
# Regenerates every figure/table of the paper's evaluation at --small scale
# (~1/16 of Table VI inputs with proportionally scaled caches) and captures
# the outputs under results/. Pass --tiny or --full to change scale.
#
# Each harness writes two artifacts: the human-readable table it prints
# (captured as results/<name>.txt) and a machine-readable summary it
# emits itself (results/<name>.json, schema "nsc-bench-v1" -- see the
# Observability section in DESIGN.md). Set NSC_TRACE=1 to additionally
# collect a Chrome/Perfetto trace per harness (results/<name>.trace.json).
#
# Harnesses fan their runs across NSC_JOBS workers (default: all cores)
# with bit-identical output for any job count. Wall-clock per harness and
# in total lands in results/wall_clock.json.
#
# Warm-cache reruns: with NSC_CACHE=1 every simulation point is stored
# content-addressed under results/.cache/, and a repeated sweep replays
# byte-identical results without simulating. Regenerating the whole
# evaluation after an interrupted or partial run then only simulates
# what is missing:
#
#   NSC_CACHE=1 ./run_experiments.sh --small   # cold: simulates + stores
#   NSC_CACHE=1 ./run_experiments.sh --small   # warm: replays from cache
#
# (check results/<name>.json host.cache_hits / host.cache_misses).
set -u
SCALE="${1:---small}"
cd "$(dirname "$0")"
mkdir -p results
cargo build --release -p nsc-bench 2>/dev/null
BIN=target/release
total_start=$SECONDS
WALL_ENTRIES=""
for h in tab01_capabilities tab02_patterns tab03_stream_isas tab04_encoding \
         area_model fig01_potential fig09_speedup fig10_energy fig11_generality \
         fig12_traffic fig13_scm_latency fig14_scc_rob fig15_affine_ranges \
         fig16_lock_type fig17_scalar_pe fig_fault_sweep overview; do
  echo "=== $h $SCALE ==="
  start=$SECONDS
  if $BIN/$h "$SCALE" > results/$h.txt 2>&1; then
    elapsed=$((SECONDS - start))
    echo "($h: ${elapsed}s)" > results/$h.time
    WALL_ENTRIES="$WALL_ENTRIES\"$h\":$elapsed,"
  else
    echo "$h FAILED"
    WALL_ENTRIES="$WALL_ENTRIES\"$h\":null,"
  fi
done
total=$((SECONDS - total_start))
printf '{"scale":"%s","jobs":"%s","harness_s":{%s},"total_s":%d}\n' \
  "$SCALE" "${NSC_JOBS:-auto}" "${WALL_ENTRIES%,}" "$total" > results/wall_clock.json
echo "collected $(ls results/*.json 2>/dev/null | wc -l) machine-readable summaries in results/*.json"
echo "total wall-clock: ${total}s (results/wall_clock.json)"
echo done
