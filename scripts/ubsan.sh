#!/usr/bin/env bash
# Standalone UBSan build and test run: undefined behaviour is fatal
# (-fno-sanitize-recover), unlike the combined ASan job where UBSan only
# warns. Finishes with a 2-GPU fabric smoke, whose forwarding arithmetic
# (fixed-point link rates, hop accounting) is exactly the kind of code UB
# creeps into.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build-ubsan -G Ninja \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=undefined -fno-sanitize-recover=undefined -fno-omit-frame-pointer"
cmake --build build-ubsan
ctest --test-dir build-ubsan -j"$(nproc)" --output-on-failure

build-ubsan/tools/uvmsim --workload NW --oversub 0.5 \
  --gpus 2 --fabric ring >/dev/null
echo "ubsan fabric smoke OK"

# Traced Fig 8 workload: drives the full fault/evict/prefetch hot path (heap
# sift arithmetic, FlatMap probe masks, slab index links) with UB fatal.
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT
build-ubsan/tools/uvmsim --workload SRD --oversub 0.5 --sim-stats \
  --trace-out "$TRACE_DIR/t.jsonl" >/dev/null
head -1 "$TRACE_DIR/t.jsonl" | grep -q '"schema":"uvmsim-trace"'
echo "ubsan traced run OK: $(wc -l < "$TRACE_DIR/t.jsonl") events"

# Same workload with 2 MB large frames on: the shift-heavy granularity
# helpers (page/chunk/large index math) and bulk-DMA reservation arithmetic
# run with UB fatal.
build-ubsan/tools/uvmsim --workload SRD --oversub 0.9 --large-pages \
  --trace-out "$TRACE_DIR/lp.jsonl" >/dev/null
grep -q '"ev":"coalesce"' "$TRACE_DIR/lp.jsonl"
echo "ubsan large-pages run OK: $(wc -l < "$TRACE_DIR/lp.jsonl") events"

# Traced GPU-driven fault-backend run with UB fatal: the us -> cycle
# conversions, handler-occupancy max arithmetic and queue-index modulo all
# run under the sanitizer (docs/faultsvc.md). A depth-1 queue forces the
# overflow path too.
build-ubsan/tools/uvmsim --workload BFR --oversub 0.5 --fault-backend gpu-driven \
  --gpu-fault-queue-depth 1 --trace-out "$TRACE_DIR/gb.jsonl" >/dev/null
grep -q '"ev":"fault_queue_full"' "$TRACE_DIR/gb.jsonl"
echo "ubsan gpu-driven backend run OK: $(wc -l < "$TRACE_DIR/gb.jsonl") events"

# Traced fleet run with UB fatal: exponential-gap draws (log/double ->
# integer cycle conversion), percentile rank arithmetic and Jain-window
# indexing all run under the sanitizer (docs/fleet.md).
build-ubsan/tools/uvmsim --fleet --jobs 80 --gpus 2 --arrival-rate 40 \
  --oversub 0.4 --trace-out "$TRACE_DIR/fl.jsonl" >/dev/null
grep -q '"ev":"job_completed"' "$TRACE_DIR/fl.jsonl"
echo "ubsan fleet run OK: $(wc -l < "$TRACE_DIR/fl.jsonl") events"
