#!/usr/bin/env bash
# ThreadSanitizer build and test run for the sharded parallel engine
# (docs/performance.md). A one-thread engine runs its windows inline, so
# TSan's value is concentrated on the conservative-barrier worker pool: the
# engine unit tests, the sharded determinism suite, and
# traced multi-threaded fabric/fleet CLI runs. The filtered ctest pass keeps
# the job fast enough to run on every push — TSan slows execution ~5-15x,
# and the rest of the suite never spawns a thread (run_sweep's pool is
# covered by the Runner tests below).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build-tsan -G Ninja \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
cmake --build build-tsan
ctest --test-dir build-tsan -j"$(nproc)" --output-on-failure \
  -R 'ShardedEngine|ShardedDeterminism|Runner|EventQueue'

# Traced sharded runs end-to-end under TSan, at a thread count that forces
# real worker threads (the 1-thread engine runs inline). The cross-shard
# message path, per-shard trace staging + deterministic merge, and the
# barrier/skew counters only fully exercise themselves in a real
# oversubscribed multi-device simulation.
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT

build-tsan/tools/uvmsim --workload NW --oversub 0.5 --gpus 4 --fabric ring \
  --engine-threads 4 --sim-stats \
  --trace-out "$TRACE_DIR/fab4.jsonl" >/dev/null
grep -q '"dev":' "$TRACE_DIR/fab4.jsonl"
echo "tsan sharded fabric run OK: $(wc -l < "$TRACE_DIR/fab4.jsonl") events"

build-tsan/tools/uvmsim --fleet --jobs 120 --gpus 4 --arrival-rate 50 \
  --oversub 0.4 --engine-threads 5 \
  --trace-out "$TRACE_DIR/fleet.jsonl" >/dev/null
grep -q '"ev":"job_completed"' "$TRACE_DIR/fleet.jsonl"
echo "tsan sharded fleet run OK: $(wc -l < "$TRACE_DIR/fleet.jsonl") events"

# Same fabric run again at a different worker count: traces must still be
# byte-identical (the determinism contract TSan-instrumented builds must
# uphold too — a race that flips message order would show up here even if
# TSan itself missed it).
build-tsan/tools/uvmsim --workload NW --oversub 0.5 --gpus 4 --fabric ring \
  --engine-threads 2 \
  --trace-out "$TRACE_DIR/fab4_t2.jsonl" >/dev/null
cmp "$TRACE_DIR/fab4.jsonl" "$TRACE_DIR/fab4_t2.jsonl"
echo "tsan sharded determinism OK: 4-thread and 2-thread traces byte-identical"
