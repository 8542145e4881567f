#!/usr/bin/env bash
# Full local gate: configure, build, run every test and every bench binary.
# Usage: scripts/check.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"

cmake -B "$BUILD" -G Ninja
cmake --build "$BUILD"
ctest --test-dir "$BUILD" -j"$(nproc)" --output-on-failure

echo
echo "== traced uvmsim run (flight recorder end-to-end) =="
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT
"$BUILD"/tools/uvmsim --workload NW --oversub 0.5 \
  --trace-out "$TRACE_DIR/a.jsonl" --interval-metrics "$TRACE_DIR/a.csv" >/dev/null
"$BUILD"/tools/uvmsim --workload NW --oversub 0.5 \
  --trace-out "$TRACE_DIR/b.jsonl" >/dev/null
head -1 "$TRACE_DIR/a.jsonl" | grep -q '"schema":"uvmsim-trace"'
cmp "$TRACE_DIR/a.jsonl" "$TRACE_DIR/b.jsonl"
echo "trace OK: $(wc -l < "$TRACE_DIR/a.jsonl") events, byte-identical rerun"

echo
echo "== event-queue health (no past-scheduled events in a clean run) =="
if "$BUILD"/tools/uvmsim --workload NW --oversub 0.5 | grep -q "clamped"; then
  echo "FAIL: EventQueue clamped past-scheduled events in a clean run"
  exit 1
fi
echo "clamp gate OK"

echo
echo "== 2-GPU fabric determinism (device-stamped trace, byte-identical rerun) =="
"$BUILD"/tools/uvmsim --workload NW --oversub 0.5 --gpus 2 --fabric ring \
  --trace-out "$TRACE_DIR/f_a.jsonl" >/dev/null
"$BUILD"/tools/uvmsim --workload NW --oversub 0.5 --gpus 2 --fabric ring \
  --trace-out "$TRACE_DIR/f_b.jsonl" >/dev/null
grep -q '"dev":' "$TRACE_DIR/f_a.jsonl"
cmp "$TRACE_DIR/f_a.jsonl" "$TRACE_DIR/f_b.jsonl"
echo "fabric trace OK: $(wc -l < "$TRACE_DIR/f_a.jsonl") events, byte-identical rerun"

echo
echo "== sharded engine determinism (reruns and thread counts byte-identical) =="
"$BUILD"/tools/uvmsim --workload NW --oversub 0.5 --gpus 4 --fabric ring \
  --engine sharded --engine-threads 1 --trace-out "$TRACE_DIR/sh_t1.jsonl" \
  > "$TRACE_DIR/sh_t1.txt"
"$BUILD"/tools/uvmsim --workload NW --oversub 0.5 --gpus 4 --fabric ring \
  --engine sharded --engine-threads 4 --trace-out "$TRACE_DIR/sh_t4.jsonl" \
  > "$TRACE_DIR/sh_t4.txt"
"$BUILD"/tools/uvmsim --workload NW --oversub 0.5 --gpus 4 --fabric ring \
  --engine sharded --engine-threads 4 --trace-out "$TRACE_DIR/sh_t4b.jsonl" \
  > "$TRACE_DIR/sh_t4b.txt"
cmp "$TRACE_DIR/sh_t1.jsonl" "$TRACE_DIR/sh_t4.jsonl"
cmp "$TRACE_DIR/sh_t4.jsonl" "$TRACE_DIR/sh_t4b.jsonl"
cmp "$TRACE_DIR/sh_t1.txt" "$TRACE_DIR/sh_t4.txt"
echo "sharded fabric OK: $(wc -l < "$TRACE_DIR/sh_t1.jsonl") events, byte-identical across 1/4 threads and rerun"

"$BUILD"/tools/uvmsim --fleet --jobs 100 --gpus 4 --arrival-rate 50 --oversub 0.4 \
  --engine sharded --engine-threads 1 --trace-out "$TRACE_DIR/shf_t1.jsonl" >/dev/null
"$BUILD"/tools/uvmsim --fleet --jobs 100 --gpus 4 --arrival-rate 50 --oversub 0.4 \
  --engine sharded --engine-threads 5 --trace-out "$TRACE_DIR/shf_t5.jsonl" >/dev/null
cmp "$TRACE_DIR/shf_t1.jsonl" "$TRACE_DIR/shf_t5.jsonl"
grep -q '"ev":"job_completed"' "$TRACE_DIR/shf_t1.jsonl"
echo "sharded fleet OK: $(wc -l < "$TRACE_DIR/shf_t1.jsonl") events, byte-identical across 1/5 threads"

echo
echo "== engine and mode flag validation (bad combinations must exit 2) =="
for bad in "--engine bogus" "--engine sharded --tenants NW,BFS" \
           "--engine sharded --gpus 2 --spill" "--engine-threads -1" \
           "--interval-metrics $TRACE_DIR/iv_fab.csv --gpus 2" \
           "--interval-metrics $TRACE_DIR/iv_ten.csv --tenants NW,BFS" \
           "--trace $TRACE_DIR/nw.trc --gpus 2" \
           "--record-trace $TRACE_DIR/fleet.trc --fleet" \
           "--fleet --tenants NW,BFS" "--gpus 2 --tenants NW,BFS" \
           "--tenants NW"; do
  rc=0
  # shellcheck disable=SC2086
  "$BUILD"/tools/uvmsim --workload NW $bad >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: '$bad' exited $rc, expected 2"
    exit 1
  fi
done
for f in iv_fab.csv iv_ten.csv fleet.trc; do
  if [ -e "$TRACE_DIR/$f" ]; then
    echo "FAIL: rejected run wrote $f"
    exit 1
  fi
done
echo "engine and mode flag validation OK"

echo
echo "== hostile trace header (a count beyond the file size must exit 2) =="
# 40 bytes: a valid header claiming 2^32 - 1 streams, then zeros. Unchecked,
# it asks for ~128 GB, so the run is capped at 4 GB of address space; it
# must fail on the count check, not on std::bad_alloc.
{ printf 'UVMTRC01\001\000\000\000\377\377\377\377\100\000\000\000\000\000\000\000\001\000'
  head -c 14 /dev/zero; } > "$TRACE_DIR/hostile.trc"
rc=0
(ulimit -v 4000000; "$BUILD"/tools/uvmsim --trace "$TRACE_DIR/hostile.trc") \
  >/dev/null 2>"$TRACE_DIR/hostile.err" || rc=$?
if [ "$rc" -ne 2 ] || ! grep -q "exceeds file size" "$TRACE_DIR/hostile.err"; then
  echo "FAIL: hostile trace header exited $rc: $(cat "$TRACE_DIR/hostile.err")"
  exit 1
fi
echo "hostile trace header OK"

echo
echo "== hostile trace footprint (a footprint beyond the cap must exit 2) =="
# 62 bytes: a header declaring 2^40 pages, then one stream of two accesses.
# Page-indexed tables allocate per page of footprint, so under the same
# 4 GB cap the run must fail on the footprint check, not on std::bad_alloc.
{ printf 'UVMTRC01\001\000\000\000\001\000\000\000'
  printf '\000\000\000\000\000\001\000\000\001\000'
  printf '\000\000\000\000\002\000\000\000\000\000\000\000'
  head -c 24 /dev/zero; } > "$TRACE_DIR/huge_footprint.trc"
rc=0
(ulimit -v 4000000; "$BUILD"/tools/uvmsim --trace "$TRACE_DIR/huge_footprint.trc") \
  >/dev/null 2>"$TRACE_DIR/huge_footprint.err" || rc=$?
if [ "$rc" -ne 2 ] || ! grep -q "exceeds the cap of 16777216 pages" \
    "$TRACE_DIR/huge_footprint.err"; then
  echo "FAIL: hostile trace footprint exited $rc: $(cat "$TRACE_DIR/huge_footprint.err")"
  exit 1
fi
echo "hostile trace footprint OK"

echo
echo "== hostile arrival trace (a signed gap must exit 2, naming its line) =="
# "-5" once read as a gap of 2^64 - 5 cycles: the fleet ran, exited 0 and
# reported goodput 0.000.
printf '# gaps\n100\n-5\n' > "$TRACE_DIR/hostile_arrivals.txt"
rc=0
"$BUILD"/tools/uvmsim --fleet --jobs 20 \
  --arrival-trace "$TRACE_DIR/hostile_arrivals.txt" \
  >/dev/null 2>"$TRACE_DIR/hostile_arrivals.err" || rc=$?
if [ "$rc" -ne 2 ] || ! grep -q "line 3" "$TRACE_DIR/hostile_arrivals.err"; then
  echo "FAIL: hostile arrival trace exited $rc: $(cat "$TRACE_DIR/hostile_arrivals.err")"
  exit 1
fi
echo "hostile arrival trace OK"

echo
echo "== fabric spill smoke (spill-to-peer must cut host write-back) =="
"$BUILD"/bench/fabric_scaling --smoke

echo
echo "== adaptive policy smoke (never loses to the worst static by >5%) =="
"$BUILD"/bench/abl_adaptive --smoke

echo
echo "== large-pages smoke (2 MB frames must not hurt TLB hit rate or DMA ops) =="
"$BUILD"/bench/abl_large_pages --smoke

echo
echo "== large-pages trace determinism (gated events, byte-identical rerun) =="
"$BUILD"/tools/uvmsim --workload SRD --oversub 0.9 --large-pages \
  --trace-out "$TRACE_DIR/lp_a.jsonl" >/dev/null
"$BUILD"/tools/uvmsim --workload SRD --oversub 0.9 --large-pages \
  --trace-out "$TRACE_DIR/lp_b.jsonl" >/dev/null
grep -q '"ev":"coalesce"' "$TRACE_DIR/lp_a.jsonl"
cmp "$TRACE_DIR/lp_a.jsonl" "$TRACE_DIR/lp_b.jsonl"
echo "large-pages trace OK: $(wc -l < "$TRACE_DIR/lp_a.jsonl") events, byte-identical rerun"

echo
echo "== fault-backend host default byte-identity (explicit flag is a no-op) =="
"$BUILD"/tools/uvmsim --workload NW --oversub 0.5 --fault-backend host \
  --trace-out "$TRACE_DIR/hb.jsonl" > "$TRACE_DIR/hb.txt"
"$BUILD"/tools/uvmsim --workload NW --oversub 0.5 \
  --trace-out "$TRACE_DIR/hb_def.jsonl" > "$TRACE_DIR/hb_def.txt"
cmp "$TRACE_DIR/hb.jsonl" "$TRACE_DIR/hb_def.jsonl"
cmp "$TRACE_DIR/hb.txt" "$TRACE_DIR/hb_def.txt"
if grep -qE '"ev":"(fault_enqueued|fault_queue_full|gpu_fault_serviced)"' \
    "$TRACE_DIR/hb_def.jsonl"; then
  echo "FAIL: host-backend run emitted a gated GPU-backend event"
  exit 1
fi
echo "host-backend byte-identity OK"

echo
echo "== gpu-driven trace determinism (backend events, byte-identical rerun) =="
"$BUILD"/tools/uvmsim --workload BFR --oversub 0.5 --fault-backend gpu-driven \
  --trace-out "$TRACE_DIR/gb_a.jsonl" >/dev/null
"$BUILD"/tools/uvmsim --workload BFR --oversub 0.5 --fault-backend gpu-driven \
  --trace-out "$TRACE_DIR/gb_b.jsonl" >/dev/null
grep -q '"ev":"fault_enqueued"' "$TRACE_DIR/gb_a.jsonl"
grep -q '"ev":"gpu_fault_serviced"' "$TRACE_DIR/gb_a.jsonl"
cmp "$TRACE_DIR/gb_a.jsonl" "$TRACE_DIR/gb_b.jsonl"
echo "gpu-driven trace OK: $(wc -l < "$TRACE_DIR/gb_a.jsonl") events, byte-identical rerun"

echo
echo "== fault-backend flag validation (bad values must exit 2) =="
for bad in "--fault-backend bogus" "--fault-latency-us 0" \
           "--evict-service-us -1" "--gpu-fault-queue-depth 0"; do
  # shellcheck disable=SC2086
  if "$BUILD"/tools/uvmsim --workload NW $bad >/dev/null 2>&1; then
    echo "FAIL: '$bad' was accepted"
    exit 1
  fi
done
echo "flag validation OK"

echo
echo "== fault-backend smoke (gpu-driven must cut mean fault stall on BFS/BFR) =="
"$BUILD"/bench/abl_fault_backend --smoke

echo
echo "== fleet trace determinism (job lifecycle events, byte-identical rerun) =="
"$BUILD"/tools/uvmsim --fleet --jobs 100 --gpus 2 --arrival-rate 40 --oversub 0.4 \
  --trace-out "$TRACE_DIR/fl_a.jsonl" >/dev/null
"$BUILD"/tools/uvmsim --fleet --jobs 100 --gpus 2 --arrival-rate 40 --oversub 0.4 \
  --trace-out "$TRACE_DIR/fl_b.jsonl" >/dev/null
grep -q '"ev":"job_admitted"' "$TRACE_DIR/fl_a.jsonl"
cmp "$TRACE_DIR/fl_a.jsonl" "$TRACE_DIR/fl_b.jsonl"
echo "fleet trace OK: $(wc -l < "$TRACE_DIR/fl_a.jsonl") events, byte-identical rerun"

echo
echo "== fleet serving smoke (headroom/least-loaded must flatten p95 slowdown) =="
"$BUILD"/bench/fleet_serving --smoke

echo
echo "== bench binaries =="
for b in "$BUILD"/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue  # skip CMakeFiles/ etc.
  case "$(basename "$b")" in
    perf_gate) continue ;;  # needs a Release build; gated separately below
  esac
  echo "--- $(basename "$b") ---"
  "$b"
done

echo
echo "== perfbench self-test (the benchmark still builds against src/) =="
python3 perfbench/run.py --selftest

echo
echo "== wall-clock perf gate (Release, vs committed BENCH_PR5.json) =="
# The committed baseline was measured on a Release build; comparing a
# RelWithDebInfo/Debug binary against it would always "regress", so the gate
# gets its own Release tree (docs/performance.md).
cmake -B build-perf -G Ninja -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-perf --target perf_gate >/dev/null
build-perf/bench/perf_gate --smoke --baseline BENCH_PR5.json

echo
echo "== sharded-engine perf gate (Release, vs committed BENCH_PR10.json) =="
build-perf/bench/perf_gate --sharded-smoke --sharded-baseline BENCH_PR10.json
