#!/usr/bin/env python3
"""Simulation-cost benchmark for uvmsim (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload fig8 --seed 24301 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all     # every metric of every workload
    python3 perfbench/run.py --selftest

The script builds the simulator from ../src with perfbench/CMakeLists.txt
(Release) into $CARGO_TARGET_DIR, or .bench_build when that is unset, runs
perfbench_sim, prints a run manifest and a table of every metric with its unit
and sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("fig8", "fabric4", "fleet8")
DEFAULT_SEED = 24301
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# The benchmark must answer within this many seconds once built.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure (once) and build perfbench_sim; returns the binary path."""
    if not (ROOT / "src" / "core" / "uvm_system.hpp").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found on PATH")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed", 1)
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed", 1)
    return out / "perfbench_sim"


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_rev():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest():
    """sha256 over src/ (paths and contents): identifies the code measured
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_sim(binary, workload, seed, seconds, trace):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(build_dir() / f"spans-{workload}-{seed}.jsonl")]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no answer within {RUN_TIMEOUT_S} s", 1)
    if r.returncode != 0 or not r.stdout.strip():
        sys.stderr.write(r.stderr)
        fail(f"{workload}: perfbench_sim exited with {r.returncode}", 1)
    return json.loads(r.stdout.strip().splitlines()[-1])


def check_names(raw, trace):
    got = [(k, v["unit"]) for k, v in raw["metrics"].items()]
    want = expected_metrics(trace)
    if sorted(got) != sorted(want):
        fail(f"emitted metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"unexpected {sorted(set(got) - set(want))}", 3)


def manifest(raw, workload, seed, seconds, trace):
    info = raw["info"]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_rev": git_rev(), "src_sha256": source_digest(),
        "build_type": info["build_type"], "compiler": info["compiler"],
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "engine_threads": info["engine_threads"],
        "experiments": info["experiments"], "passes": info["passes"],
    }


def print_table(prefix, raw):
    for name, m in raw["metrics"].items():
        print(f"# {prefix}{name:<32} {m['value']:>16.6g} {m['unit']:<12} "
              f"n={m['samples']}")
    for f in raw["failures"]:
        print(f"# FAILED {prefix}{f}")


def one(args):
    binary = build()
    t0 = time.monotonic()
    raw = run_sim(binary, args.workload, args.seed, args.seconds, args.trace)
    check_names(raw, args.trace)
    print("# manifest " + json.dumps(
        manifest(raw, args.workload, args.seed, args.seconds, args.trace)))
    print_table("", raw)
    print(f"# run took {time.monotonic() - t0:.1f} s")
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in raw["metrics"].items()},
    }))


def everything(args):
    """Every workload, untraced then traced: every metric by name and unit."""
    binary = build()
    attempted = failed = 0
    metrics = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            raw = run_sim(binary, w, args.seed, args.seconds, trace)
            check_names(raw, trace)
            if trace == 0:
                print("# manifest " + json.dumps(
                    manifest(raw, w, args.seed, args.seconds, trace)))
            print_table(f"{w}.", raw)
            attempted += raw["attempted"]
            failed += raw["failed"]
            for k, v in raw["metrics"].items():
                metrics[f"{w}.{k}"] = {"value": v["value"], "unit": v["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def selftest(_args):
    binary = build()
    bad = 0

    def expect(ok, what):
        nonlocal bad
        print(("ok   " if ok else "FAIL ") + what)
        bad += 0 if ok else 1

    r = subprocess.run([str(binary), "--selftest"], text=True,
                       capture_output=True, timeout=RUN_TIMEOUT_S)
    sys.stdout.write(r.stdout)
    expect(r.returncode == 0, "perfbench_sim --selftest")

    listed = subprocess.run([str(binary), "--list-metrics"], text=True,
                            capture_output=True, check=True).stdout.split("\n")
    rows = [line.split() for line in listed if line]
    for kind, name, unit in rows:
        expect(NAME_RE.match(name) is not None and UNIT_RE.match(unit) is not None,
               f"{kind} metric {name} has a valid name and unit ({unit})")
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        mine = sorted((n, u) for k, n, u in rows if k == kind)
        expect(mine == sorted(expected_metrics(trace)),
               f"BENCHMARK.json {kind} matches the emitted {kind} metrics")

    for w in WORKLOADS:
        def digest(seed):
            return subprocess.run(
                [str(binary), "--inputs-digest", "--workload", w, "--seed", str(seed)],
                text=True, capture_output=True, check=True).stdout.strip()
        expect(digest(7) == digest(7), f"{w}: --seed 7 reproduces its inputs")
        expect(digest(7) != digest(8), f"{w}: --seed 8 changes the inputs")

    print(f"{bad} failed")
    sys.exit(1 if bad else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not 0 < args.seconds <= 120:
        ap.error("--seconds must be in (0, 120]")
    if args.selftest:
        selftest(args)
    elif args.workload == "all":
        everything(args)
    else:
        one(args)


if __name__ == "__main__":
    main()
