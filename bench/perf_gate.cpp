// Wall-clock performance gate for the simulation core (docs/performance.md).
//
// Times the Fig 8 sweep — every Table II workload under the baseline and
// CPPE presets at 75% and 50% oversubscription — and emits BENCH_PR5.json
// with per-scenario wall-clock and event counts. Modes:
//
//   perf_gate                       run all scenarios, print the table, and
//                                   write BENCH_PR5.json next to the cwd
//   perf_gate --out path.json       same, explicit output path
//   perf_gate --smoke               run the CPPE@0.50 scenario only and fail
//                                   (exit 1) if it regressed more than
//                                   --tolerance % or its event count differs
//                                   vs the committed baseline
//   perf_gate --baseline path.json  committed numbers for --smoke
//   perf_gate --tolerance 25        allowed slowdown in percent
//
// The committed BENCH_PR5.json is measured on a Release build; scripts/
// check.sh and CI run `perf_gate --smoke` against it. Event counts are
// deterministic, so a mismatch there means the simulation itself changed:
// the gate fails (exit 1) until the baseline is refreshed on purpose.
//
// A second scenario family times the sharded engine (docs/performance.md):
// the 4-GPU NW@0.50 switch fabric at 1/2/4 worker threads, written to
// BENCH_PR10.json by the full run. The matching gate is `--sharded-smoke`:
// sharded@1 is re-measured and compared against the committed numbers
// (same --tolerance and the same exact event-count check).
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"

using namespace uvmsim;
using namespace uvmsim::bench;

namespace {

struct Scenario {
  std::string name;     // e.g. "CPPE@0.50"
  std::string label;    // preset label
  double oversub;
};

struct Measurement {
  std::string name;
  std::size_t runs = 0;
  double wall_ms = 0.0;
  u64 events = 0;
};

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> s = {
      {"baseline@0.75", "baseline", 0.75},
      {"CPPE@0.75", "CPPE", 0.75},
      {"baseline@0.50", "baseline", 0.5},
      {"CPPE@0.50", "CPPE", 0.5},
  };
  return s;
}

PolicyConfig preset_of(const std::string& label) {
  return label == "CPPE" ? presets::cppe() : presets::baseline();
}

/// Serial (single-threaded) timed run of one scenario across all workloads:
/// wall-clock comparisons need a fixed execution shape, not the sweep
/// runner's thread pool.
Measurement measure(const Scenario& sc) {
  Measurement m;
  m.name = sc.name;
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& w : benchmark_abbrs()) {
    ExperimentSpec spec;
    spec.workload = w;
    spec.label = sc.label;
    spec.policy = preset_of(sc.label);
    spec.oversub = sc.oversub;
    const LabelledResult r = run_experiment(spec);
    m.events += r.result.sim.events_executed;
    ++m.runs;
  }
  const auto t1 = std::chrono::steady_clock::now();
  m.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return m;
}

/// One timed fabric scenario: the 4-GPU NW@0.50 switch preset at `threads`
/// engine workers, `reps` back-to-back runs (a single run is tens of ms;
/// repetition keeps the committed numbers stable against scheduler noise).
Measurement measure_sharded(const std::string& name, u32 threads,
                            std::size_t reps = 3) {
  Measurement m;
  m.name = name;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < reps; ++i) {
    ExperimentSpec spec;
    spec.workload = "NW";
    spec.label = name;
    spec.policy = presets::cppe();
    spec.oversub = 0.5;
    spec.fabric.gpus = 4;
    spec.fabric.topology = FabricKind::kSwitch;
    spec.engine.threads = threads;
    const LabelledResult r = run_experiment(spec);
    m.events += r.result.sim.events_executed;
    ++m.runs;
  }
  const auto t1 = std::chrono::steady_clock::now();
  m.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return m;
}

std::vector<Measurement> measure_sharded_family() {
  return {measure_sharded("fabric4-sharded@1", 1),
          measure_sharded("fabric4-sharded@2", 2),
          measure_sharded("fabric4-sharded@4", 4)};
}

void write_json(std::ostream& os, const std::vector<Measurement>& ms,
                const char* sweep) {
  double total = 0;
  for (const auto& m : ms) total += m.wall_ms;
  os << "{\n"
     << "  \"schema\": \"uvmsim-perf-gate-v1\",\n"
     << "  \"sweep\": \"" << sweep << "\",\n"
     << "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < ms.size(); ++i)
    os << "    {\"name\": \"" << ms[i].name << "\", \"runs\": " << ms[i].runs
       << ", \"wall_ms\": " << fmt(ms[i].wall_ms, 1)
       << ", \"events\": " << ms[i].events << "}"
       << (i + 1 < ms.size() ? "," : "") << "\n";
  os << "  ],\n"
     << "  \"total_wall_ms\": " << fmt(total, 1) << "\n"
     << "}\n";
}

/// Minimal extractor for the file this binary itself writes: finds the
/// scenario object by name and pulls one numeric field out of its line.
bool lookup_baseline(const std::string& path, const std::string& name,
                     double& wall_ms, u64& events) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"name\": \"" + name + "\"") == std::string::npos) continue;
    const auto grab = [&line](const char* key, double& out) {
      const auto pos = line.find(key);
      if (pos == std::string::npos) return false;
      out = std::stod(line.substr(pos + std::strlen(key)));
      return true;
    };
    double ev = 0;
    if (!grab("\"wall_ms\": ", wall_ms) || !grab("\"events\": ", ev)) return false;
    events = static_cast<u64>(ev);
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool sharded_smoke = false;
  std::string out_path = "BENCH_PR5.json";
  std::string baseline_path = "BENCH_PR5.json";
  std::string sharded_out_path = "BENCH_PR10.json";
  std::string sharded_baseline_path = "BENCH_PR10.json";
  double tolerance_pct = 25.0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") smoke = true;
    else if (a == "--sharded-smoke") sharded_smoke = true;
    else if (a == "--out" && i + 1 < argc) out_path = argv[++i];
    else if (a == "--baseline" && i + 1 < argc) baseline_path = argv[++i];
    else if (a == "--sharded-out" && i + 1 < argc) sharded_out_path = argv[++i];
    else if (a == "--sharded-baseline" && i + 1 < argc) sharded_baseline_path = argv[++i];
    else if (a == "--tolerance" && i + 1 < argc) tolerance_pct = std::stod(argv[++i]);
    else if (a == "--help" || a == "-h") {
      std::cout << "perf_gate — wall-clock regression gate\n\noptions:\n"
                   "  --smoke\n      run the CPPE@0.50 scenario only and fail "
                   "if wall time regresses\n      beyond --tolerance or the "
                   "event count differs vs the\n      committed --baseline "
                   "numbers\n"
                   "  --sharded-smoke\n      re-measure the 4-GPU fabric at "
                   "one engine thread; fail on a\n      regression or an "
                   "event-count change vs --sharded-baseline\n"
                   "  --out <f.json>\n      full mode: write fresh baseline "
                   "numbers here (default BENCH_PR5.json)\n"
                   "  --baseline <f.json>\n      committed numbers --smoke "
                   "compares against (default BENCH_PR5.json)\n"
                   "  --sharded-out <f.json>\n      full mode: write fresh "
                   "sharded-engine numbers here (default BENCH_PR10.json)\n"
                   "  --sharded-baseline <f.json>\n      committed numbers "
                   "--sharded-smoke compares against (default "
                   "BENCH_PR10.json)\n"
                   "  --tolerance <pct>\n      allowed wall-clock regression "
                   "in percent (default 25)\n"
                   "  --help\n      show this message\n";
      return 0;
    } else {
      std::cerr << "usage: perf_gate [--smoke] [--sharded-smoke] "
                   "[--out f.json] [--baseline f.json] [--sharded-out f.json] "
                   "[--sharded-baseline f.json] [--tolerance pct] "
                   "(try --help)\n";
      return 2;
    }
  }

#ifndef NDEBUG
  std::cout << "perf_gate: WARNING — assertions enabled; numbers are not "
               "comparable to a Release-built BENCH_PR5.json\n";
#endif

  if (sharded_smoke || smoke) {
    // One cheap scenario per gate: the fabric gate times the one-thread
    // engine (its windows run inline, so the number is engine plus model
    // cost with no scheduling noise); the Fig 8 gate times CPPE@0.50, which
    // exercises the full hot path (faults, evictions, prefetch, pattern
    // buffer) across all 23 workloads.
    const Measurement m = sharded_smoke
                              ? measure_sharded("fabric4-sharded@1", 1)
                              : measure(scenarios().back());
    const std::string& path =
        sharded_smoke ? sharded_baseline_path : baseline_path;
    double base_ms = 0;
    u64 base_events = 0;
    if (!lookup_baseline(path, m.name, base_ms, base_events)) {
      std::cerr << "perf_gate: cannot read scenario '" << m.name << "' from "
                << path << "\n";
      return 2;
    }
    const double limit_ms = base_ms * (1.0 + tolerance_pct / 100.0);
    std::cout << "perf_gate " << (sharded_smoke ? "--sharded-smoke" : "--smoke")
              << ": " << m.name << " " << fmt(m.wall_ms, 1)
              << " ms vs committed " << fmt(base_ms, 1) << " ms (limit "
              << fmt(limit_ms, 1) << " ms, +" << fmt(tolerance_pct, 0)
              << "%)\n";
    int rc = 0;
    if (m.events != base_events) {
      std::cout << "perf_gate: FAIL — events " << m.events << " != committed "
                << base_events << " (simulated behaviour changed; refresh "
                << path << " by running perf_gate without --smoke)\n";
      rc = 1;
    }
    if (m.wall_ms > limit_ms) {
      std::cout << "perf_gate: FAIL — " << m.name
                << " regression beyond tolerance\n";
      rc = 1;
    }
    if (rc == 0) std::cout << "perf_gate: OK\n";
    return rc;
  }

  std::vector<Measurement> ms;
  TextTable t({"scenario", "runs", "wall ms", "events", "Mevents/s"});
  for (const Scenario& sc : scenarios()) {
    ms.push_back(measure(sc));
    const Measurement& m = ms.back();
    t.add_row({m.name, std::to_string(m.runs), fmt(m.wall_ms, 1),
               std::to_string(m.events),
               fmt(static_cast<double>(m.events) / m.wall_ms / 1000.0, 2)});
    std::cout << "measured " << m.name << ": " << fmt(m.wall_ms, 1) << " ms\n";
  }
  std::cout << "\n" << t.str();

  std::ofstream os(out_path);
  if (!os) {
    std::cerr << "perf_gate: cannot open " << out_path << "\n";
    return 2;
  }
  write_json(os, ms, "fig8");
  std::cout << "wrote " << out_path << "\n";

  // Sharded-engine family: the same fabric run at three thread counts, each
  // against sharded@1 (the answer is identical at every count). On a
  // single-core host the 2/4-thread rows time-slice one CPU and so measure
  // barrier overhead, not scaling.
  std::cout << "\n--- sharded engine (4-GPU NW@0.50 switch fabric, "
            << std::thread::hardware_concurrency() << " hw threads) ---\n";
  const std::vector<Measurement> sm = measure_sharded_family();
  TextTable st({"scenario", "runs", "wall ms", "events", "vs sharded@1"});
  for (const Measurement& m : sm)
    st.add_row({m.name, std::to_string(m.runs), fmt(m.wall_ms, 1),
                std::to_string(m.events),
                fmt(sm.front().wall_ms / m.wall_ms, 2) + "x"});
  std::cout << st.str();

  std::ofstream sos(sharded_out_path);
  if (!sos) {
    std::cerr << "perf_gate: cannot open " << sharded_out_path << "\n";
    return 2;
  }
  write_json(sos, sm, "sharded-fabric@4gpu");
  std::cout << "wrote " << sharded_out_path << "\n";
  return 0;
}
