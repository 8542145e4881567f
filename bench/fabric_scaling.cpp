// Multi-GPU fabric scaling: one oversubscribed workload sharded over
// 1/2/4/8 GPUs (docs/fabric.md), across the three link topologies and both
// placement maps, plus the engine's wall-clock at 1/2/4 worker threads.
//
// Not a paper figure — the paper models a single GPU. This bench extends
// its oversubscription model to an NVLink fabric: per-device CPPE stacks,
// each chunk pinned to a home device, with faults from other devices
// forwarded to the home over a link graph.
//
// Reported per configuration:
//   * finish cycles (max over devices) — the scaling headline,
//   * host PCIe traffic (h2d/d2h pages summed over devices),
//   * forwarded faults — how much of the work crosses the fabric,
//   * per-link utilisation on the busiest link — where the fabric saturates.
//
// `--smoke` is a determinism gate: the 2-GPU ring and 4-GPU switch runs
// must give identical results at 1 and 4 engine threads. It also prints
// the 4-GPU switch wall-clock at 4 threads against 1 thread, without gating
// on it (docs/performance.md).
#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench_common.hpp"
#include "harness/results_io.hpp"

using namespace uvmsim;
using namespace uvmsim::bench;

namespace {

ExperimentSpec fabric_spec(const std::string& workload, double oversub,
                           u32 gpus, FabricKind topo,
                           PlacementKind placement = PlacementKind::kAffinity,
                           u32 threads = 1) {
  ExperimentSpec s;
  s.workload = workload;
  s.label = to_string(topo);
  s.policy = presets::cppe();
  s.oversub = oversub;
  s.fabric.gpus = gpus;
  s.fabric.topology = topo;
  s.fabric.placement = placement;
  s.engine.threads = threads;
  return s;
}

void print_rows(const std::vector<LabelledResult>& cells) {
  TextTable t({"gpus", "fabric", "placement", "cycles", "h2d", "d2h",
               "forwarded", "busiest link"});
  for (const LabelledResult& c : cells) {
    const RunResult& r = c.result;
    std::string busiest = "-";
    double peak = -1.0;
    for (const LinkRunResult& l : r.links)
      if (l.utilisation > peak) {
        peak = l.utilisation;
        busiest = l.name + " " + fmt(l.utilisation * 100, 1) + "%";
      }
    const FabricConfig& f = c.spec.fabric;
    t.add_row({std::to_string(f.gpus), to_string(f.topology),
               to_string(f.placement), std::to_string(r.cycles),
               std::to_string(r.h2d_pages), std::to_string(r.d2h_pages),
               std::to_string(r.driver.faults_forwarded), busiest});
  }
  std::cout << t.str() << "\n";
}

/// The whole result as the JSON writer prints it, minus the two fields that
/// describe the engine rather than the run: the worker count and its
/// barrier crossings.
std::string result_json(LabelledResult r) {
  r.spec.label.clear();
  r.result.engine_stats.threads = 0;
  r.result.engine_stats.barrier_waits = 0;
  std::ostringstream os;
  write_json(os, {r});
  return os.str();
}

/// Wall-clock of `reps` back-to-back 4-GPU switch runs of NW@0.50 at
/// `threads` engine workers. Repetition damps scheduler noise; the results
/// are deterministic, so only the timing varies between reps.
double time_engine_ms(u32 threads, std::size_t reps = 3) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < reps; ++i)
    (void)run_experiment(fabric_spec("NW", 0.5, 4, FabricKind::kSwitch,
                                     PlacementKind::kAffinity, threads));
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = parse_smoke(
      argc, argv, "fabric_scaling — multi-GPU topology/placement sweep",
      "2-GPU ring and 4-GPU switch only; gate: identical results at 1 and 4 "
      "engine threads");

  print_header("Multi-GPU fabric scaling: topology and placement",
               "NVLink extension (docs/fabric.md) — not a paper figure");

  // NW at 50% fits thrashes a single GPU (Fig 4's knee), so the fabric has
  // host traffic to share out.
  const std::string wl = "NW";
  const double oversub = 0.5;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  if (smoke) {
    int rc = 0;
    for (const auto& [gpus, topo] :
         {std::pair{2u, FabricKind::kRing}, {4u, FabricKind::kSwitch}}) {
      const LabelledResult t1 = run_experiment(
          fabric_spec(wl, oversub, gpus, topo, PlacementKind::kAffinity, 1));
      const LabelledResult t4 = run_experiment(
          fabric_spec(wl, oversub, gpus, topo, PlacementKind::kAffinity, 4));
      print_rows({t1});
      const bool same = result_json(t1) == result_json(t4);
      std::cout << (same ? "SMOKE OK: " : "SMOKE FAIL: ") << gpus << "-GPU "
                << to_string(topo) << " results "
                << (same ? "identical" : "differ") << " at 1 and 4 threads\n";
      if (!t1.result.completed || !same) rc = 1;
    }
    const double t1_ms = time_engine_ms(1);
    const double t4_ms = time_engine_ms(4);
    std::cout << "engine timing (4-GPU switch, NW@0.50, not gated): sharded@1 "
              << fmt(t1_ms, 1) << " ms, sharded@4 " << fmt(t4_ms, 1)
              << " ms -> " << fmt(t1_ms / t4_ms, 2) << "x";
    if (hw < 4)
      std::cout << " (" << hw << " hw thread" << (hw == 1 ? "" : "s")
                << "; workers time-slice)";
    std::cout << "\n";
    return rc;
  }

  std::cout << "--- GPU-count scaling (ring) ---\n";
  std::vector<ExperimentSpec> scaling;
  for (u32 gpus : {1u, 2u, 4u, 8u})
    scaling.push_back(fabric_spec(wl, oversub, gpus, FabricKind::kRing));
  print_rows(run_sweep(scaling, 1));

  std::cout << "--- topology and placement (4 GPUs) ---\n";
  std::vector<ExperimentSpec> topo;
  for (FabricKind k : {FabricKind::kPcie, FabricKind::kRing, FabricKind::kSwitch})
    for (PlacementKind p :
         {PlacementKind::kAffinity, PlacementKind::kRoundRobin})
      topo.push_back(fabric_spec(wl, oversub, 4, k, p));
  print_rows(run_sweep(topo, 1));

  std::cout << "--- engine wall-clock (4 GPUs, switch) ---\n";
  {
    TextTable t({"threads", "wall ms", "vs sharded@1"});
    const double base_ms = time_engine_ms(1);
    t.add_row({"1", fmt(base_ms, 1), "1.00x"});
    for (u32 th : {2u, 4u}) {
      const double ms = time_engine_ms(th);
      t.add_row({std::to_string(th), fmt(ms, 1), fmt(base_ms / ms, 2) + "x"});
    }
    std::cout << t.str();
    if (hw < 4)
      std::cout << "(" << hw << " hw thread" << (hw == 1 ? "" : "s")
                << ": the threaded rows time-slice, so they show barrier "
                   "cost, not parallel gain)\n";
    std::cout << "\n";
  }

  std::cout
      << "Reading the table: every chunk lives on its home device, so a\n"
         "fault from any other device is forwarded there and answered with\n"
         "one remote access. Affinity keeps neighbouring chunks on one home;\n"
         "round-robin spreads them. The pcie preset routes peer traffic\n"
         "through the host links; switch links every pair directly.\n";
  return 0;
}
