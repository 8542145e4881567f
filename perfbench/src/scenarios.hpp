// The benchmark's three workloads and one timed pass over each.
//
//   fig8    — 23 Table II workloads x {baseline, CPPE} x oversub {0.75, 0.5}:
//             92 single-GPU UvmSystem runs on the sequential kernel.
//   fabric4 — one workload per access-pattern type (2DC KMN NW SRD HWL HYB)
//             on a 4-GPU switch fabric at oversub 0.5, sharded engine.
//   fleet8  — 8 devices, 1000 Poisson jobs at 40 jobs/Mcycle, headroom
//             admission, least-loaded placement, capacity 0.5 of the arena.
//
// A pass builds and runs every experiment of its workload once, timing set-up
// (workload + system construction) and the whole experiment (construction,
// run and teardown), and checks each result against invariants that hold
// for any correct model.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/uvm_system.hpp"
#include "probes.hpp"

namespace perfbench {

enum class Scenario : std::uint8_t { kFig8, kFabric4, kFleet8 };

[[nodiscard]] std::optional<Scenario> parse_scenario(const std::string& s);
[[nodiscard]] const char* scenario_name(Scenario s);
/// True when the workload runs on the sharded engine (fabric4, fleet8).
[[nodiscard]] bool uses_engine(Scenario s);

struct PassOptions {
  u64 seed = 0x5EED;
  /// Sharded-engine worker threads (fabric4, fleet8); ignored by fig8.
  uvmsim::u32 threads = 1;
  /// Wrap the policies and workloads in timing decorators.
  bool traced = false;
  /// Flight-recorder sink to attach, or null for none.
  uvmsim::TraceSink* sink = nullptr;
  /// Shrink every workload to a quick smoke size (self-tests only).
  bool small = false;
};

struct ExperimentOutcome {
  std::string name;
  double setup_s = 0.0;  ///< building the workload and the system
  double wall_s = 0.0;   ///< construction + run + teardown
  double workload_build_s = 0.0;  ///< make_benchmark, part of setup_s
  uvmsim::u64 digest = 0;
  uvmsim::RunResult result;
  std::vector<std::string> failures;  ///< invariant violations, empty = ok
};

/// Build and run every experiment of `s` once, in a fixed order.
[[nodiscard]] std::vector<ExperimentOutcome> run_pass(Scenario s,
                                                      const PassOptions& opt);

/// fig8 through the harness's own parallel sweep (run_sweep over
/// run_experiment) at `threads` workers. Returns digests and checks only:
/// the sweep times the whole pass, not each experiment.
[[nodiscard]] std::vector<ExperimentOutcome> run_fig8_sweep(u64 seed,
                                                            unsigned threads,
                                                            bool small = false);

/// Simulated digest of one result: cycles, driver, GPU and link counters,
/// per-device and fleet slices, and events executed. Host-side and
/// introspection fields (wall time, trace counts, MHPE/pattern-buffer
/// readouts, engine barrier counts) are excluded, so the digest must not
/// change with tracing, decorators or the engine's thread count.
[[nodiscard]] uvmsim::u64 digest_of(const uvmsim::RunResult& r);

/// Invariants every correct model satisfies (see README.md).
[[nodiscard]] std::vector<std::string> check_result(Scenario s,
                                                    const uvmsim::RunResult& r);

/// Digest of the inputs the seed generates: the first accesses of every
/// warp stream of every workload the scenario runs, and (fleet8) the
/// arrival sequence.
[[nodiscard]] u64 inputs_digest(Scenario s, u64 seed);

/// The workloads a scenario drives, by abbreviation (fleet8: its job mix).
[[nodiscard]] std::vector<std::unique_ptr<uvmsim::Workload>> scenario_workloads(
    Scenario s);

}  // namespace perfbench
