// Parallel sweep runner. Experiments are independent, deterministic
// simulations, so the runner distributes them over a fixed pool of worker
// threads with an atomic work index; results land in spec order regardless
// of scheduling, keeping sweep output bit-reproducible.
//
// Sweeps of multi-threaded engine experiments fork threads at two levels
// (sweep workers x engine workers); run_sweep caps its own pool so the
// product stays near the hardware concurrency instead of threads-squared.
#pragma once

#include <algorithm>
#include <vector>

#include "harness/experiment.hpp"

namespace uvmsim {

/// Sweep worker-thread budget when each experiment may itself run up to
/// `max_engine_threads` engine workers: the resolved count (0 = hardware),
/// divided down so sweep x engine concurrency stays ~`hardware`. Pure —
/// unit-tested directly (tests/harness/runner_test.cpp).
[[nodiscard]] constexpr unsigned sweep_worker_cap(
    unsigned requested, unsigned hardware,
    unsigned max_engine_threads) noexcept {
  const unsigned hw = std::max(1u, hardware);
  unsigned workers = requested == 0 ? hw : requested;
  if (max_engine_threads > 1)
    workers = std::min(workers, std::max(1u, hw / max_engine_threads));
  return std::max(1u, workers);
}

/// The engine worker-thread demand of one spec: the resolved --engine-threads
/// count (0 = hardware), capped at the run's shard count — so 1 for every
/// single-queue run (single GPU, tenants).
[[nodiscard]] unsigned engine_threads_of(const ExperimentSpec& spec) noexcept;

/// Run every experiment; `threads == 0` uses the hardware concurrency
/// (reduced by sweep_worker_cap when specs run sharded engines).
[[nodiscard]] std::vector<LabelledResult> run_sweep(
    const std::vector<ExperimentSpec>& specs, unsigned threads = 0);

}  // namespace uvmsim
