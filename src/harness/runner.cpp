#include "harness/runner.hpp"

#include <atomic>
#include <exception>
#include <thread>

namespace uvmsim {

unsigned engine_threads_of(const ExperimentSpec& spec) noexcept {
  if (spec.engine.kind != EngineKind::kSharded) return 1;
  u32 shards = 1;
  switch (mode_of(spec)) {
    case ExperimentMode::kFleet: shards = spec.fleet.devices + 1; break;  // + control
    case ExperimentMode::kFabric: shards = spec.fabric.gpus; break;
    default: break;
  }
  if (shards <= 1) return 1;  // engine falls back to sequential
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned req = spec.engine.threads == 0 ? hw : spec.engine.threads;
  return std::max(1u, std::min<unsigned>(req, shards));
}

std::vector<LabelledResult> run_sweep(const std::vector<ExperimentSpec>& specs,
                                      unsigned threads) {
  unsigned engine_demand = 1;
  for (const ExperimentSpec& s : specs)
    engine_demand = std::max(engine_demand, engine_threads_of(s));
  threads = sweep_worker_cap(
      threads, std::thread::hardware_concurrency(), engine_demand);
  threads = std::min<unsigned>(threads, specs.empty() ? 1 : static_cast<unsigned>(specs.size()));

  std::vector<LabelledResult> results(specs.size());
  // run_experiment can throw (unopenable trace_out, bad workload): an
  // exception escaping a worker thread would std::terminate the process, so
  // each experiment's exception is captured and the first (in spec order) is
  // rethrown on the calling thread after all workers have joined.
  std::vector<std::exception_ptr> errors(specs.size());
  std::atomic<std::size_t> next{0};

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= specs.size()) return;
      try {
        results[i] = run_experiment(specs[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
  return results;
}

}  // namespace uvmsim
