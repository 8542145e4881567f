#include "harness/runner.hpp"

#include <gtest/gtest.h>

#include "core/policy_factory.hpp"

namespace uvmsim {
namespace {

std::vector<ExperimentSpec> small_sweep() {
  std::vector<ExperimentSpec> specs;
  for (const char* w : {"STN", "HOT"})
    for (double ov : {1.0, 0.5}) {
      ExperimentSpec s;
      s.workload = w;
      s.label = std::string(w) + "@" + std::to_string(ov);
      s.policy = presets::baseline();
      s.oversub = ov;
      s.system.num_sms = 4;  // keep the test fast
      specs.push_back(std::move(s));
    }
  return specs;
}

TEST(Runner, ResultsArriveInSpecOrder) {
  const auto specs = small_sweep();
  const auto results = run_sweep(specs, 4);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(results[i].spec.label, specs[i].label);
    EXPECT_EQ(results[i].result.workload, specs[i].workload);
    EXPECT_TRUE(results[i].result.completed);
  }
}

TEST(Runner, SingleThreadMatchesMultiThread) {
  const auto specs = small_sweep();
  const auto serial = run_sweep(specs, 1);
  const auto parallel = run_sweep(specs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].result.cycles, parallel[i].result.cycles) << i;
    EXPECT_EQ(serial[i].result.driver.page_faults,
              parallel[i].result.driver.page_faults)
        << i;
  }
}

// An exception escaping a worker thread would std::terminate the whole
// process; run_sweep must capture per-experiment exceptions and rethrow the
// first (in spec order) on the calling thread after the workers join.
TEST(Runner, WorkerExceptionPropagatesInsteadOfTerminating) {
  auto specs = small_sweep();
  specs[1].trace_out = "/nonexistent-dir-uvmsim/trace.jsonl";  // unopenable
  EXPECT_THROW(run_sweep(specs, 4), std::runtime_error);
  EXPECT_THROW(run_sweep(specs, 1), std::runtime_error);
}

TEST(Runner, EmptySweepIsFine) {
  EXPECT_TRUE(run_sweep({}).empty());
}

// Sweeps of multi-threaded engine experiments must not fork threads-squared:
// the sweep pool divides down by the engines' worker demand.
TEST(Runner, SweepWorkerCapPreventsThreadOversubscription) {
  // One-thread engines: no division, 0 resolves to hardware.
  EXPECT_EQ(sweep_worker_cap(0, 8, 1), 8u);
  EXPECT_EQ(sweep_worker_cap(6, 8, 1), 6u);
  // Multi-threaded engines: sweep x engine stays ~hardware.
  EXPECT_EQ(sweep_worker_cap(0, 16, 4), 4u);
  EXPECT_EQ(sweep_worker_cap(8, 16, 4), 4u);
  EXPECT_EQ(sweep_worker_cap(2, 16, 4), 2u);  // explicit request below cap
  // Engine demand >= hardware: still one sweep worker, never zero.
  EXPECT_EQ(sweep_worker_cap(0, 4, 8), 1u);
  EXPECT_EQ(sweep_worker_cap(0, 0, 1), 1u);
}

TEST(Runner, EngineThreadsOfResolvesShardsAndFallbacks) {
  ExperimentSpec single;
  single.workload = "STN";
  EXPECT_EQ(engine_threads_of(single), 1u);

  ExperimentSpec fab = single;
  fab.fabric.gpus = 4;
  EXPECT_EQ(engine_threads_of(fab), 1u);  // the default is one thread
  fab.engine.threads = 8;
  EXPECT_EQ(engine_threads_of(fab), 4u);  // capped at shard count

  ExperimentSpec fallback = fab;
  fallback.fabric.gpus = 1;  // single GPU: one shard, run inline
  EXPECT_EQ(engine_threads_of(fallback), 1u);

  ExperimentSpec fleet = single;
  fleet.engine.threads = 16;
  fleet.fleet.enabled = true;
  fleet.fleet.devices = 4;
  EXPECT_EQ(engine_threads_of(fleet), 5u);  // control shard + 4 devices
}

TEST(Runner, MoreThreadsThanWork) {
  std::vector<ExperimentSpec> specs;
  ExperimentSpec s;
  s.workload = "STN";
  s.policy = presets::baseline();
  s.oversub = 1.0;
  s.system.num_sms = 2;
  specs.push_back(std::move(s));
  const auto results = run_sweep(specs, 64);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].result.completed);
}

}  // namespace
}  // namespace uvmsim
