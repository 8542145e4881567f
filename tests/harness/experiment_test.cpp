// run_experiment's spec validation: every setting the selected system would
// silently ignore, or cannot honour, is an std::invalid_argument before
// anything runs or any file is opened.
#include "harness/experiment.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "core/policy_factory.hpp"

namespace uvmsim {
namespace {

ExperimentSpec small_spec() {
  ExperimentSpec s;
  s.workload = "HOT";
  s.policy = presets::cppe();
  s.system.num_sms = 4;  // keep the test fast
  return s;
}

ExperimentSpec fleet_spec() {
  ExperimentSpec s = small_spec();
  s.fleet.enabled = true;
  s.fleet.jobs = 4;
  return s;
}

ExperimentSpec tenants_spec() {
  ExperimentSpec s = small_spec();
  s.tenants = {"HOT", "STN"};
  return s;
}

ExperimentSpec fabric_spec() {
  ExperimentSpec s = small_spec();
  s.fabric.gpus = 2;
  return s;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("experiment_test_" + name))
      .string();
}

TEST(Experiment, ModeFollowsFleetTenantsFabricPrecedence) {
  EXPECT_EQ(mode_of(small_spec()), ExperimentMode::kSingle);
  EXPECT_EQ(mode_of(fabric_spec()), ExperimentMode::kFabric);
  EXPECT_EQ(mode_of(tenants_spec()), ExperimentMode::kTenants);
  EXPECT_EQ(mode_of(fleet_spec()), ExperimentMode::kFleet);

  ExperimentSpec both = tenants_spec();
  both.fabric.gpus = 2;
  EXPECT_EQ(mode_of(both), ExperimentMode::kTenants);
  both.fleet.enabled = true;
  EXPECT_EQ(mode_of(both), ExperimentMode::kFleet);
}

TEST(Experiment, RejectsMoreThanOneMode) {
  ExperimentSpec fleet_tenants = fleet_spec();
  fleet_tenants.tenants = {"HOT", "STN"};
  EXPECT_THROW((void)run_experiment(fleet_tenants), std::invalid_argument);

  ExperimentSpec fleet_fabric = fleet_spec();
  fleet_fabric.fabric.gpus = 2;
  EXPECT_THROW((void)run_experiment(fleet_fabric), std::invalid_argument);

  ExperimentSpec tenants_fabric = tenants_spec();
  tenants_fabric.fabric.gpus = 2;
  EXPECT_THROW((void)run_experiment(tenants_fabric), std::invalid_argument);
}

TEST(Experiment, RejectsASingleTenant) {
  ExperimentSpec s = small_spec();
  s.tenants = {"HOT"};
  EXPECT_THROW((void)run_experiment(s), std::invalid_argument);
}

TEST(Experiment, RejectsReplayTraceOutsideSingleGpu) {
  for (ExperimentSpec s : {fabric_spec(), tenants_spec(), fleet_spec()}) {
    s.replay_trace = temp_path("unused.trc");
    EXPECT_THROW((void)run_experiment(s), std::invalid_argument);
  }
}

TEST(Experiment, RejectsIntervalMetricsOutsideSingleGpu) {
  for (ExperimentSpec s : {fabric_spec(), tenants_spec(), fleet_spec()}) {
    s.interval_metrics = temp_path("unused.csv");
    EXPECT_THROW((void)run_experiment(s), std::invalid_argument);
    EXPECT_FALSE(std::filesystem::exists(s.interval_metrics));
  }
}

TEST(Experiment, RejectsShardedTenants) {
  ExperimentSpec s = tenants_spec();
  s.engine.kind = EngineKind::kSharded;
  EXPECT_THROW((void)run_experiment(s), std::invalid_argument);
}

// FabricSystem drops spill under the sharded engine; a spec asking for both
// must fail instead of running without spill.
TEST(Experiment, RejectsShardedSpill) {
  ExperimentSpec s = fabric_spec();
  s.engine.kind = EngineKind::kSharded;
  s.fabric.spill = true;
  EXPECT_THROW((void)run_experiment(s), std::invalid_argument);
}

TEST(Experiment, RejectsArrivalTraceGapOverMaxCycles) {
  ExperimentSpec s = fleet_spec();
  s.max_cycles = 1'000'000;
  s.fleet.arrival_trace = temp_path("arrivals_long_gap.txt");
  {
    std::ofstream f(s.fleet.arrival_trace);
    f << "1000\n1000001\n";
  }
  EXPECT_THROW((void)run_experiment(s), std::invalid_argument);
  s.max_cycles = 1'000'001;  // the same gap fits a looser cap
  EXPECT_NO_THROW(validate(s));
  std::filesystem::remove(s.fleet.arrival_trace);
}

// Uncapped (as the CLI runs), every gap fits, but two jobs 2^63 cycles
// apart would wrap the arrival clock.
TEST(Experiment, RejectsArrivalTraceThatWrapsTheClock) {
  ExperimentSpec s = fleet_spec();
  s.max_cycles = ~Cycle{0};
  s.fleet.jobs = 2;
  s.fleet.arrival_trace = temp_path("arrivals_wrap.txt");
  {
    std::ofstream f(s.fleet.arrival_trace);
    f << "9223372036854775808\n";
  }
  EXPECT_THROW(validate(s), std::invalid_argument);
  s.fleet.jobs = 1;
  EXPECT_NO_THROW(validate(s));
  std::filesystem::remove(s.fleet.arrival_trace);
}

TEST(Experiment, RejectsUnreadableOrHostileArrivalTrace) {
  ExperimentSpec s = fleet_spec();
  s.fleet.arrival_trace = temp_path("no_such_arrivals.txt");
  std::filesystem::remove(s.fleet.arrival_trace);
  EXPECT_THROW(validate(s), std::invalid_argument);
  s.fleet.arrival_trace = temp_path("arrivals_signed.txt");
  {
    std::ofstream f(s.fleet.arrival_trace);
    f << "-5\n";
  }
  EXPECT_THROW((void)run_experiment(s), std::runtime_error);
  std::filesystem::remove(s.fleet.arrival_trace);
}

TEST(Experiment, RejectedSpecOpensNoTraceFile) {
  ExperimentSpec s = fleet_spec();
  s.tenants = {"HOT", "STN"};
  s.trace_out = temp_path("rejected.jsonl");
  std::filesystem::remove(s.trace_out);
  EXPECT_THROW((void)run_experiment(s), std::invalid_argument);
  EXPECT_FALSE(std::filesystem::exists(s.trace_out));
}

TEST(Experiment, SingleGpuWritesIntervalMetrics) {
  ExperimentSpec s = small_spec();
  s.oversub = 0.5;
  s.interval_metrics = temp_path("intervals.csv");
  std::filesystem::remove(s.interval_metrics);
  const LabelledResult r = run_experiment(s);
  EXPECT_TRUE(r.result.completed);
  std::ifstream in(s.interval_metrics);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_FALSE(header.empty());
  std::filesystem::remove(s.interval_metrics);
}

}  // namespace
}  // namespace uvmsim
