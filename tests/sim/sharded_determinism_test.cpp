// Engine determinism acceptance (docs/performance.md): a multi-device run's
// stdout-visible results AND its merged JSONL trace are byte-identical
// across reruns and across worker-thread counts (1, 2, 4,
// hardware_concurrency), for both a 4-GPU ring fabric run and a 4-device
// fleet-serving run, the default EngineConfig included; and a run the
// engine cannot shard (1 GPU) keeps one shard at any thread count.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "core/policy_factory.hpp"
#include "fabric/fabric_system.hpp"
#include "fleet/fleet_system.hpp"
#include "obs/trace_sink.hpp"
#include "workloads/benchmarks.hpp"

namespace uvmsim {
namespace {

EngineConfig with_threads(u32 threads) {
  EngineConfig e;
  e.threads = threads;
  return e;
}

/// Everything a run prints: the fields the CLI text/JSON writers surface,
/// minus the thread-count-dependent engine counters (barrier_waits depends
/// on whether workers exist; windows/messages/skew must NOT).
std::string fabric_fingerprint(const RunResult& r) {
  std::ostringstream os;
  os << r.cycles << '|' << r.completed << '|' << r.driver.page_faults << '|'
     << r.driver.pages_migrated_in << '|' << r.driver.pages_evicted << '|'
     << r.driver.faults_forwarded << '|' << r.gpu.accesses << '|'
     << r.gpu.far_faults << '|' << r.h2d_pages << '|' << r.d2h_pages << '|'
     << r.sim.events_executed << '|' << r.engine_stats.windows << '|'
     << r.engine_stats.messages << '|' << r.engine_stats.max_skew;
  for (const DeviceRunResult& d : r.devices)
    os << "|d" << d.id << ':' << d.finish_cycle << ':'
       << d.driver.page_faults << ':' << d.h2d_pages;
  for (const LinkRunResult& l : r.links) os << '|' << l.name << ':'
                                            << l.units_moved;
  return os.str();
}

struct TracedFabricRun {
  std::string fingerprint;
  std::string jsonl;
};

TracedFabricRun run_fabric(const EngineConfig& engine) {
  const auto wl = make_benchmark("NW");
  FabricConfig fab;
  fab.gpus = 4;
  fab.topology = FabricKind::kRing;
  FabricSystem sys(SystemConfig{}, presets::cppe(), *wl, 0.5, fab, engine);
  std::ostringstream os;
  JsonlSink jsonl(os);
  sys.add_sink(&jsonl);
  const RunResult r = sys.run();
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.engine_stats.sharded);
  EXPECT_EQ(r.engine_stats.shards, 4u);
  EXPECT_GT(r.engine_stats.messages, 0u);
  return {fabric_fingerprint(r), os.str()};
}

std::string fleet_fingerprint(const RunResult& r) {
  std::ostringstream os;
  os << r.cycles << '|' << r.completed << '|' << r.fleet.jobs_submitted << '|'
     << r.fleet.jobs_completed << '|' << r.fleet.jobs_rejected << '|'
     << r.fleet.mean_slowdown << '|' << r.fleet.slowdown_p99 << '|'
     << r.fleet.goodput << '|' << r.fleet.mean_queue_wait << '|'
     << r.driver.page_faults << '|' << r.sim.events_executed << '|'
     << r.engine_stats.windows << '|' << r.engine_stats.messages;
  for (const DeviceRunResult& d : r.devices)
    os << "|d" << d.id << ':' << d.driver.page_faults << ':' << d.h2d_pages;
  return os.str();
}

TracedFabricRun run_fleet(const EngineConfig& engine) {
  SystemConfig sys;
  sys.num_sms = 8;
  sys.warps_per_sm = 4;
  FleetConfig fl;
  fl.enabled = true;
  fl.devices = 4;
  fl.jobs = 200;
  fl.arrival_rate = 60.0;
  fl.job_sms = 4;
  fl.oversub = 0.5;
  FleetSystem system(sys, PolicyConfig{}, fl, engine);
  std::ostringstream os;
  JsonlSink jsonl(os);
  system.add_sink(&jsonl);
  const RunResult r = system.run();
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.engine_stats.sharded);
  EXPECT_EQ(r.engine_stats.shards, 5u);  // control + 4 devices
  EXPECT_GT(r.engine_stats.messages, 0u);
  return {fleet_fingerprint(r), os.str()};
}

TEST(ShardedDeterminism, FabricIdenticalAcrossRerunsAndThreadCounts) {
  const TracedFabricRun base = run_fabric(with_threads(1));
  EXPECT_FALSE(base.jsonl.empty());
  const TracedFabricRun rerun = run_fabric(with_threads(1));
  EXPECT_EQ(base.fingerprint, rerun.fingerprint);
  EXPECT_EQ(base.jsonl, rerun.jsonl);

  const u32 hc = std::max(2u, std::thread::hardware_concurrency());
  for (const u32 threads : {2u, hc}) {
    const TracedFabricRun t = run_fabric(with_threads(threads));
    EXPECT_EQ(base.fingerprint, t.fingerprint) << threads << " threads";
    EXPECT_EQ(base.jsonl, t.jsonl) << threads << " threads";
  }
}

TEST(ShardedDeterminism, FleetIdenticalAcrossRerunsAndThreadCounts) {
  const TracedFabricRun base = run_fleet(with_threads(1));
  EXPECT_FALSE(base.jsonl.empty());
  const TracedFabricRun rerun = run_fleet(with_threads(1));
  EXPECT_EQ(base.fingerprint, rerun.fingerprint);
  EXPECT_EQ(base.jsonl, rerun.jsonl);

  const u32 hc = std::max(2u, std::thread::hardware_concurrency());
  for (const u32 threads : {2u, hc}) {
    const TracedFabricRun t = run_fleet(with_threads(threads));
    EXPECT_EQ(base.fingerprint, t.fingerprint) << threads << " threads";
    EXPECT_EQ(base.jsonl, t.jsonl) << threads << " threads";
  }
}

// The default EngineConfig is one thread; the same fabric and fleet runs at
// four threads must match it exactly, trace included.
TEST(ShardedDeterminism, DefaultEngineMatchesFourThreads) {
  const TracedFabricRun fab = run_fabric(EngineConfig{});
  const TracedFabricRun fab4 = run_fabric(with_threads(4));
  EXPECT_EQ(fab.fingerprint, fab4.fingerprint);
  EXPECT_EQ(fab.jsonl, fab4.jsonl);

  const TracedFabricRun fleet = run_fleet(EngineConfig{});
  const TracedFabricRun fleet4 = run_fleet(with_threads(4));
  EXPECT_EQ(fleet.fingerprint, fleet4.fingerprint);
  EXPECT_EQ(fleet.jsonl, fleet4.jsonl);
}

// A 1-GPU fabric cannot shard: the engine keeps one shard whatever the
// thread count, and the run is byte-identical to the default (same queue,
// same events).
TEST(ShardedDeterminism, SingleGpuShardedFallsBackToSequential) {
  const auto wl = make_benchmark("NW");
  FabricConfig fab;
  fab.gpus = 1;

  std::ostringstream seq_os, sh_os;
  FabricSystem seq(SystemConfig{}, presets::cppe(), *wl, 0.5, fab);
  JsonlSink seq_sink(seq_os);
  seq.add_sink(&seq_sink);
  const RunResult a = seq.run();

  FabricSystem sh(SystemConfig{}, presets::cppe(), *wl, 0.5, fab,
                  with_threads(4));
  JsonlSink sh_sink(sh_os);
  sh.add_sink(&sh_sink);
  const RunResult b = sh.run();

  EXPECT_FALSE(b.engine_stats.sharded);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.driver.page_faults, b.driver.page_faults);
  EXPECT_EQ(a.sim.events_executed, b.sim.events_executed);
  EXPECT_EQ(seq_os.str(), sh_os.str());
}

// The sharded fleet must preserve serving-level sanity: every job reaches a
// terminal state and devices end empty (arena fully recycled).
TEST(ShardedDeterminism, ShardedFleetJobsAllTerminal) {
  SystemConfig sys;
  sys.num_sms = 8;
  sys.warps_per_sm = 4;
  FleetConfig fl;
  fl.enabled = true;
  fl.devices = 2;
  fl.jobs = 40;
  fl.arrival_rate = 30.0;
  fl.job_sms = 4;
  fl.oversub = 0.5;
  FleetSystem system(sys, PolicyConfig{}, fl, with_threads(2));
  const RunResult r = system.run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.fleet.jobs_submitted, 40u);
  EXPECT_EQ(r.fleet.jobs_completed + r.fleet.jobs_rejected, 40u);
  for (const Job& j : system.jobs())
    EXPECT_TRUE(j.state == JobState::kCompleted ||
                j.state == JobState::kRejected);
}

}  // namespace
}  // namespace uvmsim
