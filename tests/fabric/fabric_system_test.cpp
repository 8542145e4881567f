// FabricSystem end-to-end: single-GPU equivalence with UvmSystem (the
// byte-identity acceptance criterion), 2- and 4-GPU determinism, and
// placement homing.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/policy_factory.hpp"
#include "core/uvm_system.hpp"
#include "fabric/fabric_system.hpp"
#include "obs/trace_sink.hpp"
#include "workloads/benchmarks.hpp"

namespace uvmsim {
namespace {

FabricConfig fabric_of(u32 gpus, FabricKind kind = FabricKind::kRing) {
  FabricConfig f;
  f.gpus = gpus;
  f.topology = kind;
  return f;
}

struct FabricRun {
  std::string jsonl;
  RunResult result;
};

FabricRun fabric_run(const std::string& abbr, double oversub,
                     const FabricConfig& fab) {
  const auto wl = make_benchmark(abbr);
  FabricSystem sys(SystemConfig{}, presets::cppe(), *wl, oversub, fab);
  std::ostringstream os;
  JsonlSink jsonl(os);
  sys.add_sink(&jsonl);
  FabricRun out;
  out.result = sys.run();
  out.jsonl = os.str();
  return out;
}

// Acceptance criterion: a 1-GPU FabricSystem builds no fabric and is
// cycle-for-cycle AND trace-byte-for-byte identical to UvmSystem.
TEST(FabricSystem, OneGpuMatchesUvmSystemExactly) {
  const auto wl = make_benchmark("NW");
  UvmSystem solo(SystemConfig{}, presets::cppe(), *wl, 0.5);
  std::ostringstream solo_os;
  JsonlSink solo_sink(solo_os);
  solo.recorder().add_sink(&solo_sink);
  const RunResult a = solo.run();

  const FabricRun b = fabric_run("NW", 0.5, fabric_of(1));

  EXPECT_EQ(a.cycles, b.result.cycles);
  EXPECT_EQ(a.capacity_pages, b.result.capacity_pages);
  EXPECT_EQ(a.driver.page_faults, b.result.driver.page_faults);
  EXPECT_EQ(a.driver.pages_migrated_in, b.result.driver.pages_migrated_in);
  EXPECT_EQ(a.driver.pages_evicted, b.result.driver.pages_evicted);
  EXPECT_EQ(a.h2d_pages, b.result.h2d_pages);
  EXPECT_EQ(a.d2h_pages, b.result.d2h_pages);
  EXPECT_EQ(solo_os.str(), b.jsonl);
  // No fabric state leaks into the single-GPU result.
  EXPECT_TRUE(b.result.devices.empty());
  EXPECT_TRUE(b.result.links.empty());
  EXPECT_EQ(b.result.driver.remote_accesses, 0u);
  EXPECT_EQ(b.result.driver.peer_fetches, 0u);
  // And no device stamps in the trace (additive-schema discipline).
  EXPECT_EQ(b.jsonl.find("\"dev\":"), std::string::npos);
}

// Acceptance criterion: determinism at 2 AND 4 GPUs — identical reruns give
// byte-identical device-stamped traces and identical counters.
TEST(FabricSystem, TwoGpuRunsAreDeterministic) {
  const FabricRun a = fabric_run("NW", 0.5, fabric_of(2));
  const FabricRun b = fabric_run("NW", 0.5, fabric_of(2));
  EXPECT_EQ(a.jsonl, b.jsonl);
  EXPECT_EQ(a.result.cycles, b.result.cycles);
  EXPECT_EQ(a.result.driver.page_faults, b.result.driver.page_faults);
  EXPECT_EQ(a.result.driver.faults_forwarded, b.result.driver.faults_forwarded);
  EXPECT_EQ(a.result.h2d_pages, b.result.h2d_pages);
  EXPECT_TRUE(a.result.completed);
  EXPECT_NE(a.jsonl.find("\"dev\":"), std::string::npos);
  ASSERT_EQ(a.result.devices.size(), 2u);
  // The fabric routes: faults cross to their home device, and the replies'
  // link occupancy reaches the per-link result.
  EXPECT_GT(a.result.driver.faults_forwarded, 0u);
  ASSERT_FALSE(a.result.links.empty());
  u64 moved = 0;
  for (const LinkRunResult& l : a.result.links) moved += l.units_moved;
  EXPECT_GT(moved, 0u);
}

TEST(FabricSystem, FourGpuRunsAreDeterministic) {
  const FabricRun a = fabric_run("NW", 0.5, fabric_of(4, FabricKind::kSwitch));
  const FabricRun b = fabric_run("NW", 0.5, fabric_of(4, FabricKind::kSwitch));
  EXPECT_EQ(a.jsonl, b.jsonl);
  EXPECT_EQ(a.result.cycles, b.result.cycles);
  EXPECT_EQ(a.result.driver.faults_forwarded, b.result.driver.faults_forwarded);
  EXPECT_TRUE(a.result.completed);
  ASSERT_EQ(a.result.devices.size(), 4u);
}

// The pcie preset has no peer links: forwarded faults still complete (their
// replies bounce through the host links), and no page is ever remote-mapped
// or spilled — the fabric model has neither.
TEST(FabricSystem, PcieFabricNeverRemoteMapsOrSpills) {
  const FabricRun r = fabric_run("NW", 0.5, fabric_of(2, FabricKind::kPcie));
  EXPECT_TRUE(r.result.completed);
  EXPECT_GT(r.result.driver.faults_forwarded, 0u);
  EXPECT_EQ(r.result.driver.remote_accesses, 0u);
  EXPECT_EQ(r.result.driver.pages_spilled, 0u);
}

// Placement homing: round-robin and affinity fix every chunk's home at
// construction.
TEST(FabricSystem, PlacementPolicyAssignsHomes) {
  const auto wl = make_benchmark("NW");

  FabricConfig rr = fabric_of(2);
  rr.placement = PlacementKind::kRoundRobin;
  FabricSystem rr_sys(SystemConfig{}, presets::cppe(), *wl, 0.5, rr);
  ASSERT_NE(rr_sys.sharded_fabric(), nullptr);
  EXPECT_EQ(rr_sys.sharded_fabric()->home_of(0), 0u);
  EXPECT_EQ(rr_sys.sharded_fabric()->home_of(1), 1u);
  EXPECT_EQ(rr_sys.sharded_fabric()->home_of(2), 0u);

  FabricConfig aff = fabric_of(2);
  aff.placement = PlacementKind::kAffinity;
  FabricSystem aff_sys(SystemConfig{}, presets::cppe(), *wl, 0.5, aff);
  const u64 chunks = (wl->footprint_pages() + kChunkPages - 1) / kChunkPages;
  EXPECT_EQ(aff_sys.sharded_fabric()->home_of(0), 0u);
  EXPECT_EQ(aff_sys.sharded_fabric()->home_of(static_cast<ChunkId>(chunks - 1)),
            1u);

  // Affinity is the default placement.
  FabricSystem def_sys(SystemConfig{}, presets::cppe(), *wl, 0.5, fabric_of(2));
  EXPECT_EQ(def_sys.sharded_fabric()->home_of(static_cast<ChunkId>(chunks - 1)),
            1u);
}

}  // namespace
}  // namespace uvmsim
