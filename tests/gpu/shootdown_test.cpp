// Shootdown completeness: after every shootdown, whether an eviction's on
// the evicting GPU or a remote unmap's on a fabric peer, no TLB entry and
// no cached line of the departing page is left anywhere on the GPU. The
// per-page SM sharer masks that bound the shootdown never miss an SM that
// holds the page.
#include <gtest/gtest.h>

#include "core/device_stack.hpp"
#include "core/policy_factory.hpp"
#include "fabric/fabric_system.hpp"
#include "gpu/gpu.hpp"
#include "workloads/benchmarks.hpp"

namespace uvmsim {
namespace {

struct Audit {
  u64 shootdowns = 0;
  u64 held = 0;       ///< shootdowns that found something cached
  u64 uncovered = 0;  ///< an SM held the page outside its sharer mask
  u64 leftover = 0;   ///< something survived the shootdown

  void before(const Gpu& g, PageId p, u64 block) {
    if (g.caches_page(p, block)) ++held;
    if (!g.sharers_cover(p, block)) ++uncovered;
  }
  void after(const Gpu& g, PageId p, u64 block) {
    ++shootdowns;
    if (g.caches_page(p, block)) ++leftover;
  }
};

TEST(Shootdown, EvictionLeavesNothingCachedNwCppe) {
  const auto wl = make_benchmark("NW");
  const SystemConfig sys;
  const PolicyConfig pol = presets::cppe();
  EventQueue eq;
  const u64 footprint = wl->footprint_pages();
  DeviceStack stack = make_device_stack(
      eq, sys, pol, footprint,
      oversub_capacity(footprint, 0.5, 16 * kChunkPages));
  UvmDriver& drv = *stack.driver;

  // Handlers run in registration order: one before the Gpu's sees the
  // caches as the shootdown finds them, one after sees what it left.
  Audit audit;
  const Gpu* gpu = nullptr;
  drv.add_shootdown_handler(
      [&](PageId p, FrameId f) { audit.before(*gpu, p, f); });
  Gpu g(eq, sys, drv, *wl, pol.seed);
  gpu = &g;
  drv.add_shootdown_handler(
      [&](PageId p, FrameId f) { audit.after(*gpu, p, f); });

  g.launch();
  eq.run();
  ASSERT_TRUE(g.finished());
  EXPECT_EQ(audit.shootdowns, drv.stats().pages_evicted);
  EXPECT_GT(audit.held, 1000u);
  EXPECT_EQ(audit.uncovered, 0u);
  EXPECT_EQ(audit.leftover, 0u);
}

TEST(Shootdown, RemoteShootdownLeavesNothingCachedRing2) {
  const auto wl = make_benchmark("NW");
  FabricConfig fab;
  fab.gpus = 2;
  fab.topology = FabricKind::kRing;
  FabricSystem sys(SystemConfig{}, presets::cppe(), *wl, 0.5, fab);
  ASSERT_NE(sys.sharded_fabric(), nullptr);

  Audit local;
  Audit remote;
  for (u32 d = 0; d < sys.num_gpus(); ++d) {
    Gpu& g = sys.gpu(d);
    // The same call FabricSystem installs, wrapped in the audit. Remote
    // lines are tagged by page (Gpu::remote_shootdown).
    sys.sharded_fabric()->set_invalidator(d, [&g, &remote](PageId p) {
      remote.before(g, p, p);
      g.remote_shootdown(p);
      remote.after(g, p, p);
    });
    sys.driver(d).add_shootdown_handler(
        [&g, &local](PageId p, FrameId f) { local.after(g, p, f); });
  }

  const RunResult r = sys.run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(local.shootdowns, r.driver.pages_evicted);
  EXPECT_GT(local.shootdowns, 0u);
  EXPECT_GT(remote.held, 100u);
  EXPECT_EQ(remote.uncovered, 0u);
  EXPECT_EQ(remote.leftover, 0u);
  EXPECT_EQ(local.leftover, 0u);
}

}  // namespace
}  // namespace uvmsim
