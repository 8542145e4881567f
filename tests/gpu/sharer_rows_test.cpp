// Sharer-mask geometry: Gpu's SM sharer masks pack one row of
// bit_ceil(num_sms) bits per page or frame, so a row is a fraction of a
// word (a 4-SM fleet job), exactly one word (64 SMs) or several words
// (more than 64 SMs). For each shape, every SM that caches a page before
// a shootdown must be in its masks, and nothing of the page may survive.
#include <gtest/gtest.h>

#include "core/device_stack.hpp"
#include "core/policy_factory.hpp"
#include "gpu/gpu.hpp"
#include "workloads/benchmarks.hpp"

namespace uvmsim {
namespace {

class SharerRows : public ::testing::TestWithParam<u32> {};

TEST_P(SharerRows, ShootdownsFindEverySharerAndLeaveNothing) {
  const auto wl = make_benchmark("NW");
  SystemConfig sys;
  sys.num_sms = GetParam();
  sys.warps_per_sm = 4;
  const PolicyConfig pol = presets::cppe();
  EventQueue eq;
  const u64 footprint = wl->footprint_pages();
  DeviceStack stack = make_device_stack(
      eq, sys, pol, footprint,
      oversub_capacity(footprint, 0.5, 16 * kChunkPages));
  UvmDriver& drv = *stack.driver;

  const Gpu* gpu = nullptr;
  u64 shootdowns = 0, held = 0, uncovered = 0, leftover = 0;
  drv.add_shootdown_handler([&](PageId p, FrameId f) {
    if (gpu->caches_page(p, f)) ++held;
    if (!gpu->sharers_cover(p, f)) ++uncovered;
  });
  Gpu g(eq, sys, drv, *wl, pol.seed);
  gpu = &g;
  drv.add_shootdown_handler([&](PageId p, FrameId f) {
    ++shootdowns;
    if (gpu->caches_page(p, f)) ++leftover;
  });

  g.launch();
  eq.run();
  ASSERT_TRUE(g.finished());
  EXPECT_EQ(shootdowns, drv.stats().pages_evicted);
  EXPECT_GT(held, 0u);
  EXPECT_EQ(uncovered, 0u);
  EXPECT_EQ(leftover, 0u);
}

INSTANTIATE_TEST_SUITE_P(NumSms, SharerRows,
                         ::testing::Values(1u, 4u, 28u, 64u, 100u));

}  // namespace
}  // namespace uvmsim
