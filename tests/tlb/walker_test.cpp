#include "tlb/walker.hpp"

#include <gtest/gtest.h>

namespace uvmsim {
namespace {

struct WalkerFixture : ::testing::Test {
  EventQueue eq;
  PageTable pt{64};
  /// Walks cover more pages than the table maps: the PWC-cold pages
  /// p * 100000 below read as not resident.
  static constexpr u64 kWalkPages = 1'000'000;
  SystemConfig cfg;
};

TEST_F(WalkerFixture, WalkFindsResidentPage) {
  pt.map(5, 0);
  PageWalker w(eq, pt, cfg, 0, kWalkPages);
  bool called = false;
  w.walk(5, [&](PageId p, bool resident) {
    called = true;
    EXPECT_EQ(p, 5u);
    EXPECT_TRUE(resident);
  });
  eq.run();
  EXPECT_TRUE(called);
  EXPECT_EQ(w.walks_performed(), 1u);
}

TEST_F(WalkerFixture, WalkReportsFault) {
  PageWalker w(eq, pt, cfg, 0, kWalkPages);
  bool resident = true;
  w.walk(5, [&](PageId, bool r) { resident = r; });
  eq.run();
  EXPECT_FALSE(resident);
}

TEST_F(WalkerFixture, ColdWalkIsSlowerThanWarmWalk) {
  pt.map(5, 0);
  pt.map(6, 1);
  PageWalker w(eq, pt, cfg, 0, kWalkPages);
  Cycle first = 0, second = 0;
  w.walk(5, [&](PageId, bool) { first = eq.now(); });
  eq.run();
  const Cycle start2 = eq.now();
  w.walk(6, [&](PageId, bool) { second = eq.now(); });
  eq.run();
  // Page 6 shares all upper-level nodes with page 5 -> mostly PWC hits.
  EXPECT_LT(second - start2, first);
  EXPECT_GT(w.pwc_hits(), 0u);
}

TEST_F(WalkerFixture, ConcurrentWalksToSamePageCoalesce) {
  pt.map(7, 0);
  PageWalker w(eq, pt, cfg, 0, kWalkPages);
  int done = 0;
  for (int i = 0; i < 5; ++i)
    w.walk(7, [&](PageId, bool) { ++done; });
  eq.run();
  EXPECT_EQ(done, 5);
  EXPECT_EQ(w.walks_performed(), 1u);
  EXPECT_EQ(w.walks_coalesced(), 4u);
  EXPECT_EQ(w.walks_requested(), 5u);
}

TEST_F(WalkerFixture, ThreadLimitQueuesExcessWalks) {
  cfg.walker_threads = 2;
  PageWalker w(eq, pt, cfg, 0, kWalkPages);
  int done = 0;
  for (PageId p = 0; p < 10; ++p)
    w.walk(p * 100000, [&](PageId, bool) { ++done; });  // distinct, PWC-cold
  EXPECT_EQ(w.active_walks(), 2u);
  EXPECT_GT(w.peak_queue_depth(), 0u);
  eq.run();
  EXPECT_EQ(done, 10);
  EXPECT_EQ(w.walks_performed(), 10u);
  EXPECT_EQ(w.active_walks(), 0u);
}

TEST_F(WalkerFixture, WalkLatencyIsFourLevelBounded) {
  PageWalker w(eq, pt, cfg, 0, kWalkPages);
  Cycle done_at = 0;
  w.walk(0, [&](PageId, bool) { done_at = eq.now(); });
  eq.run();
  // All four levels PWC-cold: latency = 4 * walk_memory_latency.
  EXPECT_EQ(done_at, 4 * cfg.walk_memory_latency);
}

}  // namespace
}  // namespace uvmsim
