#include "mem/set_assoc_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace uvmsim {
namespace {

TEST(SetAssocCache, MissThenHit) {
  TranslationCache c(16, 4);
  EXPECT_FALSE(c.lookup(42));
  c.insert(42);
  EXPECT_TRUE(c.lookup(42));
}

TEST(SetAssocCache, LruEvictionWithinSet) {
  TranslationCache c(4, 4);  // one set, 4 ways
  for (u64 t = 0; t < 4; ++t) c.insert(t);
  c.lookup(0);              // refresh 0; LRU is now 1
  EXPECT_EQ(c.insert(100), 1u);
  EXPECT_TRUE(c.contains(0));
  EXPECT_FALSE(c.contains(1));
}

TEST(SetAssocCache, InsertExistingRefreshes) {
  TranslationCache c(2, 2);
  c.insert(0);
  c.insert(2);                      // same set (2 % 1... both map to set 0)
  EXPECT_EQ(c.insert(0), TranslationCache::kNoEviction);  // refresh, no eviction
  EXPECT_EQ(c.insert(4), 2u);       // 2 is now LRU
}

TEST(SetAssocCache, SetsIsolateTags) {
  TranslationCache c(8, 2);  // 4 sets
  c.insert(0);
  c.insert(1);
  EXPECT_TRUE(c.contains(0));
  EXPECT_TRUE(c.contains(1));
  // Filling set 0 does not disturb set 1.
  c.insert(4);
  c.insert(8);
  EXPECT_TRUE(c.contains(1));
}

TEST(SetAssocCache, Invalidate) {
  TranslationCache c(4, 2);
  c.insert(9);
  EXPECT_TRUE(c.invalidate(9));
  EXPECT_FALSE(c.contains(9));
  EXPECT_FALSE(c.invalidate(9));
}

TEST(SetAssocCache, InvalidateAll) {
  TranslationCache c(8, 2);
  for (u64 t = 0; t < 8; ++t) c.insert(t);
  EXPECT_GT(c.occupancy(), 0u);
  c.invalidate_all();
  EXPECT_EQ(c.occupancy(), 0u);
}

TEST(SetAssocCache, FullyAssociativeMode) {
  TranslationCache c(8, 0);  // ways=0 -> fully associative
  EXPECT_EQ(c.sets(), 1u);
  EXPECT_EQ(c.ways(), 8u);
  for (u64 t = 0; t < 8; ++t) c.insert(t * 1000);
  for (u64 t = 0; t < 8; ++t) EXPECT_TRUE(c.contains(t * 1000));
  c.insert(9999);
  EXPECT_EQ(c.occupancy(), 8u);
}

TEST(SetAssocCache, ContainsDoesNotRefresh) {
  TranslationCache c(2, 2);
  c.insert(0);
  c.insert(1);
  (void)c.contains(0);     // probe must not refresh 0
  EXPECT_EQ(c.insert(5), 0u);  // 0 is still LRU
}

TEST(SetAssocCache, InvalidateBlockClearsOnlyThatBlock) {
  DataCache c(64, 4, 8);  // 16 sets, blocks of 8 tags
  for (u64 t = 8; t < 24; ++t) c.access(t);  // blocks 1 and 2
  EXPECT_TRUE(c.holds_block(1));
  EXPECT_TRUE(c.holds_block(2));
  EXPECT_FALSE(c.holds_block(0));
  EXPECT_EQ(c.invalidate_block(1), 8u);
  EXPECT_FALSE(c.holds_block(1));
  for (u64 t = 8; t < 16; ++t) EXPECT_FALSE(c.contains(t));
  for (u64 t = 16; t < 24; ++t) EXPECT_TRUE(c.contains(t));
  EXPECT_EQ(c.occupancy(), 8u);
  EXPECT_EQ(c.invalidate_block(1), 0u);
}

TEST(SetAssocCache, RejectsBlockSizesTheMaskCannotHold) {
  EXPECT_THROW(DataCache(64, 4, 0), std::invalid_argument);
  EXPECT_THROW(DataCache(64, 4, 3), std::invalid_argument);
  EXPECT_THROW(DataCache(64, 4, 128), std::invalid_argument);
  EXPECT_NO_THROW(DataCache(64, 4, 64));
}

TEST(SetAssocCache, AccessReportsBlockTransitions) {
  DataCache c(2, 2, 4);  // one set, 2 ways, blocks of 4 tags
  DataCache::Access a = c.access(0);
  EXPECT_FALSE(a.hit);
  EXPECT_TRUE(a.opened);     // first line of block 0
  a = c.access(1);
  EXPECT_FALSE(a.opened);    // block 0 already held
  EXPECT_TRUE(c.access(1).hit);
  a = c.access(4);           // displaces tag 0, block 0 keeps tag 1
  EXPECT_EQ(a.evicted, 0u);
  EXPECT_TRUE(a.opened);
  EXPECT_FALSE(a.closed);
  a = c.access(8);           // displaces tag 1, block 0's last line
  EXPECT_EQ(a.evicted, 1u);
  EXPECT_TRUE(a.closed);
  EXPECT_FALSE(c.holds_block(0));
}

TEST(SetAssocCache, RefillBehindFreeWayCachesTagOnce) {
  // One set of 2 ways: A lands behind the way B frees, then is filled
  // again. It must stay one line, so the set still has a free way.
  constexpr u64 kA = 2, kB = 1;
  TranslationCache c(2, 0);
  c.insert(kB);
  c.insert(kA);
  EXPECT_TRUE(c.invalidate(kB));
  EXPECT_EQ(c.insert(kA), TranslationCache::kNoEviction);
  EXPECT_EQ(c.occupancy(), 1u);
  EXPECT_EQ(c.insert(3), TranslationCache::kNoEviction);  // the free way
  EXPECT_EQ(c.occupancy(), 2u);
  // Evicting A leaves no copy behind: both ways serve new tags.
  EXPECT_EQ(c.insert(4), kA);
  EXPECT_FALSE(c.contains(kA));
  EXPECT_FALSE(c.lookup(kA));
  EXPECT_EQ(c.insert(5), 3u);
  EXPECT_TRUE(c.contains(4));
  EXPECT_TRUE(c.contains(5));
  EXPECT_EQ(c.occupancy(), 2u);
}

TEST(SetAssocCache, RefillBehindFreeWayKeepsFullCapacity) {
  // The L1 TLB shape: free way 0, re-fill the tag cached in the last way,
  // then every one of the 128 ways must still hold a distinct tag.
  TranslationCache c(128, 0);
  for (u64 t = 0; t < 128; ++t) c.insert(t);
  EXPECT_TRUE(c.invalidate(0));
  EXPECT_EQ(c.insert(127), TranslationCache::kNoEviction);
  EXPECT_EQ(c.insert(1000), TranslationCache::kNoEviction);
  u32 cached = 0;
  for (u64 t = 0; t < 2000; ++t) cached += c.contains(t) ? 1 : 0;
  EXPECT_EQ(cached, 128u);
  EXPECT_EQ(c.occupancy(), 128u);
  EXPECT_EQ(c.insert(2000), 1u);  // the least recently used tag
}

/// The obviously-correct model: each set is a list of (tag, stamp) pairs,
/// every operation scans it, and the victim is the minimum stamp.
class NaiveCache {
 public:
  static constexpr u64 kNoEviction = ~u64{0};

  NaiveCache(u32 entries, u32 ways, u32 block_lines = 1)
      : ways_(ways == 0 ? entries : ways),
        block_lines_(block_lines),
        sets_(entries / ways_) {}

  bool lookup(u64 tag) {
    Entry* e = find(tag);
    if (e != nullptr) e->stamp = ++tick_;
    return e != nullptr;
  }
  [[nodiscard]] bool contains(u64 tag) {
    return find(tag) != nullptr;
  }
  u64 insert(u64 tag) {
    if (Entry* e = find(tag)) {
      e->stamp = ++tick_;
      return kNoEviction;
    }
    auto& set = sets_[tag % sets_.size()];
    u64 evicted = kNoEviction;
    if (set.size() == ways_) {
      auto lru = std::min_element(set.begin(), set.end(),
                                  [](const Entry& a, const Entry& b) {
                                    return a.stamp < b.stamp;
                                  });
      evicted = lru->tag;
      set.erase(lru);
    }
    set.push_back({tag, ++tick_});
    return evicted;
  }
  bool invalidate(u64 tag) {
    auto& set = sets_[tag % sets_.size()];
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (it->tag == tag) {
        set.erase(it);
        return true;
      }
    }
    return false;
  }
  u32 invalidate_block(u64 block) {
    u32 n = 0;
    for (u64 t = block * block_lines_; t < (block + 1) * block_lines_; ++t)
      n += invalidate(t) ? 1 : 0;
    return n;
  }
  [[nodiscard]] u32 block_occupancy(u64 block) {
    u32 n = 0;
    for (u64 t = block * block_lines_; t < (block + 1) * block_lines_; ++t)
      n += contains(t) ? 1 : 0;
    return n;
  }
  [[nodiscard]] bool holds_block(u64 block) { return block_occupancy(block) > 0; }
  void invalidate_all() {
    for (auto& set : sets_) set.clear();
  }
  [[nodiscard]] u32 occupancy() const {
    std::size_t n = 0;
    for (const auto& set : sets_) n += set.size();
    return static_cast<u32>(n);
  }

 private:
  struct Entry {
    u64 tag;
    u64 stamp;
  };
  Entry* find(u64 tag) {
    for (Entry& e : sets_[tag % sets_.size()])
      if (e.tag == tag) return &e;
    return nullptr;
  }

  u32 ways_;
  u32 block_lines_;
  std::vector<std::vector<Entry>> sets_;
  u64 tick_ = 0;
};

struct Geometry {
  u32 entries;
  u32 ways;
};

std::string geometry_name(const ::testing::TestParamInfo<Geometry>& p) {
  std::string name = "E";
  name += std::to_string(p.param.entries);
  name += 'W';
  name += std::to_string(p.param.ways);
  return name;
}

class SetAssocCacheDifferential : public ::testing::TestWithParam<Geometry> {};

// A seeded random mix of every operation, step for step against the naive
// model: same hits, same evicted tags, same occupancy. Tags are drawn from
// about twice the cache's capacity in 32-tag blocks (one page of 128 B
// lines), so sets overflow, blocks straddle sets, and inserts of cached
// tags occur. Covers the data caches (DataCache); TranslationCache has its
// own differential test below.
TEST_P(SetAssocCacheDifferential, MatchesNaiveLruModel) {
  constexpr u32 kBlockLines = 32;
  const Geometry g = GetParam();
  DataCache fast(g.entries, g.ways, kBlockLines);
  NaiveCache ref(g.entries, g.ways, kBlockLines);
  const u64 blocks = std::max<u64>(2, 2 * g.entries / kBlockLines);
  Xoshiro256 rng(0x5EED + g.entries + g.ways);
  const u32 steps = std::max<u32>(60'000, 8 * g.entries);
  u64 hits = 0, evictions = 0;
  for (u32 step = 0; step < steps; ++step) {
    const u64 block = rng.below(blocks);
    const u64 tag = block * kBlockLines + rng.below(kBlockLines);
    const u64 op = rng.below(1000);
    SCOPED_TRACE(::testing::Message() << "step " << step << " op " << op
                                      << " tag " << tag);
    if (op < 400) {
      const u64 evicted = ref.insert(tag);
      ASSERT_EQ(fast.access(tag).evicted, evicted);
      evictions += evicted != NaiveCache::kNoEviction ? 1 : 0;
    } else if (op < 550) {
      const bool hit = ref.lookup(tag);
      const u64 evicted = hit ? NaiveCache::kNoEviction : ref.insert(tag);
      const DataCache::Access a = fast.access(tag);
      ASSERT_EQ(a.hit, hit);
      ASSERT_EQ(a.evicted, evicted);
      ASSERT_EQ(a.opened, !hit && ref.block_occupancy(block) == 1);
      ASSERT_EQ(a.closed, evicted != NaiveCache::kNoEviction &&
                              !ref.holds_block(evicted / kBlockLines));
      hits += hit ? 1 : 0;
      evictions += evicted != NaiveCache::kNoEviction ? 1 : 0;
    } else if (op < 800) {
      const bool hit = ref.lookup(tag);
      ASSERT_EQ(fast.lookup(tag), hit);
      hits += hit ? 1 : 0;
    } else if (op < 880) {
      ASSERT_EQ(fast.contains(tag), ref.contains(tag));
    } else if (op < 930) {
      ASSERT_EQ(fast.invalidate(tag), ref.invalidate(tag));
    } else if (op < 940) {
      ASSERT_EQ(fast.invalidate_block(block), ref.invalidate_block(block));
    } else if (op < 999) {
      ASSERT_EQ(fast.holds_block(block), ref.holds_block(block));
    } else if (rng.below(50) == 0) {
      fast.invalidate_all();
      ref.invalidate_all();
    }
    ASSERT_EQ(fast.occupancy(), ref.occupancy());
  }
  EXPECT_GT(hits, steps / 20);  // the mix exercises hits and evictions
  EXPECT_GT(evictions, steps / 50);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SetAssocCacheDifferential,
    ::testing::Values(Geometry{128, 0},     // L1 TLB shape: fully associative
                      Geometry{384, 6},     // L1D: 48 KB, 6-way
                      Geometry{24576, 16},  // L2: 3 MB, 16-way
                      Geometry{512, 16}),   // micro-benchmark shape
    geometry_name);

class TranslationCacheDifferential : public ::testing::TestWithParam<Geometry> {};

// The same kind of seeded mix for the TLBs and the page walk cache, step for
// step against the naive model: same hits, same evicted tags, same
// occupancy. Tags are drawn from about twice the capacity, and invalidates
// free ways in the middle of a set's LRU order, so fills of cached tags land
// behind free ways (where a tag must still be cached once).
TEST_P(TranslationCacheDifferential, MatchesNaiveLruModel) {
  const Geometry g = GetParam();
  TranslationCache fast(g.entries, g.ways);
  NaiveCache ref(g.entries, g.ways);
  const u64 tags = 2 * u64{g.entries};
  Xoshiro256 rng(0x71B + g.entries + g.ways);
  const u32 steps = std::max<u32>(60'000, 8 * g.entries);
  u64 hits = 0, evictions = 0, refills = 0;
  for (u32 step = 0; step < steps; ++step) {
    const u64 tag = rng.below(tags);
    const u64 op = rng.below(1000);
    SCOPED_TRACE(::testing::Message() << "step " << step << " op " << op
                                      << " tag " << tag);
    if (op < 400) {
      refills += ref.contains(tag) ? 1 : 0;
      const u64 evicted = ref.insert(tag);
      ASSERT_EQ(fast.insert(tag), evicted);
      evictions += evicted != NaiveCache::kNoEviction ? 1 : 0;
    } else if (op < 700) {
      const bool hit = ref.lookup(tag);
      ASSERT_EQ(fast.lookup(tag), hit);
      hits += hit ? 1 : 0;
    } else if (op < 800) {
      ASSERT_EQ(fast.contains(tag), ref.contains(tag));
    } else if (op < 999) {
      ASSERT_EQ(fast.invalidate(tag), ref.invalidate(tag));
    } else if (rng.below(10) == 0) {  // empties the rings ~6 times a run
      fast.invalidate_all();
      ref.invalidate_all();
    }
    ASSERT_EQ(fast.occupancy(), ref.occupancy());
  }
  EXPECT_GT(hits, steps / 20);  // the mix exercises hits, evictions
  EXPECT_GT(evictions, steps / 50);  // and re-fills of cached tags
  EXPECT_GT(refills, steps / 50);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TranslationCacheDifferential,
    ::testing::Values(Geometry{128, 0},    // L1 TLB: fully associative
                      Geometry{512, 16},   // L2 TLB
                      Geometry{1024, 16},  // page walk cache
                      Geometry{16, 0},     // L1 TLB 2 MB sub-array
                      Geometry{64, 0}),    // L2 TLB 2 MB sub-array
    geometry_name);

}  // namespace
}  // namespace uvmsim
