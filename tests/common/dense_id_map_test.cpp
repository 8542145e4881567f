#include "common/dense_id_map.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace uvmsim {
namespace {

TEST(DenseIdMap, EmptyMapBasics) {
  DenseIdMap<int> m(0, 16);
  EXPECT_EQ(m.size(), 0u);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.id_count(), 16u);
  EXPECT_EQ(m.find(3), nullptr);
  EXPECT_FALSE(m.contains(3));
  EXPECT_FALSE(m.erase(3));
}

TEST(DenseIdMap, TryEmplaceLeavesAnExistingValueAlone) {
  DenseIdMap<int> m(0, 16);
  auto [v, inserted] = m.try_emplace(7, 70);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*v, 70);
  auto [v2, inserted2] = m.try_emplace(7, 99);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(*v2, 70);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.at(7), 70);
}

TEST(DenseIdMap, SubscriptDefaultConstructs) {
  DenseIdMap<u32> m(0, 8);
  EXPECT_EQ(m[5], 0u);
  ++m[5];
  ++m[5];
  EXPECT_EQ(m[5], 2u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(DenseIdMap, TakeLeavesOutUntouchedWhenAbsent) {
  DenseIdMap<std::string> m(0, 8);
  m[3] = "three";
  std::string out = "untouched";
  EXPECT_FALSE(m.take(4, out));
  EXPECT_EQ(out, "untouched");
  EXPECT_TRUE(m.take(3, out));
  EXPECT_EQ(out, "three");
  EXPECT_FALSE(m.contains(3));
  out = "again";
  EXPECT_FALSE(m.take(3, out));
  EXPECT_EQ(out, "again");
}

// Ids outside [first, first + count) read as absent — including ids below
// `first`, whose offset wraps — and inserting one throws instead of
// growing the index.
TEST(DenseIdMap, OutOfRangeIdsReportAbsentWithoutGrowing) {
  DenseIdMap<int> m(100, 10);
  m[100] = 1;
  m[109] = 2;
  int out = -1;
  for (const u64 id : {u64{0}, u64{99}, u64{110}, u64{1} << 40, ~u64{0}}) {
    EXPECT_EQ(m.find(id), nullptr) << id;
    EXPECT_FALSE(m.contains(id)) << id;
    EXPECT_FALSE(m.take(id, out)) << id;
    EXPECT_FALSE(m.erase(id)) << id;
    EXPECT_THROW(m.try_emplace(id, 5), std::out_of_range) << id;
  }
  EXPECT_EQ(out, -1);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.id_count(), 10u);
  EXPECT_EQ(m.at(100), 1);
  EXPECT_EQ(m.at(109), 2);
}

TEST(DenseIdMap, SlotsAreReusedAfterErase) {
  DenseIdMap<std::vector<int>> m(0, 64);
  m[1].push_back(10);
  m[2].push_back(20);
  const std::vector<int>* first = m.find(1);
  EXPECT_TRUE(m.erase(1));
  // The freed slab slot is handed to the next insert, empty.
  auto [v, inserted] = m.try_emplace(40);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(v, first);
  EXPECT_TRUE(v->empty());
  // Reuse again after take.
  std::vector<int> out;
  EXPECT_TRUE(m.take(2, out));
  EXPECT_EQ(out, std::vector<int>{20});
  EXPECT_TRUE(m.try_emplace(41).second);
  EXPECT_TRUE(m.find(41)->empty());
  EXPECT_EQ(m.size(), 2u);
}

TEST(DenseIdMap, MoveOnlyValues) {
  DenseIdMap<std::unique_ptr<int>> m(0, 256);
  m.try_emplace(1, std::make_unique<int>(11));
  // Grow the slab with move-only values present.
  for (u64 k = 2; k < 200; ++k) m.try_emplace(k, std::make_unique<int>(1));
  ASSERT_NE(m.find(1), nullptr);
  EXPECT_EQ(**m.find(1), 11);
  std::unique_ptr<int> out;
  EXPECT_TRUE(m.take(1, out));
  EXPECT_EQ(*out, 11);
}

// The fault tables' steady state against std::unordered_map: interleaved
// insert, erase, take and lookup with heavy id reuse.
TEST(DenseIdMap, ChurnMatchesUnorderedMapReference) {
  constexpr u64 kFirst = 1000;
  constexpr u64 kIds = 4096;
  DenseIdMap<u64> m(kFirst, kIds);
  std::unordered_map<u64, u64> ref;
  Xoshiro256 rng(4242);
  for (int step = 0; step < 200'000; ++step) {
    const u64 id = kFirst + rng.below(kIds);
    switch (rng.below(5)) {
      case 0:
      case 1: {  // insert-or-assign
        const u64 val = rng.next();
        m[id] = val;
        ref[id] = val;
        break;
      }
      case 2:  // erase
        EXPECT_EQ(m.erase(id), ref.erase(id) > 0);
        break;
      case 3: {  // take
        u64 out = 0;
        const auto it = ref.find(id);
        ASSERT_EQ(m.take(id, out), it != ref.end());
        if (it != ref.end()) {
          EXPECT_EQ(out, it->second);
          ref.erase(it);
        }
        break;
      }
      case 4: {  // lookup
        const u64* v = m.find(id);
        const auto it = ref.find(id);
        ASSERT_EQ(v != nullptr, it != ref.end());
        if (v != nullptr) {
          EXPECT_EQ(*v, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(m.size(), ref.size());
  }
  for (u64 id = kFirst; id < kFirst + kIds; ++id) {
    const auto it = ref.find(id);
    ASSERT_EQ(m.contains(id), it != ref.end()) << id;
    if (it != ref.end()) {
      EXPECT_EQ(m.at(id), it->second);
    }
  }
}

// Like FlatMap, DenseIdMap exposes no iteration: consumers keep their own
// ordered structures, so behaviour cannot depend on slab layout.
template <class M>
constexpr bool kHasIteration = requires(M m) {
  m.begin();
  m.end();
};

TEST(DenseIdMap, HasNoIterationOrderToDependOn) {
  static_assert(kHasIteration<std::unordered_map<u64, int>>);  // probe works
  static_assert(!kHasIteration<DenseIdMap<int>>,
                "DenseIdMap grew iterators: audit all call sites for "
                "iteration-order dependence before allowing this");
  SUCCEED();
}

}  // namespace
}  // namespace uvmsim
