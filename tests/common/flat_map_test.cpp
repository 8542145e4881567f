#include "common/flat_map.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "tlb/page_table.hpp"

namespace uvmsim {
namespace {

TEST(FlatMap, EmptyMapBasics) {
  FlatMap<u64, int> m;
  EXPECT_EQ(m.size(), 0u);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(42), nullptr);
  EXPECT_FALSE(m.contains(42));
  EXPECT_FALSE(m.erase(42));
}

TEST(FlatMap, InsertFindErase) {
  FlatMap<u64, int> m;
  auto [v, inserted] = m.try_emplace(7, 70);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*v, 70);
  auto [v2, inserted2] = m.try_emplace(7, 99);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(*v2, 70);  // try_emplace does not overwrite
  EXPECT_EQ(m.size(), 1u);
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_EQ(*m.find(7), 70);
  EXPECT_TRUE(m.erase(7));
  EXPECT_EQ(m.find(7), nullptr);
  EXPECT_EQ(m.size(), 0u);
}

TEST(FlatMap, SubscriptDefaultConstructsAndAssigns) {
  FlatMap<u64, u32> m;
  EXPECT_EQ(m[5], 0u);
  ++m[5];
  ++m[5];
  EXPECT_EQ(m[5], 2u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, TakeExtractsValue) {
  FlatMap<u64, std::string> m;
  m[3] = "three";
  std::string out;
  EXPECT_TRUE(m.take(3, out));
  EXPECT_EQ(out, "three");
  EXPECT_FALSE(m.contains(3));
  EXPECT_FALSE(m.take(3, out));
}

TEST(FlatMap, GrowsThroughRehash) {
  FlatMap<u64, u64> m;
  for (u64 k = 0; k < 10'000; ++k) m[k] = k * k;
  EXPECT_EQ(m.size(), 10'000u);
  for (u64 k = 0; k < 10'000; ++k) {
    ASSERT_NE(m.find(k), nullptr) << k;
    EXPECT_EQ(*m.find(k), k * k);
  }
  EXPECT_LE(m.load_factor(), 0.76);
  // power-of-two capacity
  EXPECT_EQ(m.capacity() & (m.capacity() - 1), 0u);
}

TEST(FlatMap, ReservePreventsRehash) {
  FlatMap<u64, u64> m;
  m.reserve(1000);
  const std::size_t cap = m.capacity();
  for (u64 k = 0; k < 1000; ++k) m[k] = k;
  EXPECT_EQ(m.capacity(), cap);
}

// Backward-shift deletion is the subtle part of a tombstone-free open
// addressing scheme: erase in the middle of a collision run must keep every
// displaced key reachable. Adversarial case: keys engineered to collide.
TEST(FlatMap, EraseKeepsCollidingKeysReachable) {
  FlatMap<u64, int> m;
  m.reserve(64);
  // Rather than engineer collisions for one hash function, drive a dense
  // map (high collision probability) and erase from the middle of runs at
  // every step.
  std::vector<u64> keys;
  for (u64 k = 0; k < 48; ++k) {
    m[k * 0x9e3779b97f4a7c15ull] = static_cast<int>(k);
    keys.push_back(k * 0x9e3779b97f4a7c15ull);
  }
  // Erase every third key, then verify all the others.
  for (std::size_t i = 0; i < keys.size(); i += 3) EXPECT_TRUE(m.erase(keys[i]));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i % 3 == 0) {
      EXPECT_EQ(m.find(keys[i]), nullptr);
    } else {
      ASSERT_NE(m.find(keys[i]), nullptr) << i;
      EXPECT_EQ(*m.find(keys[i]), static_cast<int>(i));
    }
  }
}

// Mirror the oversubscription steady state against std::unordered_map as a
// reference model: interleaved insert/erase/lookup churn with reuse, the
// exact pattern the page table and chunk index see under thrashing.
TEST(FlatMap, ChurnMatchesUnorderedMapReference) {
  FlatMap<u64, u64> m;
  std::unordered_map<u64, u64> ref;
  Xoshiro256 rng(12345);
  for (int step = 0; step < 200'000; ++step) {
    const u64 key = rng.below(4096);  // small key space forces reuse
    switch (rng.below(4)) {
      case 0:
      case 1: {  // insert-or-assign
        const u64 val = rng.next();
        m[key] = val;
        ref[key] = val;
        break;
      }
      case 2: {  // erase
        EXPECT_EQ(m.erase(key), ref.erase(key) > 0);
        break;
      }
      case 3: {  // lookup
        const u64* v = m.find(key);
        auto it = ref.find(key);
        ASSERT_EQ(v != nullptr, it != ref.end());
        if (v != nullptr) {
          EXPECT_EQ(*v, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(m.size(), ref.size());
  }
  // Final full audit.
  for (const auto& [k, v] : ref) {
    ASSERT_NE(m.find(k), nullptr);
    EXPECT_EQ(*m.find(k), v);
  }
}

// The empty-slot marker is the key ~K{0}: inserting it must fail loudly in
// every build type (it would silently vanish otherwise), and looking it up
// reports absent whether or not the table holds anything.
TEST(FlatMap, InsertingTheReservedKeyThrows) {
  FlatMap<u64, int> m;
  EXPECT_FALSE(m.contains(kInvalidPage));
  EXPECT_THROW(m.try_emplace(kInvalidPage, 1), std::invalid_argument);
  constexpr u64 kEmpty = FlatMap<u64, int>::kEmptyKey;
  EXPECT_THROW(m[kEmpty], std::invalid_argument);
  EXPECT_EQ(m.size(), 0u);
  for (u64 k = 0; k < 40; ++k) m[k] = 1;
  EXPECT_EQ(m.find(kInvalidPage), nullptr);
  EXPECT_FALSE(m.erase(kInvalidPage));
  EXPECT_EQ(m.size(), 40u);

  FlatMap<u32, int> narrow;  // the reserved key follows the key width
  EXPECT_THROW(narrow.try_emplace(~u32{0}, 1), std::invalid_argument);
  EXPECT_TRUE(narrow.try_emplace(u32{0x7fffffff}, 1).second);

  FlatSet<u64> s;
  EXPECT_THROW(s.insert(kInvalidChunk), std::invalid_argument);
  EXPECT_FALSE(s.contains(kInvalidChunk));
}

/// Churn `m` against std::unordered_map over 2,048 keys drawn through
/// `key_of` — the multiplicative hash must keep every family reachable.
void churn_keys(const std::function<u64(u64)>& key_of, u64 seed) {
  FlatMap<u64, u64> m;
  std::unordered_map<u64, u64> ref;
  Xoshiro256 rng(seed);
  for (int step = 0; step < 200'000; ++step) {
    const u64 key = key_of(rng.below(2048));
    switch (rng.below(4)) {
      case 0:
      case 1: {
        const u64 val = rng.next();
        m[key] = val;
        ref[key] = val;
        break;
      }
      case 2:
        ASSERT_EQ(m.erase(key), ref.erase(key) > 0);
        break;
      case 3: {
        const u64* v = m.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(v != nullptr, it != ref.end());
        if (v != nullptr) {
          ASSERT_EQ(*v, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(m.size(), ref.size());
  }
  for (const auto& [k, v] : ref) {
    ASSERT_NE(m.find(k), nullptr) << k;
    EXPECT_EQ(*m.find(k), v);
  }
}

// Keys that agree in their low bits are the classic failure of a masked
// hash; the high bits of the product must still spread them.
TEST(FlatMap, ChurnWithKeysSharingLowBits) {
  churn_keys([](u64 k) { return k << 32; }, 1);
  churn_keys([](u64 k) { return k * 4; }, 2);
  // Page-walk-cache tags: level in the low two bits, node index above.
  churn_keys(
      [](u64 k) {
        return PageTable::node_tag(k * 512, static_cast<u32>(k % PageTable::kLevels));
      },
      3);
}

TEST(FlatMap, ClearEmptiesButKeepsCapacity) {
  FlatMap<u64, int> m;
  for (u64 k = 0; k < 100; ++k) m[k] = 1;
  const std::size_t cap = m.capacity();
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.capacity(), cap);
  EXPECT_EQ(m.find(50), nullptr);
  m[50] = 2;  // reusable after clear
  EXPECT_EQ(*m.find(50), 2);
}

TEST(FlatMap, MoveConstructAndAssignLeaveSourceEmptyAndUsable) {
  FlatMap<u64, int> a;
  for (u64 k = 0; k < 100; ++k) a[k] = static_cast<int>(k);
  FlatMap<u64, int> b(std::move(a));
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(*b.find(42), 42);
  EXPECT_EQ(a.size(), 0u);       // NOLINT(bugprone-use-after-move): specified
  EXPECT_EQ(a.find(42), nullptr);
  a[1] = 1;  // moved-from map is reusable
  EXPECT_EQ(*a.find(1), 1);

  FlatMap<u64, int> c;
  c[999] = 9;
  c = std::move(b);
  EXPECT_EQ(c.size(), 100u);
  EXPECT_FALSE(c.contains(999));
  EXPECT_EQ(b.size(), 0u);       // NOLINT(bugprone-use-after-move): specified
}

TEST(FlatMap, MoveOnlyValues) {
  FlatMap<u64, std::unique_ptr<int>> m;
  m.try_emplace(1, std::make_unique<int>(11));
  // Force a rehash with move-only values present.
  for (u64 k = 2; k < 200; ++k) m.try_emplace(k, std::make_unique<int>(1));
  ASSERT_NE(m.find(1), nullptr);
  EXPECT_EQ(**m.find(1), 11);
  std::unique_ptr<int> out;
  EXPECT_TRUE(m.take(1, out));
  EXPECT_EQ(*out, 11);
}

// The API deliberately exposes no iteration: every consumer must keep its
// own ordered structure (FIFO, chain) for ordered traversal, so simulation
// behaviour can never depend on hash-table layout. This is an API-level
// audit that the property still holds — if someone adds begin()/end(), this
// test's comment (and docs/performance.md) must be revisited alongside
// every call site.
template <class M>
constexpr bool kHasIteration = requires(M m) {
  m.begin();
  m.end();
};

TEST(FlatMap, HasNoIterationOrderToDependOn) {
  static_assert(kHasIteration<std::unordered_map<u64, int>>);  // probe works
  static_assert(!kHasIteration<FlatMap<u64, int>>,
                "FlatMap grew iterators: audit all call sites for "
                "iteration-order dependence before allowing this");
  static_assert(!kHasIteration<FlatSet<u64>>);
  SUCCEED();
}

TEST(FlatSet, InsertContainsErase) {
  FlatSet<u64> s;
  EXPECT_TRUE(s.insert(5));
  EXPECT_FALSE(s.insert(5));
  EXPECT_TRUE(s.contains(5));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.erase(5));
  EXPECT_FALSE(s.erase(5));
  EXPECT_FALSE(s.contains(5));
}

TEST(FlatSet, ChurnAgainstReference) {
  FlatSet<u64> s;
  std::unordered_map<u64, bool> ref;
  Xoshiro256 rng(777);
  for (int step = 0; step < 50'000; ++step) {
    const u64 key = rng.below(512);
    if (rng.below(2) == 0) {
      EXPECT_EQ(s.insert(key), ref.emplace(key, true).second);
    } else {
      EXPECT_EQ(s.erase(key), ref.erase(key) > 0);
    }
  }
  for (u64 k = 0; k < 512; ++k) EXPECT_EQ(s.contains(k), ref.count(k) > 0);
}

}  // namespace
}  // namespace uvmsim
