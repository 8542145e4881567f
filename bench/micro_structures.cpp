// google-benchmark micro-benchmarks of the simulator's hot structures:
// chunk-chain operations, MHPE victim search, TLB lookups, pattern-buffer
// planning, and the event queue. These bound the simulator's own throughput
// (and, for the policy structures, the cost a real driver would pay).
//
// The BM_Ref* benchmarks are local reference implementations of what the
// hot structures looked like before their fast-path rewrites (std::function +
// std::priority_queue event loop, std::list + std::unordered_map chunk
// chain, std::unordered_map page index, scan-for-LRU TLB fill, the
// two-array splitmix64 FlatMap and the hashed page table) so the
// per-structure win stays measurable after the old code is gone — see
// docs/performance.md.
#include <benchmark/benchmark.h>

#include <functional>
#include <list>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "mem/set_assoc_cache.hpp"
#include "policy/chunk_chain.hpp"
#include "policy/lru.hpp"
#include "policy/mhpe.hpp"
#include "prefetch/pattern_aware.hpp"
#include "sim/event_queue.hpp"
#include "tlb/page_table.hpp"
#include "tlb/tlb.hpp"

namespace uvmsim {
namespace {

void BM_ChunkChainInsertErase(benchmark::State& state) {
  ChunkChain chain;
  ChunkId next = 0;
  for (; next < 1024; ++next) chain.insert(next);
  for (auto _ : state) {
    chain.erase(next - 1024);
    chain.insert(next);
    ++next;
  }
}
BENCHMARK(BM_ChunkChainInsertErase);

void BM_ChunkChainMoveToTail(benchmark::State& state) {
  ChunkChain chain;
  for (ChunkId c = 0; c < 1024; ++c) chain.insert(c);
  Xoshiro256 rng(1);
  for (auto _ : state) chain.move_to_tail(rng.below(1024));
}
BENCHMARK(BM_ChunkChainMoveToTail);

void BM_MhpeSelectVictim(benchmark::State& state) {
  ChunkChain chain(64);
  PolicyConfig cfg;
  for (ChunkId c = 0; c < static_cast<ChunkId>(state.range(0)); ++c) {
    ChunkEntry& e = chain.insert(c);
    e.resident = TouchBits::all();
    e.touched = TouchBits::all();
  }
  chain.note_pages_migrated(128);  // everything old
  MhpePolicy pol(chain, cfg);
  for (auto _ : state) benchmark::DoNotOptimize(pol.select_victim());
}
BENCHMARK(BM_MhpeSelectVictim)->Arg(256)->Arg(1024)->Arg(4096);

void BM_LruSelectVictim(benchmark::State& state) {
  ChunkChain chain;
  for (ChunkId c = 0; c < 1024; ++c) chain.insert(c);
  LruPolicy pol(chain);
  for (auto _ : state) benchmark::DoNotOptimize(pol.select_victim());
}
BENCHMARK(BM_LruSelectVictim);

void BM_TlbLookupHit(benchmark::State& state) {
  Tlb tlb("t", 128, 0, 1);
  for (PageId p = 0; p < 128; ++p) tlb.fill(p);
  Xoshiro256 rng(1);
  Cycle now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.lookup(now, rng.below(128)));
    now += 2;
  }
}
BENCHMARK(BM_TlbLookupHit);

/// Steady state of a 128-entry fully-associative L1 TLB: every fill
/// displaces the least recently used translation.
void BM_TlbFill(benchmark::State& state) {
  Tlb tlb("t", 128, 0, 1);
  PageId next = 0;
  for (; next < 128; ++next) tlb.fill(next);
  for (auto _ : state) benchmark::DoNotOptimize(tlb.fill(next++));
}
BENCHMARK(BM_TlbFill);

void BM_SetAssocCacheInsert(benchmark::State& state) {
  TranslationCache cache(512, 16);
  u64 tag = 0;
  for (auto _ : state) benchmark::DoNotOptimize(cache.insert(tag++));
}
BENCHMARK(BM_SetAssocCacheInsert);

void BM_PatternBufferPlan(benchmark::State& state) {
  PolicyConfig cfg;
  PatternAwarePrefetcher pf(cfg);
  TouchBits stride2;
  for (u32 i = 0; i < kChunkPages; i += 2) stride2.set(i);
  for (ChunkId c = 0; c < 512; ++c) pf.on_chunk_evicted(c, stride2);

  struct View final : ResidencyView {
    [[nodiscard]] bool is_resident(PageId) const override { return false; }
    [[nodiscard]] PageId footprint_pages() const override { return 512 * kChunkPages; }
  } view;
  Xoshiro256 rng(1);
  for (auto _ : state) {
    const PageId p = rng.below(512) * kChunkPages;  // always pattern-matching
    benchmark::DoNotOptimize(pf.plan(p, view));
  }
}
BENCHMARK(BM_PatternBufferPlan);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    EventQueue eq;
    int sink = 0;
    for (int i = 0; i < 1000; ++i)
      eq.schedule_at(static_cast<Cycle>(i * 7 % 997), [&sink] { ++sink; });
    eq.run();
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_EventQueueScheduleRun);

// ---- pre-rewrite reference implementations ---------------------------------

/// The old event loop: type-erased std::function callbacks (one heap
/// allocation per capture beyond the small-buffer size) in a
/// std::priority_queue, with the const_cast-to-move pop.
struct RefEventQueue {
  struct Event {
    Cycle when;
    u64 seq;
    std::function<void()> fn;
    bool operator>(const Event& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> pq;
  u64 seq = 0;

  void schedule_at(Cycle when, std::function<void()> fn) {
    pq.push(Event{when, seq++, std::move(fn)});
  }
  void run() {
    while (!pq.empty()) {
      auto fn = std::move(const_cast<Event&>(pq.top()).fn);
      pq.pop();
      fn();
    }
  }
};

void BM_RefEventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    RefEventQueue eq;
    int sink = 0;
    for (int i = 0; i < 1000; ++i)
      eq.schedule_at(static_cast<Cycle>(i * 7 % 997), [&sink] { ++sink; });
    eq.run();
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_RefEventQueueScheduleRun);

/// The old chunk chain: node-per-entry std::list plus a std::unordered_map
/// from chunk id to list iterator.
struct RefChunkChain {
  std::list<ChunkEntry> list;
  std::unordered_map<ChunkId, std::list<ChunkEntry>::iterator> index;

  ChunkEntry& insert(ChunkId id) {
    list.emplace_back();
    list.back().id = id;
    auto it = std::prev(list.end());
    index.emplace(id, it);
    return *it;
  }
  void erase(ChunkId id) {
    auto it = index.find(id);
    list.erase(it->second);
    index.erase(it);
  }
  void move_to_tail(ChunkId id) {
    auto it = index.find(id);
    list.splice(list.end(), list, it->second);
  }
};

void BM_RefChunkChainInsertErase(benchmark::State& state) {
  RefChunkChain chain;
  ChunkId next = 0;
  for (; next < 1024; ++next) chain.insert(next);
  for (auto _ : state) {
    chain.erase(next - 1024);
    chain.insert(next);
    ++next;
  }
}
BENCHMARK(BM_RefChunkChainInsertErase);

void BM_RefChunkChainMoveToTail(benchmark::State& state) {
  RefChunkChain chain;
  for (ChunkId c = 0; c < 1024; ++c) chain.insert(c);
  Xoshiro256 rng(1);
  for (auto _ : state) chain.move_to_tail(rng.below(1024));
}
BENCHMARK(BM_RefChunkChainMoveToTail);

/// The old per-tag TLB array: stamped lines beside a FlatMap tag index, and
/// a fill that scans the tag's set for the first free way, else the
/// smallest stamp (fully associative here: one set).
class RefScanTlb {
 public:
  explicit RefScanTlb(u32 entries) : lines_(entries) { index_.reserve(entries); }

  u64 insert(u64 tag) {
    Line* victim = nullptr;
    for (Line& l : lines_) {
      if (l.stamp != 0 && l.tag == tag) {
        l.stamp = ++tick_;
        return kInvalidPage;
      }
      if (l.stamp == 0) {
        victim = &l;
        break;
      }
      if (victim == nullptr || l.stamp < victim->stamp) victim = &l;
    }
    const u64 evicted = victim->stamp != 0 ? victim->tag : kInvalidPage;
    if (victim->stamp != 0) index_.erase(victim->tag);
    victim->tag = tag;
    victim->stamp = ++tick_;
    index_.try_emplace(tag, static_cast<u32>(victim - lines_.data()));
    return evicted;
  }

 private:
  struct Line {
    u64 tag = 0;
    u64 stamp = 0;
  };
  std::vector<Line> lines_;
  FlatMap<u64, u32> index_;
  u64 tick_ = 0;
};

void BM_RefTlbFillScan(benchmark::State& state) {
  RefScanTlb tlb(128);
  PageId next = 0;
  for (; next < 128; ++next) tlb.insert(next);
  for (auto _ : state) benchmark::DoNotOptimize(tlb.insert(next++));
}
BENCHMARK(BM_RefTlbFillScan);

// ---- FlatMap vs std::unordered_map (page-table-shaped churn) ---------------

/// The FlatMap layout before the one-array rewrite: a slot array beside a
/// separate `occupied_` byte array (every probe reads both), and the
/// splitmix64 finaliser masked to the low bits.
template <class K, class V>
class RefTwoArrayMap {
 public:
  RefTwoArrayMap() { rehash(16); }

  V* find(const K& key) {
    for (std::size_t i = bucket_of(key); occupied_[i]; i = (i + 1) & mask_)
      if (slots_[i].key == key) return &slots_[i].value;
    return nullptr;
  }
  V& operator[](const K& key) {
    if ((size_ + 1) * 4 > slots_.size() * 3) rehash(slots_.size() * 2);
    std::size_t i = bucket_of(key);
    for (; occupied_[i]; i = (i + 1) & mask_)
      if (slots_[i].key == key) return slots_[i].value;
    slots_[i] = Slot{key, V{}};
    occupied_[i] = 1;
    ++size_;
    return slots_[i].value;
  }
  bool erase(const K& key) {
    std::size_t j = bucket_of(key);
    for (; occupied_[j]; j = (j + 1) & mask_)
      if (slots_[j].key == key) break;
    if (!occupied_[j]) return false;
    for (std::size_t k = (j + 1) & mask_; occupied_[k]; k = (k + 1) & mask_) {
      const std::size_t home = bucket_of(slots_[k].key);
      if (((k - home) & mask_) >= ((k - j) & mask_)) {
        slots_[j] = slots_[k];
        j = k;
      }
    }
    occupied_[j] = 0;
    --size_;
    return true;
  }

 private:
  struct Slot {
    K key{};
    V value{};
  };
  static std::size_t splitmix(u64 x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
  }
  std::size_t bucket_of(const K& key) const { return splitmix(key) & mask_; }
  void rehash(std::size_t cap) {
    std::vector<Slot> old = std::move(slots_);
    std::vector<u8> old_occ = std::move(occupied_);
    slots_.assign(cap, Slot{});
    occupied_.assign(cap, 0);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < old.size(); ++i) {
      if (!old_occ[i]) continue;
      std::size_t j = bucket_of(old[i].key);
      while (occupied_[j]) j = (j + 1) & mask_;
      slots_[j] = old[i];
      occupied_[j] = 1;
    }
  }
  std::vector<Slot> slots_;
  std::vector<u8> occupied_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

template <typename Map>
void map_churn(benchmark::State& state) {
  Map map;
  Xoshiro256 rng(1);
  for (PageId p = 0; p < 4096; ++p) map[p] = p;
  PageId next = 4096;
  for (auto _ : state) {
    // The oversubscription steady state: unmap an old page, map a new one,
    // look up a few residents (fault-path frame_of probes).
    map.erase(next - 4096);
    map[next] = next;
    for (int i = 0; i < 4; ++i) {
      auto hit = map.find(next - 1 - rng.below(4095));
      benchmark::DoNotOptimize(hit);
    }
    ++next;
  }
}

void BM_FlatMapChurn(benchmark::State& state) {
  map_churn<FlatMap<PageId, PageId>>(state);
}
BENCHMARK(BM_FlatMapChurn);

void BM_RefFlatMapTwoArrays(benchmark::State& state) {
  map_churn<RefTwoArrayMap<PageId, PageId>>(state);
}
BENCHMARK(BM_RefFlatMapTwoArrays);

void BM_RefUnorderedMapChurn(benchmark::State& state) {
  map_churn<std::unordered_map<PageId, PageId>>(state);
}
BENCHMARK(BM_RefUnorderedMapChurn);

/// Lookups only, three hits to one miss, over a table of 4,096 tags spread
/// like TLB tags — the shape of the FlatMaps that remain on the hot path.
template <typename Map>
void map_find(benchmark::State& state) {
  Map map;
  for (PageId p = 0; p < 4096; ++p) map[p * 3] = p;
  Xoshiro256 rng(2);
  for (auto _ : state) {
    auto hit = map.find(rng.below(5461) * 3);  // 4096 of 5461 keys hit
    benchmark::DoNotOptimize(hit);
  }
}

void BM_FlatMapFind(benchmark::State& state) {
  map_find<FlatMap<PageId, PageId>>(state);
}
BENCHMARK(BM_FlatMapFind);

void BM_RefFlatMapTwoArraysFind(benchmark::State& state) {
  map_find<RefTwoArrayMap<PageId, PageId>>(state);
}
BENCHMARK(BM_RefFlatMapTwoArraysFind);

// ---- Page table: dense vector vs the FlatMap it replaced -------------------

/// The fault-path frame_of probe over a half-mapped 8,192-page footprint.
template <typename Table>
void page_table_frame_of(benchmark::State& state, Table& table) {
  Xoshiro256 rng(3);
  for (PageId p = 0; p < 8192; p += 2) table.map(p, p / 2);
  for (auto _ : state) benchmark::DoNotOptimize(table.frame_of(rng.below(8192)));
}

void BM_PageTableFrameOf(benchmark::State& state) {
  PageTable pt(8192);
  page_table_frame_of(state, pt);
}
BENCHMARK(BM_PageTableFrameOf);

/// PageTable's per-page lookup as it was: a hashed FlatMap of the two-array
/// layout.
class RefFlatMapPageTable {
 public:
  void map(PageId p, FrameId f) { map_[p] = f; }
  [[nodiscard]] FrameId frame_of(PageId p) {
    const FrameId* f = map_.find(p);
    return f != nullptr ? *f : kInvalidFrame;
  }

 private:
  RefTwoArrayMap<PageId, FrameId> map_;
};

void BM_RefPageTableFlatMap(benchmark::State& state) {
  RefFlatMapPageTable pt;
  page_table_frame_of(state, pt);
}
BENCHMARK(BM_RefPageTableFlatMap);

}  // namespace
}  // namespace uvmsim

BENCHMARK_MAIN();
