// Highly-threaded page table walker with a shared page walk cache.
//
// Up to `walker_threads` walks proceed concurrently; further requests queue.
// Each walk visits the 4 radix levels root-to-leaf, probing the walk cache
// for the node at each level; a PWC miss costs a memory access through the
// L2-cache/DRAM path (modelled as `walk_memory_latency`). Concurrent walks
// for the same page coalesce MSHR-style into a single walk. The in-flight
// walks are indexed by page over the range of pages the walker serves.
#pragma once

#include <cassert>
#include <deque>
#include <vector>

#include "common/config.hpp"
#include "common/dense_id_map.hpp"
#include "common/inline_function.hpp"
#include "mem/set_assoc_cache.hpp"
#include "sim/event_queue.hpp"
#include "tlb/page_table.hpp"

namespace uvmsim {

class PageWalker {
 public:
  /// Called when the walk finishes: `resident` tells whether a PTE was found.
  /// Move-only SBO callable: the per-miss `[this, sm, warp]` capture stays
  /// inline, so raising a walk performs no allocation.
  using WalkDone = InlineFunction<void(PageId page, bool resident)>;

  /// A walker for pages [first_page, first_page + pages): a GPU passes
  /// its workload's page window.
  PageWalker(EventQueue& eq, const PageTable& pt, const SystemConfig& cfg,
             PageId first_page, u64 pages)
      : eq_(eq),
        pt_(pt),
        cfg_(cfg),
        // PWC entries: 8 KB of 8 B node pointers = 1024 entries.
        pwc_(cfg.walk_cache_bytes / 8, cfg.walk_cache_ways),
        inflight_(first_page, pages) {}

  /// Request a translation walk for `page`; `done` fires on completion.
  void walk(PageId page, WalkDone done) {
    ++walks_requested_;
    auto [waiters, fresh] = inflight_.try_emplace(page);
    waiters->push_back(std::move(done));
    if (!fresh) {  // coalesced with the in-progress walk for the same page
      ++walks_coalesced_;
      return;
    }
    if (active_ < cfg_.walker_threads) {
      ++active_;
      start_walk(page);
    } else {
      queue_.push_back(page);
      peak_queue_ = std::max(peak_queue_, queue_.size());
    }
  }

  [[nodiscard]] u64 walks_requested() const noexcept { return walks_requested_; }
  [[nodiscard]] u64 walks_performed() const noexcept { return walks_performed_; }
  [[nodiscard]] u64 walks_coalesced() const noexcept { return walks_coalesced_; }
  [[nodiscard]] u64 pwc_hits() const noexcept { return pwc_hits_; }
  [[nodiscard]] u64 pwc_misses() const noexcept { return pwc_misses_; }
  [[nodiscard]] u64 large_walks() const noexcept { return large_walks_; }
  [[nodiscard]] u64 walk_cycles() const noexcept { return walk_cycles_; }
  [[nodiscard]] u32 active_walks() const noexcept { return active_; }
  [[nodiscard]] std::size_t peak_queue_depth() const noexcept { return peak_queue_; }

 private:
  void start_walk(PageId page) {
    ++walks_performed_;
    // A large mapping's leaf sits at radix level 1 (one 9-bit node maps
    // exactly kLargePages pages), so the walk stops one level early: 3
    // probes instead of 4. Never taken while the large map is empty, which
    // keeps default-mode walks bit-identical.
    const bool large =
        pt_.has_large() && pt_.large_mapped(large_of_page(page));
    if (large) ++large_walks_;
    const u32 stop_level = large ? 1 : 0;
    // Accumulate the latency of all level visits up front; the walk is a
    // strictly serial pointer chase, so this matches an event per level.
    Cycle latency = 0;
    for (u32 lvl = PageTable::kLevels; lvl-- > stop_level;) {
      const u64 tag = PageTable::node_tag(page, lvl);
      if (pwc_.lookup(tag)) {
        ++pwc_hits_;
        latency += cfg_.walk_cache_latency;
      } else {
        ++pwc_misses_;
        latency += cfg_.walk_memory_latency;
        pwc_.insert(tag);
      }
    }
    walk_cycles_ += latency;
    eq_.schedule_in(latency, [this, page] { finish_walk(page); });
  }

  void finish_walk(PageId page) {
    const bool resident = pt_.resident(page);
    std::vector<WalkDone> waiters;
    [[maybe_unused]] const bool had = inflight_.take(page, waiters);
    assert(had && !waiters.empty());
    for (auto& cb : waiters) cb(page, resident);
    // Hand the freed walker thread to a queued request, if any.
    if (!queue_.empty()) {
      const PageId next = queue_.front();
      queue_.pop_front();
      start_walk(next);
    } else {
      --active_;
    }
  }

  EventQueue& eq_;
  const PageTable& pt_;
  const SystemConfig& cfg_;
  TranslationCache pwc_;

  DenseIdMap<std::vector<WalkDone>> inflight_;  ///< page -> waiting walks
  std::deque<PageId> queue_;
  u32 active_ = 0;
  std::size_t peak_queue_ = 0;

  u64 walks_requested_ = 0;
  u64 walks_performed_ = 0;
  u64 walks_coalesced_ = 0;
  u64 pwc_hits_ = 0;
  u64 pwc_misses_ = 0;
  u64 large_walks_ = 0;
  u64 walk_cycles_ = 0;
};

}  // namespace uvmsim
