// TLB: a TranslationCache of page translations with hit/miss statistics and
// (for the shared L2 TLB) port contention. Supports hit-under-miss — the
// owner continues probing while walks for earlier misses are outstanding.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "mem/set_assoc_cache.hpp"

namespace uvmsim {

class Tlb {
 public:
  static_assert(TranslationCache::kNoEviction == kInvalidPage);
  /// `ways == 0` means fully associative (used for the 128-entry L1 TLBs).
  Tlb(std::string name, u32 entries, u32 ways, Cycle latency, u32 ports = 1)
      : name_(std::move(name)),
        cache_(entries, ways),
        latency_(latency),
        port_free_(std::max(1u, ports), 0) {}

  struct Result {
    bool hit;
    Cycle ready_at;    ///< cycle at which the lookup result is available
    bool large = false;  ///< the hit came from the 2 MB-entry sub-array
  };

  /// Grow a 2 MB-entry sub-array (large-pages mode; docs/memory.md). One
  /// entry translates a whole kLargePages region, so the sub-array is probed
  /// first — a hit short-circuits the per-page array. Never configured in
  /// default runs: the null pointer keeps the lookup path bit-identical.
  void configure_large(u32 entries, u32 ways = 0) {
    large_ = std::make_unique<TranslationCache>(entries, ways);
  }
  [[nodiscard]] bool large_enabled() const noexcept { return large_ != nullptr; }

  /// Probe for `page` at cycle `now`, paying port contention + access latency.
  Result lookup(Cycle now, PageId page) {
    const Cycle start = acquire_port(now);
    if (large_ != nullptr && large_->lookup(large_of_page(page))) {
      ++hits_;
      ++large_hits_;
      return Result{true, start + latency_, true};
    }
    const bool hit = cache_.lookup(page);
    if (hit)
      ++hits_;
    else
      ++misses_;
    return Result{hit, start + latency_};
  }

  /// Cache the translation of `page`. Returns the page whose entry it
  /// displaced, or kInvalidPage when it displaced none.
  PageId fill(PageId page) { return cache_.insert(page); }
  void fill_large(LargeId region) {
    if (large_ != nullptr) large_->insert(region);
  }

  /// Probe without touching replacement state or the hit counters.
  [[nodiscard]] bool contains(PageId page) const { return cache_.contains(page); }

  /// Shootdown on page eviction. Returns true if the entry existed.
  bool invalidate(PageId page) { return cache_.invalidate(page); }
  /// Shootdown of a whole 2 MB entry (splinter / large-frame eviction).
  bool invalidate_large(LargeId region) {
    return large_ != nullptr && large_->invalidate(region);
  }

  [[nodiscard]] u64 hits() const noexcept { return hits_; }
  [[nodiscard]] u64 misses() const noexcept { return misses_; }
  [[nodiscard]] u64 large_hits() const noexcept { return large_hits_; }
  [[nodiscard]] double hit_rate() const noexcept {
    const u64 total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] u32 entries() const noexcept { return cache_.entries(); }

 private:
  /// Each port serves one lookup per cycle; pick the earliest-free port.
  Cycle acquire_port(Cycle now) {
    auto it = std::min_element(port_free_.begin(), port_free_.end());
    const Cycle start = std::max(now, *it);
    *it = start + 1;
    return start;
  }

  std::string name_;
  TranslationCache cache_;
  std::unique_ptr<TranslationCache> large_;  ///< 2 MB entries; null when off
  Cycle latency_;
  std::vector<Cycle> port_free_;
  u64 hits_ = 0;
  u64 misses_ = 0;
  u64 large_hits_ = 0;
};

}  // namespace uvmsim
