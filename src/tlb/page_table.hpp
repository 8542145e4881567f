// Four-level radix page table over the unified virtual address space.
//
// The simulator does not store data, so a mapping is presence plus a
// physical frame number. The radix structure matters to the *walker*: each
// level contributes a node whose tag is probed in the page walk cache, so
// spatially-close pages share upper-level nodes exactly as on real x86-64.
//
// Per-page mappings live in a vector indexed by page id, sized once at
// construction to the address space it covers (the driver's footprint), so
// a lookup is one array read and the fault path never touches the
// allocator; kInvalidFrame marks an unmapped page. Pages outside the range
// read as unmapped. The 2 MB large mappings, few and sparse, stay in a
// FlatMap (src/common/flat_map.hpp).
#pragma once

#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "common/flat_map.hpp"
#include "common/types.hpp"

namespace uvmsim {

/// Physical frame number in GPU device memory.
using FrameId = u64;
inline constexpr FrameId kInvalidFrame = ~FrameId{0};

class PageTable {
 public:
  static constexpr u32 kLevels = 4;
  static constexpr u32 kBitsPerLevel = 9;  ///< 512-entry nodes, x86-64 style

  /// Tag identifying the page-table node visited at `level` (0 = leaf/PTE
  /// level, kLevels-1 = root) during a walk for page `p`. Pages that share
  /// the high-order bits share nodes, so the walk cache captures locality.
  [[nodiscard]] static constexpr u64 node_tag(PageId p, u32 level) {
    assert(level < kLevels);
    // Shift away the bits resolved below this level; keep the level in the
    // tag so nodes from different levels never alias.
    return ((p >> (kBitsPerLevel * level)) << 2) | level;
  }

  /// A table over pages [0, pages), all unmapped.
  explicit PageTable(u64 pages) : map_(pages, kInvalidFrame) {
    large_map_.reserve(pages / kLargePages + 1);
  }

  [[nodiscard]] bool resident(PageId p) const {
    if (small_frame(p) != kInvalidFrame) return true;
    return has_large() && large_map_.contains(large_of_page(p));
  }

  [[nodiscard]] FrameId frame_of(PageId p) const {
    const FrameId f = small_frame(p);
    if (f != kInvalidFrame) return f;
    if (has_large()) {
      const FrameId* base = large_map_.find(large_of_page(p));
      if (base != nullptr) return *base + page_index_in_large(p);
    }
    return kInvalidFrame;
  }

  /// Map `p` to `f`. A page outside the range throws std::out_of_range.
  void map(PageId p, FrameId f) {
    if (p >= map_.size())
      throw std::out_of_range("PageTable: page outside the mapped range");
    assert(map_[p] == kInvalidFrame && f != kInvalidFrame);
    assert(!large_map_.contains(large_of_page(p)));
    map_[p] = f;
    ++small_mapped_;
  }

  /// Remove the mapping; returns the frame that backed it. Pages covered by
  /// a large mapping must be demoted (splintered) before unmap.
  FrameId unmap(PageId p) {
    assert(small_frame(p) != kInvalidFrame);
    const FrameId f = map_[p];
    map_[p] = kInvalidFrame;
    --small_mapped_;
    return f;
  }

  // --- 2 MB large mappings (large-pages mode only; docs/memory.md) ---------
  // A large mapping replaces the kLargePages individual PTEs of one aligned
  // region with a single leaf at radix level 1 (a 9-bit node maps exactly
  // 2 MB), backed by a physically contiguous, kLargePages-aligned frame run.

  [[nodiscard]] bool has_large() const { return large_map_.size() != 0; }

  [[nodiscard]] bool large_mapped(LargeId l) const {
    return has_large() && large_map_.contains(l);
  }

  [[nodiscard]] FrameId large_base(LargeId l) const {
    const FrameId* base = large_map_.find(l);
    return base == nullptr ? kInvalidFrame : *base;
  }

  /// Coalesce: all kLargePages pages of `l` must be individually mapped to
  /// frames `base + index`; the per-page PTEs are folded into one large PTE.
  void promote(LargeId l, FrameId base) {
    assert(!large_map_.contains(l));
    assert(base % kLargePages == 0);
    const PageId first = first_page_of_large(l);
    for (u32 i = 0; i < kLargePages; ++i) {
      [[maybe_unused]] const FrameId f = unmap(first + i);
      assert(f == base + i);
    }
    large_map_.try_emplace(l, base);
  }

  /// Splinter: expand the large PTE back into kLargePages per-page PTEs.
  /// Translations are unchanged (the frames stay put).
  void demote(LargeId l) {
    FrameId base = kInvalidFrame;
    [[maybe_unused]] const bool present = large_map_.take(l, base);
    assert(present);
    const PageId first = first_page_of_large(l);
    for (u32 i = 0; i < kLargePages; ++i) map(first + i, base + i);
  }

  /// Drop a whole large mapping (large-frame eviction); returns the base.
  FrameId unmap_large(LargeId l) {
    FrameId base = kInvalidFrame;
    [[maybe_unused]] const bool present = large_map_.take(l, base);
    assert(present);
    return base;
  }

  [[nodiscard]] std::size_t mapped_pages() const {
    return small_mapped_ + large_map_.size() * kLargePages;
  }
  [[nodiscard]] std::size_t large_mappings() const { return large_map_.size(); }

  // --- Simulator-perf observability (RunResult.sim / --sim-stats) ----------
  /// Length of the dense per-page table.
  [[nodiscard]] std::size_t table_capacity() const { return map_.size(); }
  /// Fraction of the table's pages mapped by a per-page PTE.
  [[nodiscard]] double load_factor() const {
    return map_.empty() ? 0.0
                        : static_cast<double>(small_mapped_) /
                              static_cast<double>(map_.size());
  }

 private:
  /// The per-page PTE of `p`; kInvalidFrame when unmapped or out of range.
  [[nodiscard]] FrameId small_frame(PageId p) const noexcept {
    return p < map_.size() ? map_[p] : kInvalidFrame;
  }

  std::vector<FrameId> map_;  ///< page -> frame, kInvalidFrame = unmapped
  std::size_t small_mapped_ = 0;  ///< entries of map_ that are mapped
  FlatMap<LargeId, FrameId> large_map_;  ///< region -> kLargePages-aligned base
};

}  // namespace uvmsim
