// Generic set-associative tag array with true-LRU replacement.
//
// Used for the per-SM L1 data caches, the shared L2 cache, the page walk
// cache, and (via way-count = entries) fully-associative structures. Only
// tags are modelled — the simulator cares about hit/miss timing, not data.
//
// Replacement always scans the tag's set: the victim is its first free way,
// else its least recently used line. What differs is the index kept beside
// the way array, chosen by the constructor:
//
//  * Per tag (`block_lines == 0`; TLBs and the page walk cache): a FlatMap
//    tag -> line, so lookup/contains/invalidate are O(1) even in the
//    128-way fully-associative L1 TLB. Its insert checks for the tag only
//    up to the set's first free way, so a tag cached behind a free way is
//    cached twice (a known defect, kept for byte-identical output; see
//    ROADMAP, correctness).
//  * Per block (`block_lines > 0`; the L1D and L2 data caches): tags are
//    grouped into blocks of `block_lines` consecutive tags (one page of
//    lines) and a FlatMap block -> bitmask holds which of the block's lines
//    are valid. lookup and insert scan the set's 6 or 16 ways, and every
//    tag is cached at most once. The masks let invalidate_block drop a
//    whole page in time proportional to the lines it actually holds, so a
//    page shootdown costs what is cached, not lines-per-page probes per
//    cache. access() reports when a block gains its first line or loses
//    its last, so an owner can keep a reverse index of which caches hold
//    a block (gpu/gpu.hpp).
//
// The two inserts agree whenever the tag is absent, the only way the GPU
// inserts into its data caches.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "common/flat_map.hpp"
#include "common/types.hpp"

namespace uvmsim {

class SetAssocCache {
 public:
  static constexpr u64 kNoEviction = ~u64{0};

  /// `entries` total entries; `ways` per set (0 = fully associative).
  /// `block_lines` > 0 (a power of two, at most 64) indexes by block.
  SetAssocCache(u32 entries, u32 ways, u32 block_lines = 0)
      : ways_(ways == 0 ? entries : ways),
        sets_(entries / (ways == 0 ? entries : ways)),
        block_lines_(block_lines),
        block_shift_(static_cast<u32>(std::countr_zero(block_lines))),
        lines_(static_cast<std::size_t>(sets_) * ways_) {
    assert(entries > 0);
    assert(ways_ > 0 && sets_ > 0);
    assert(sets_ * ways_ == entries && "entries must be divisible by ways");
    if (block_lines_ > 64 || std::popcount(block_lines_) > 1)
      throw std::invalid_argument(
          "SetAssocCache: block_lines must be 0 or a power of two <= 64");
    if (block_lines_ == 0) index_.reserve(entries);
  }

  /// Look up `tag`; on hit, refresh LRU stamp. Returns true on hit.
  bool lookup(u64 tag) {
    Line* line = find(tag);
    if (line == nullptr) return false;
    line->stamp = ++tick_;
    return true;
  }

  /// Probe without updating replacement state.
  [[nodiscard]] bool contains(u64 tag) const {
    if (block_lines_ == 0) return index_.contains(tag);
    const u64* mask = blocks_.find(block_of(tag));
    return mask != nullptr && (*mask & bit_of(tag)) != 0;
  }

  /// Insert `tag`, evicting LRU within its set if needed. Returns the
  /// evicted tag, or kNoEviction when a free way took it or it was cached.
  u64 insert(u64 tag) {
    if (block_lines_ != 0) return access(tag).evicted;
    const u64 set = set_of(tag);
    Line* victim = nullptr;
    for (u32 w = 0; w < ways_; ++w) {
      Line& l = lines_[set * ways_ + w];
      if (l.valid() && l.tag == tag) {  // already present
        l.stamp = ++tick_;
        return kNoEviction;
      }
      if (!l.valid()) {
        victim = &l;
        break;
      }
      if (victim == nullptr || l.stamp < victim->stamp) victim = &l;
    }
    const u64 evicted = victim->valid() ? victim->tag : kNoEviction;
    if (victim->valid()) index_.erase(victim->tag);
    victim->tag = tag;
    victim->stamp = ++tick_;
    index_.try_emplace(tag, line_index(victim));
    return evicted;
  }

  struct Access {
    bool hit = false;
    u64 evicted = kNoEviction;
    bool opened = false;  ///< the tag is now its block's only cached line
    bool closed = false;  ///< the evicted line was its block's last one
  };
  /// Block mode: lookup, and on a miss insert, in one scan of the set.
  Access access(u64 tag) {
    assert(block_lines_ != 0);
    Access a;
    Line* set = &lines_[set_of(tag) * ways_];
    Line* free = nullptr;
    Line* lru = nullptr;
    for (u32 w = 0; w < ways_; ++w) {
      Line& l = set[w];
      if (!l.valid()) {
        if (free == nullptr) free = &l;
      } else if (l.tag == tag) {
        l.stamp = ++tick_;
        a.hit = true;
        return a;
      } else if (lru == nullptr || l.stamp < lru->stamp) {
        lru = &l;
      }
    }
    Line* victim = free != nullptr ? free : lru;
    if (victim->valid()) {
      a.evicted = victim->tag;
      a.closed = unmark(victim->tag);
    }
    victim->tag = tag;
    victim->stamp = ++tick_;
    u64& mask = blocks_[block_of(tag)];
    a.opened = mask == 0;
    mask |= bit_of(tag);
    ++valid_lines_;
    return a;
  }

  /// Remove `tag` if present (e.g. TLB shootdown on eviction). Returns true if removed.
  bool invalidate(u64 tag) {
    Line* line = find(tag);
    if (line == nullptr) return false;
    line->stamp = 0;
    if (block_lines_ == 0)
      index_.erase(tag);
    else
      unmark(tag);
    return true;
  }

  /// Block mode: remove every cached line of `block`, visiting only the
  /// lines its mask holds. Returns how many lines were removed.
  u32 invalidate_block(u64 block) {
    assert(block_lines_ != 0);
    u64 mask = 0;
    if (!blocks_.take(block, mask)) return 0;
    const u32 removed = static_cast<u32>(std::popcount(mask));
    for (; mask != 0; mask &= mask - 1) {
      Line* line = scan((block << block_shift_) | static_cast<u64>(std::countr_zero(mask)));
      assert(line != nullptr);
      line->stamp = 0;
    }
    valid_lines_ -= removed;
    return removed;
  }

  /// Block mode: true when any line of `block` is cached.
  [[nodiscard]] bool holds_block(u64 block) const {
    assert(block_lines_ != 0);
    return blocks_.contains(block);
  }

  void invalidate_all() {
    for (auto& l : lines_) l.stamp = 0;
    index_.clear();
    blocks_.clear();
    valid_lines_ = 0;
  }

  [[nodiscard]] u32 ways() const noexcept { return ways_; }
  [[nodiscard]] u32 sets() const noexcept { return sets_; }
  [[nodiscard]] u32 entries() const noexcept { return ways_ * sets_; }

  [[nodiscard]] u32 occupancy() const noexcept {
    return block_lines_ == 0 ? static_cast<u32>(index_.size()) : valid_lines_;
  }

 private:
  /// A line is valid while its stamp is non-zero (ticks start at 1).
  struct Line {
    u64 tag = 0;
    u64 stamp = 0;
    [[nodiscard]] bool valid() const noexcept { return stamp != 0; }
  };

  [[nodiscard]] u64 set_of(u64 tag) const noexcept { return tag % sets_; }
  [[nodiscard]] u64 block_of(u64 tag) const noexcept { return tag >> block_shift_; }
  [[nodiscard]] u64 bit_of(u64 tag) const noexcept {
    return u64{1} << (tag & (block_lines_ - 1));
  }

  [[nodiscard]] u32 line_index(const Line* l) const noexcept {
    return static_cast<u32>(l - lines_.data());
  }

  /// The valid line holding `tag` in its set, or null.
  Line* scan(u64 tag) {
    Line* set = &lines_[set_of(tag) * ways_];
    for (u32 w = 0; w < ways_; ++w)
      if (set[w].valid() && set[w].tag == tag) return &set[w];
    return nullptr;
  }

  Line* find(u64 tag) {
    if (block_lines_ != 0) return scan(tag);
    const u32* idx = index_.find(tag);
    if (idx == nullptr) return nullptr;
    Line& l = lines_[*idx];
    assert(l.valid() && l.tag == tag);
    return &l;
  }

  /// Block mode: clear `tag`'s mask bit. Returns true if that emptied the
  /// block (it is then dropped from the map).
  bool unmark(u64 tag) {
    const u64 block = block_of(tag);
    u64& mask = blocks_.at(block);
    mask &= ~bit_of(tag);
    --valid_lines_;
    if (mask != 0) return false;
    blocks_.erase(block);
    return true;
  }

  u32 ways_;
  u32 sets_;
  u32 block_lines_;
  u32 block_shift_;
  std::vector<Line> lines_;
  FlatMap<u64, u32> index_;   ///< per-tag mode: valid tag -> index into lines_
  FlatMap<u64, u64> blocks_;  ///< block mode: block -> mask of valid lines
  u32 valid_lines_ = 0;       ///< block mode: lines the masks hold
  u64 tick_ = 0;
};

}  // namespace uvmsim
