// Set-associative tag arrays with true-LRU replacement, in two classes.
//
// Only tags are modelled — the simulator cares about hit/miss timing, not
// data. Both classes take `entries` and `ways` per set (0 = fully
// associative, one set of `entries` ways); a tag's set is `tag % sets`.
// In a full set the victim is the least recently used line (a hit or a fill
// refreshes a line; a probe with contains() does not). Every tag is cached
// at most once: a fill of a cached tag only refreshes it.
//
//  * TranslationCache (the L1 and L2 TLBs, their 2 MB sub-arrays and the
//    page walk cache): a FlatMap tag -> line beside the way array, and the
//    ways of each set kept in a circular doubly-linked list in LRU order,
//    least recently used at the set's head. Free ways sit at the head
//    (invalidate moves a line there) and a hit or fill moves a line to the
//    tail, so the victim is always the head. lookup, insert and invalidate
//    are O(1) even in the 128-way fully-associative L1 TLB. The links live
//    in the line array itself (a line is 16 bytes), closed by one sentinel
//    line per set, and a way joins its list on first use, so construction
//    writes only the sentinels.
//  * DataCache (the L1D and L2 data caches): tags are lines, grouped into
//    blocks of `block_lines` consecutive tags (one page of lines), and a
//    FlatMap block -> bitmask holds which of the block's lines are valid.
//    access() scans the set's 6 or 16 ways for the tag and, on a miss, for
//    the first free way or else the oldest stamp. The masks let
//    invalidate_block drop a whole page in time proportional to the lines
//    it actually holds, so a page shootdown costs what is cached, not
//    lines-per-page probes per cache. access() reports when a block gains
//    its first line or loses its last, so an owner can keep a reverse
//    index of which caches hold a block (gpu/gpu.hpp). The data caches keep
//    the stamp scan because their sets are small and their arrays large:
//    the linked list measured slower there (docs/performance.md).
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "common/flat_map.hpp"
#include "common/types.hpp"

namespace uvmsim {

class TranslationCache {
 public:
  /// Returned when an insert displaced nothing; also the tag of a free line.
  static constexpr u64 kNoEviction = ~u64{0};

  /// `entries` total entries; `ways` per set (0 = fully associative).
  TranslationCache(u32 entries, u32 ways)
      : ways_(ways == 0 ? entries : ways),
        sets_(entries / ways_),
        lines_(static_cast<std::size_t>(entries) + sets_) {
    assert(entries > 0);
    assert(sets_ > 0 && sets_ * ways_ == entries &&
           "entries must be divisible by ways");
    clear_rings();
    index_.reserve(entries);
  }

  /// Look up `tag`; on hit, make it the most recently used. True on hit.
  bool lookup(u64 tag) {
    const u32* idx = index_.find(tag);
    if (idx == nullptr) return false;
    to_tail(set_of(tag), *idx);
    return true;
  }

  /// Probe without updating replacement state.
  [[nodiscard]] bool contains(u64 tag) const { return index_.contains(tag); }

  /// Insert `tag`, evicting the LRU line of its set when no way is free.
  /// Returns the evicted tag, or kNoEviction when a free way took it or it
  /// was already cached (it is then refreshed).
  u64 insert(u64 tag) {
    assert(tag != kNoEviction);
    const u32 set = set_of(tag);
    const auto [idx, added] = index_.try_emplace(tag);  // presence first
    if (!added) {
      to_tail(set, *idx);
      return kNoEviction;
    }
    const u32 s = sentinel(set);
    Line& ring = lines_[s];
    u32 victim = ring.next;  // a way an invalidate freed, else the LRU line
    if (ring.tag < ways_ && lines_[victim].tag != kNoEviction) {
      // No freed way: link in the set's next never-used way instead.
      victim = set * ways_ + static_cast<u32>(ring.tag++);
      lines_[victim].tag = kNoEviction;
      link_between(victim, s, ring.next);
    }
    *idx = victim;
    Line& line = lines_[victim];
    const u64 evicted = line.tag;
    line.tag = tag;
    to_tail(set, victim);
    // Last: erasing may shift other index slots, `idx` among them.
    if (evicted != kNoEviction) index_.erase(evicted);
    return evicted;
  }

  /// Remove `tag` if present (e.g. TLB shootdown on eviction). Returns true
  /// if removed.
  bool invalidate(u64 tag) {
    u32 idx = 0;
    if (!index_.take(tag, idx)) return false;
    lines_[idx].tag = kNoEviction;
    to_head(set_of(tag), idx);
    return true;
  }

  void invalidate_all() {
    clear_rings();
    index_.clear();
  }

  [[nodiscard]] u32 ways() const noexcept { return ways_; }
  [[nodiscard]] u32 sets() const noexcept { return sets_; }
  [[nodiscard]] u32 entries() const noexcept { return ways_ * sets_; }
  [[nodiscard]] u32 occupancy() const noexcept {
    return static_cast<u32>(index_.size());
  }

 private:
  /// prev/next are indices into lines_ within the same set's ring. A
  /// linked way is free while its tag is kNoEviction; a sentinel's tag
  /// counts the ways of its set linked so far.
  struct Line {
    u64 tag;
    u32 prev;
    u32 next;
  };

  [[nodiscard]] u32 set_of(u64 tag) const noexcept {
    return static_cast<u32>(tag % sets_);
  }
  /// The ring's fixed point: its next is the set's least recently used
  /// line, its prev the most recently used.
  [[nodiscard]] u32 sentinel(u32 set) const noexcept {
    return ways_ * sets_ + set;
  }

  /// Empty every set's ring; ways are linked in by insert as they are
  /// first needed, so construction touches only the sentinels.
  void clear_rings() {
    for (u32 set = 0; set < sets_; ++set) {
      const u32 s = sentinel(set);
      lines_[s] = {0, s, s};
    }
  }

  void unlink(u32 i) {
    const Line& l = lines_[i];
    lines_[l.prev].next = l.next;
    lines_[l.next].prev = l.prev;
  }
  void link_between(u32 i, u32 prev, u32 next) {
    lines_[i].prev = prev;
    lines_[i].next = next;
    lines_[prev].next = i;
    lines_[next].prev = i;
  }

  /// Make line `i` of `set` the most recently used.
  void to_tail(u32 set, u32 i) {
    const u32 s = sentinel(set);
    unlink(i);
    link_between(i, lines_[s].prev, s);
  }

  /// Make line `i` of `set` the next victim.
  void to_head(u32 set, u32 i) {
    const u32 s = sentinel(set);
    unlink(i);
    link_between(i, s, lines_[s].next);
  }

  u32 ways_;
  u32 sets_;
  std::vector<Line> lines_;  ///< sets_ * ways_ ways, then one sentinel per set
  FlatMap<u64, u32> index_;  ///< valid tag -> index into lines_
};

class DataCache {
 public:
  static constexpr u64 kNoEviction = ~u64{0};

  /// `entries` total lines; `ways` per set (0 = fully associative);
  /// `block_lines` tags per block, a power of two of at most 64.
  DataCache(u32 entries, u32 ways, u32 block_lines)
      : ways_(ways == 0 ? entries : ways),
        sets_(entries / ways_),
        block_lines_(block_lines),
        block_shift_(static_cast<u32>(std::countr_zero(block_lines))),
        lines_(static_cast<std::size_t>(sets_) * ways_) {
    assert(entries > 0);
    assert(sets_ > 0 && sets_ * ways_ == entries &&
           "entries must be divisible by ways");
    if (block_lines_ > 64 || !std::has_single_bit(block_lines_))
      throw std::invalid_argument(
          "DataCache: block_lines must be a power of two <= 64");
  }

  /// Look up `tag`; on hit, refresh its LRU stamp. Returns true on hit.
  bool lookup(u64 tag) {
    Line* line = scan(tag);
    if (line == nullptr) return false;
    line->stamp = ++tick_;
    return true;
  }

  /// Probe without updating replacement state.
  [[nodiscard]] bool contains(u64 tag) const {
    const u64* mask = blocks_.find(block_of(tag));
    return mask != nullptr && (*mask & bit_of(tag)) != 0;
  }

  struct Access {
    bool hit = false;
    u64 evicted = kNoEviction;
    bool opened = false;  ///< the tag is now its block's only cached line
    bool closed = false;  ///< the evicted line was its block's last one
  };
  /// Lookup, and on a miss insert, in one scan of the set.
  Access access(u64 tag) {
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

  /// Remove `tag` if present. Returns true if removed.
  bool invalidate(u64 tag) {
    Line* line = scan(tag);
    if (line == nullptr) return false;
    line->stamp = 0;
    unmark(tag);
    return true;
  }

  /// Remove every cached line of `block`, visiting only the lines its mask
  /// holds. Returns how many lines were removed.
  u32 invalidate_block(u64 block) {
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

  /// True when any line of `block` is cached.
  [[nodiscard]] bool holds_block(u64 block) const { return blocks_.contains(block); }

  void invalidate_all() {
    for (auto& l : lines_) l.stamp = 0;
    blocks_.clear();
    valid_lines_ = 0;
  }

  [[nodiscard]] u32 ways() const noexcept { return ways_; }
  [[nodiscard]] u32 sets() const noexcept { return sets_; }
  [[nodiscard]] u32 entries() const noexcept { return ways_ * sets_; }
  [[nodiscard]] u32 occupancy() const noexcept { return valid_lines_; }

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

  /// The valid line holding `tag` in its set, or null.
  Line* scan(u64 tag) {
    Line* set = &lines_[set_of(tag) * ways_];
    for (u32 w = 0; w < ways_; ++w)
      if (set[w].valid() && set[w].tag == tag) return &set[w];
    return nullptr;
  }

  /// Clear `tag`'s mask bit. Returns true if that emptied the block (it is
  /// then dropped from the map).
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
  FlatMap<u64, u64> blocks_;  ///< block -> mask of valid lines
  u32 valid_lines_ = 0;       ///< lines the masks hold
  u64 tick_ = 0;
};

}  // namespace uvmsim
