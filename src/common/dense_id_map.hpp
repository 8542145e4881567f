// DenseIdMap: a map from a bounded id range to values, indexed, not hashed.
//
// For keys whose range the owner already knows — page ids below a
// footprint — a hash table only adds probes. DenseIdMap keeps one u32 slot
// index per id in [first, first + count), sized once at construction, and
// the values themselves in a slab whose freed slots go on a free list. A
// lookup is one bounds check and one index read; an erase releases the
// value in place instead of shifting neighbours, as a FlatMap of fat values
// (a PendingFault holds a std::vector) would.
//
// The point API mirrors FlatMap's (find, contains, at, try_emplace,
// operator[], erase, take) and, like FlatMap, there is no iteration: the
// owners keep their own ordered structures. Ids outside the range read as
// absent; inserting one throws std::out_of_range in every build type.
// The slab grows with the number of live entries (faults and walks in
// flight), never with the id range.
#pragma once

#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace uvmsim {

template <class V>
class DenseIdMap {
 public:
  /// Cover ids [first, first + count). `count` must fit the u32 slot range.
  DenseIdMap(u64 first, u64 count) : first_(first) {
    if (count >= kNoSlot)
      throw std::length_error("DenseIdMap: id range exceeds the u32 slot index");
    slot_.assign(count, kNoSlot);
  }

  [[nodiscard]] u64 id_count() const noexcept { return slot_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] V* find(u64 id) {
    const u32 s = slot_of(id);
    return s == kNoSlot ? nullptr : &values_[s];
  }
  [[nodiscard]] const V* find(u64 id) const {
    const u32 s = slot_of(id);
    return s == kNoSlot ? nullptr : &values_[s];
  }
  [[nodiscard]] bool contains(u64 id) const { return slot_of(id) != kNoSlot; }

  /// The mapped value for an id that must be present.
  [[nodiscard]] V& at(u64 id) {
    V* v = find(id);
    assert(v != nullptr);
    return *v;
  }
  [[nodiscard]] const V& at(u64 id) const {
    const V* v = find(id);
    assert(v != nullptr);
    return *v;
  }

  /// Insert a default-constructed value if absent; return the mapped value.
  V& operator[](u64 id) { return *try_emplace(id).first; }

  /// Insert only if `id` is absent (an existing value is left untouched).
  /// Returns the mapped value and whether an insert happened.
  template <class... Args>
  std::pair<V*, bool> try_emplace(u64 id, Args&&... args) {
    const u64 i = id - first_;  // ids below first_ wrap past the range
    if (i >= slot_.size())
      throw std::out_of_range("DenseIdMap: id outside the sized range");
    if (slot_[i] != kNoSlot) return {&values_[slot_[i]], false};
    u32 s;
    if (!free_.empty()) {
      s = free_.back();
      free_.pop_back();
      values_[s] = V(std::forward<Args>(args)...);
    } else {
      s = static_cast<u32>(values_.size());
      values_.emplace_back(std::forward<Args>(args)...);
    }
    slot_[i] = s;
    ++size_;
    return {&values_[s], true};
  }

  /// Remove `id`. Returns true if it was present.
  bool erase(u64 id) {
    const u32 s = slot_of(id);
    if (s == kNoSlot) return false;
    release(id, s);
    return true;
  }

  /// Remove `id`, moving its value into `out`. Returns false — and leaves
  /// `out` untouched — when absent.
  bool take(u64 id, V& out) {
    const u32 s = slot_of(id);
    if (s == kNoSlot) return false;
    out = std::move(values_[s]);
    release(id, s);
    return true;
  }

 private:
  static constexpr u32 kNoSlot = ~u32{0};

  [[nodiscard]] u32 slot_of(u64 id) const noexcept {
    const u64 i = id - first_;
    return i < slot_.size() ? slot_[i] : kNoSlot;
  }

  void release(u64 id, u32 s) {
    values_[s] = V{};  // free the value's resources now, not on reuse
    free_.push_back(s);
    slot_[id - first_] = kNoSlot;
    --size_;
  }

  u64 first_ = 0;
  std::vector<u32> slot_;   ///< id - first_ -> index into values_
  std::vector<V> values_;   ///< live and freed values
  std::vector<u32> free_;   ///< freed indices into values_, reused LIFO
  std::size_t size_ = 0;
};

}  // namespace uvmsim
