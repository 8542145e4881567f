// Open-addressing hash containers for the simulation hot path.
//
// FlatMap is a linear-probing, power-of-two-capacity hash map with
// backward-shift deletion (no tombstones, so load never degrades over a
// long run) and all entries in ONE contiguous slot array: a slot is empty
// when its key equals the reserved key `~K{0}` (kInvalidPage, kInvalidChunk
// and TranslationCache::kNoEviction are all that value, and nothing inserts
// them), so a probe reads one array, not a key array beside an occupancy
// array. Inserting the reserved key throws std::invalid_argument in every
// build type; looking it up reports absent. FlatSet is the keys-only
// counterpart.
//
// Hash: multiplicative (Fibonacci) hashing on the high bits,
// `(key * 0x9E3779B97F4A7C15) >> (64 - log2(capacity))`. One multiply, and
// the high bits of the product depend on every key bit, so sequential ids
// and keys that share their low bits (`k << 32`, walk-cache node tags) still
// spread over the table.
//
// Keys bounded by a range the owner already knows (page and frame ids) do
// not belong here: they index a plain vector or a DenseIdMap
// (common/dense_id_map.hpp) instead.
//
// Determinism: the hash function is fixed (no per-process seeding) and the
// containers expose NO iteration order — there is deliberately no
// begin()/end(). Every consumer performs point operations only, so
// simulation behaviour cannot depend on where keys land in the table;
// tests/common/flat_map_test.cpp pins this API property.
//
// Keys must be unsigned integers; values must be default-constructible and
// move-assignable (backward-shift deletion moves entries).
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace uvmsim {

template <class K, class V>
class FlatMap {
  static_assert(std::is_unsigned_v<K>, "FlatMap keys are unsigned ids");

 public:
  /// The key that marks an empty slot; it can never be inserted.
  static constexpr K kEmptyKey = ~K{0};

  FlatMap() = default;
  FlatMap(const FlatMap&) = default;
  FlatMap& operator=(const FlatMap&) = default;

  // Moves must leave the source as a valid empty map (the implicit move
  // would leave stale capacity/mask over an emptied vector).
  FlatMap(FlatMap&& o) noexcept
      : slots_(std::move(o.slots_)),
        capacity_(o.capacity_),
        mask_(o.mask_),
        shift_(o.shift_),
        size_(o.size_) {
    o.capacity_ = o.mask_ = o.size_ = 0;
  }
  FlatMap& operator=(FlatMap&& o) noexcept {
    if (this != &o) {
      slots_ = std::move(o.slots_);
      capacity_ = o.capacity_;
      mask_ = o.mask_;
      shift_ = o.shift_;
      size_ = o.size_;
      o.capacity_ = o.mask_ = o.size_ = 0;
    }
    return *this;
  }

  /// Size the table for `n` live entries up front (e.g. a cache's entry
  /// count), so the hot loop never pays a rehash.
  void reserve(std::size_t n) {
    std::size_t want = kMinCapacity;
    while (want * 3 < n * 4) want <<= 1;  // keep load factor <= 0.75
    if (want > capacity_) rehash(want);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Current table capacity in slots (0 until the first insert/reserve).
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] double load_factor() const noexcept {
    return capacity_ == 0
               ? 0.0
               : static_cast<double>(size_) / static_cast<double>(capacity_);
  }

  void clear() {
    for (Slot& s : slots_)
      if (s.key != kEmptyKey) s = Slot{};
    size_ = 0;
  }

  [[nodiscard]] V* find(const K& key) {
    const std::size_t i = find_index(key);
    return i == kNotFound ? nullptr : &slots_[i].value;
  }
  [[nodiscard]] const V* find(const K& key) const {
    const std::size_t i = find_index(key);
    return i == kNotFound ? nullptr : &slots_[i].value;
  }
  [[nodiscard]] bool contains(const K& key) const {
    return find_index(key) != kNotFound;
  }

  /// The mapped value for a key that must be present.
  [[nodiscard]] V& at(const K& key) {
    V* v = find(key);
    assert(v != nullptr);
    return *v;
  }
  [[nodiscard]] const V& at(const K& key) const {
    const V* v = find(key);
    assert(v != nullptr);
    return *v;
  }

  /// Insert default-constructed value if absent; return the mapped value.
  V& operator[](const K& key) { return *try_emplace(key).first; }

  /// Insert `value` only if `key` is absent (unordered_map::try_emplace
  /// semantics: an existing entry is left untouched). Returns the mapped
  /// value and whether an insert happened.
  template <class... Args>
  std::pair<V*, bool> try_emplace(const K& key, Args&&... args) {
    if (key == kEmptyKey)
      throw std::invalid_argument("FlatMap: the reserved empty key was inserted");
    grow_if_needed();
    std::size_t i = bucket_of(key);
    while (slots_[i].key != kEmptyKey) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
      i = (i + 1) & mask_;
    }
    slots_[i].key = key;
    slots_[i].value = V(std::forward<Args>(args)...);
    ++size_;
    return {&slots_[i].value, true};
  }

  /// Remove `key`. Returns true if it was present.
  bool erase(const K& key) {
    const std::size_t i = find_index(key);
    if (i == kNotFound) return false;
    erase_at(i);
    return true;
  }

  /// Remove `key`, moving its value into `out` (unordered_map::extract
  /// analogue). Returns false — and leaves `out` untouched — when absent.
  bool take(const K& key, V& out) {
    const std::size_t i = find_index(key);
    if (i == kNotFound) return false;
    out = std::move(slots_[i].value);
    erase_at(i);
    return true;
  }

 private:
  struct Slot {
    K key = kEmptyKey;
    V value{};
  };

  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::size_t kNotFound = ~std::size_t{0};

  /// Only called with capacity_ > 0, so shift_ < 64.
  [[nodiscard]] std::size_t bucket_of(const K& key) const noexcept {
    return static_cast<std::size_t>(
        (static_cast<u64>(key) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  [[nodiscard]] std::size_t find_index(const K& key) const noexcept {
    if (size_ == 0) return kNotFound;  // also covers capacity 0
    std::size_t i = bucket_of(key);
    for (;;) {
      const K k = slots_[i].key;
      if (k == kEmptyKey) return kNotFound;
      if (k == key) return i;
      i = (i + 1) & mask_;
    }
  }

  void grow_if_needed() {
    if (capacity_ == 0) {
      rehash(kMinCapacity);
    } else if ((size_ + 1) * 4 > capacity_ * 3) {  // load factor > 0.75
      rehash(capacity_ * 2);
    }
  }

  void rehash(std::size_t new_capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>(new_capacity);  // values may be move-only
    capacity_ = new_capacity;
    mask_ = new_capacity - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(new_capacity));
    for (Slot& s : old) {
      if (s.key == kEmptyKey) continue;
      std::size_t j = bucket_of(s.key);
      while (slots_[j].key != kEmptyKey) j = (j + 1) & mask_;
      slots_[j] = std::move(s);
    }
  }

  /// Backward-shift deletion (Knuth 6.4, algorithm R): walk the probe chain
  /// after the hole and pull back every entry whose home bucket lies at or
  /// before the hole, so lookups never need tombstones.
  void erase_at(std::size_t hole) {
    std::size_t j = hole;
    for (std::size_t k = (hole + 1) & mask_; slots_[k].key != kEmptyKey;
         k = (k + 1) & mask_) {
      const std::size_t home = bucket_of(slots_[k].key);
      // `k - home` is the entry's probe distance; if the hole at `j` is
      // within it (cyclically), the entry is unreachable once `j` empties —
      // move it back into the hole and continue with the new hole at `k`.
      if (((k - home) & mask_) >= ((k - j) & mask_)) {
        slots_[j] = std::move(slots_[k]);
        j = k;
      }
    }
    slots_[j] = Slot{};  // marks the slot empty and releases the value
    --size_;
  }

  std::vector<Slot> slots_;
  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

/// Keys-only companion with identical probing/deletion behaviour. Like
/// FlatMap it exposes no iteration order.
template <class K>
class FlatSet {
 public:
  void reserve(std::size_t n) { map_.reserve(n); }
  [[nodiscard]] std::size_t size() const noexcept { return map_.size(); }
  [[nodiscard]] bool empty() const noexcept { return map_.empty(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return map_.capacity(); }
  void clear() { map_.clear(); }

  /// Returns true if the key was newly inserted.
  bool insert(const K& key) { return map_.try_emplace(key).second; }
  [[nodiscard]] bool contains(const K& key) const { return map_.contains(key); }
  /// Returns true if the key was present (usable as `erase(k) > 0`).
  bool erase(const K& key) { return map_.erase(key); }

 private:
  struct Empty {};
  FlatMap<K, Empty> map_;
};

}  // namespace uvmsim
