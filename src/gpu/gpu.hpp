// GPU model: `num_sms` SMs, each running `warps_per_sm` warps over the
// workload's access streams. Each access goes through the full translation
// path of Fig 1:
//
//   L1 TLB (per SM, 1 cy) -> L2 TLB (shared, 10 cy, 2 ports)
//     -> page table walker (64 threads, page walk cache)
//       -> resident: TLB fills + DRAM access
//       -> not resident: replayable far fault via the UVM driver; the warp
//          is descheduled and replays when the page arrives, while the SM's
//          other warps keep executing (Zheng et al.'s far-fault semantics).
//
// After translation the access goes through the data-cache hierarchy of
// Table I: a per-SM 48 KB/6-way L1, the shared 3 MB/16-way L2, then DRAM.
// Caches are physically indexed (by frame), so evictions invalidate the
// lines of the departing page alongside the TLB shootdown. The data caches
// are indexed by page block (mem/set_assoc_cache.hpp), and per-page sharer
// masks record which SMs' L1 TLB and L1D hold anything of a page, so a
// shootdown visits only the structures that actually cache it. The masks
// are arrays indexed by id, sized once: the TLB masks to the workload's
// pages, the L1D masks to the device's frames (plus, on a fabric device,
// the pages whose remote lines are tagged page-as-frame).
//
// Demand touches are reported to the driver on L1 TLB misses (see
// UvmDriver::note_touch for the fidelity argument).
#pragma once

#include <algorithm>
#include <bit>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/config.hpp"
#include "common/counters.hpp"
#include "mem/dram.hpp"
#include "mem/set_assoc_cache.hpp"
#include "sim/event_queue.hpp"
#include "tlb/tlb.hpp"
#include "tlb/walker.hpp"
#include "uvm/driver.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {

class Gpu {
 public:
  Gpu(EventQueue& eq, const SystemConfig& cfg, UvmDriver& driver,
      const Workload& workload, u64 seed);
  /// Unregisters this GPU's shootdown handlers from the driver — a fleet
  /// job's Gpu dies while the shared driver keeps serving other jobs.
  ~Gpu();

  Gpu(const Gpu&) = delete;
  Gpu& operator=(const Gpu&) = delete;

  /// Schedule the first step of every warp. Call once, then run the queue.
  void launch();

  [[nodiscard]] bool finished() const noexcept { return live_warps_ == 0; }
  [[nodiscard]] Cycle finish_cycle() const noexcept { return finish_cycle_; }
  /// Completion hook, fired from inside the last warp's finishing event.
  /// The callee must not destroy this Gpu re-entrantly — schedule teardown
  /// onto the event queue instead (fleet_system.cpp does).
  void set_on_finished(std::function<void()> cb) { on_finished_ = std::move(cb); }

  /// Hits served by a 2 MB TLB entry are a subset of the hit counters and
  /// always zero when --large-pages is off. Page-table-walker totals
  /// (tlb/walker.hpp): walks that ended on a level-1 large leaf stop one
  /// radix level early, so walk_cycles is the metric 2 MB frames shrink.
#define UVMSIM_GPU_STATS(X)                                                  \
  X(accesses)                                                              \
  X(l1_tlb_hits)                                                           \
  X(l1_tlb_misses)                                                         \
  X(l2_tlb_hits)                                                           \
  X(l2_tlb_misses)                                                         \
  X(far_faults) /* warp-level fault events raised to the driver */         \
  X(l1d_hits)                                                              \
  X(l1d_misses)                                                            \
  X(l2c_hits)                                                              \
  X(l2c_misses)                                                            \
  X(l1_tlb_large_hits)                                                     \
  X(l2_tlb_large_hits)                                                     \
  X(walks_performed)                                                       \
  X(walk_cycles)                                                           \
  X(large_walks)

  struct Stats {
    UVMSIM_GPU_STATS(UVMSIM_COUNTER_FIELD)

    Stats& operator+=(const Stats& o) noexcept {
      UVMSIM_GPU_STATS(UVMSIM_COUNTER_ADD)
      return *this;
    }
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const PageWalker& walker() const noexcept { return walker_; }
  [[nodiscard]] const Dram& dram() const noexcept { return dram_; }

  /// Invalidate every translation and cached line this GPU holds for a page
  /// it accessed *remotely* (multi-GPU fabric): the page was never in this
  /// GPU's page table, so remote lines are tagged with the page-as-frame
  /// fallback (see finish_access). Called by the FabricCoordinator when the
  /// page's owner unmaps it (eviction, spill, or surrender to a peer).
  void remote_shootdown(PageId p);

  /// Audit queries (tests). True when an L1/L2 TLB still translates `p` or
  /// an L1D/L2 cache still holds a line of `block` (the frame, or the page
  /// for remote lines).
  [[nodiscard]] bool caches_page(PageId p, u64 block) const;
  /// True when every SM whose L1 TLB translates `p`, or whose L1D holds a
  /// line of `block`, is in the matching sharer mask.
  [[nodiscard]] bool sharers_cover(PageId p, u64 block) const;

 private:
  struct Warp {
    std::unique_ptr<AccessStream> stream;
    u64 access_count = 0;  ///< drives the deterministic line-offset sequence
    bool done = false;
  };
  struct Sm {
    std::unique_ptr<Tlb> l1_tlb;
    std::unique_ptr<DataCache> l1d;
    std::vector<Warp> warps;
  };

  void warp_step(u32 sm, u32 warp);
  void do_access(u32 sm, u32 warp, PageId page);
  /// Translation resolved (page resident): charge DRAM and move on.
  void finish_access(u32 sm, u32 warp, PageId page, Cycle ready);
  void warp_finished();
  void fill_l1_tlb(u32 sm, PageId p);
  /// Invalidate `p`'s translations and the cached lines of `block`
  /// everywhere on this GPU, visiting only the sharer SMs.
  void shootdown(PageId p, u64 block);

  /// id -> the SMs whose private structure (L1 TLB or L1D) holds it, for
  /// ids in [first, first + count): a bit matrix with one row per id, each
  /// row num_sms bits rounded up to a power of two, so a row sits inside
  /// one u64 word (<= 64 SMs) or spans whole words. A 4-SM fleet job's
  /// Gpu thus spends 4 bits per frame, not a word. Adding an id outside
  /// the range throws std::out_of_range; the other operations treat it as
  /// shared by no SM.
  class SmSharers {
   public:
    SmSharers(u32 num_sms, u64 first, u64 count)
        : row_bits_(std::bit_ceil(std::max(num_sms, 1u))),
          first_(first),
          count_(count),
          masks_((count * row_bits_ + 63) / 64, 0) {}
    void add(u64 key, u32 sm) {
      if (key - first_ >= count_)
        throw std::out_of_range("Gpu: sharer id outside the sized range");
      const u64 b = bit_index(key, sm);
      masks_[b / 64] |= u64{1} << (b % 64);
    }
    void remove(u64 key, u32 sm) {
      if (key - first_ >= count_) return;
      const u64 b = bit_index(key, sm);
      masks_[b / 64] &= ~(u64{1} << (b % 64));
    }
    [[nodiscard]] bool has(u64 key, u32 sm) const {
      if (key - first_ >= count_) return false;
      const u64 b = bit_index(key, sm);
      return ((masks_[b / 64] >> (b % 64)) & 1) != 0;
    }
    /// Call `f(sm)` for every sharer of `key`, in SM order, and forget them.
    template <class F>
    void drain(u64 key, F&& f) {
      if (key - first_ >= count_) return;
      const u64 row = bit_index(key, 0);
      const u32 width = std::min(row_bits_, 64u);
      const u64 field = width == 64 ? ~u64{0} : (u64{1} << width) - 1;
      for (u32 base = 0; base < row_bits_; base += 64) {
        u64& word = masks_[(row + base) / 64];
        const u32 shift = static_cast<u32>((row + base) % 64);
        u64 w = (word >> shift) & field;
        word &= ~(field << shift);
        for (; w != 0; w &= w - 1)
          f(base + static_cast<u32>(std::countr_zero(w)));
      }
    }

   private:
    [[nodiscard]] u64 bit_index(u64 key, u32 sm) const noexcept {
      return (key - first_) * row_bits_ + sm;
    }

    u32 row_bits_;
    u64 first_;
    u64 count_;
    std::vector<u64> masks_;
  };

  EventQueue& eq_;
  SystemConfig cfg_;
  UvmDriver& driver_;
  Dram dram_;
  Tlb l2_tlb_;
  DataCache l2_cache_;
  PageWalker walker_;
  std::vector<Sm> sms_;
  u32 lines_per_page_;
  SmSharers tlb_sharers_;  ///< page -> SMs whose L1 TLB translates it
  SmSharers l1d_sharers_;  ///< block -> SMs whose L1D holds a line of it
  u32 live_warps_ = 0;
  Cycle finish_cycle_ = 0;
  u64 shootdown_handle_ = 0;
  u64 large_handle_ = 0;
  std::function<void()> on_finished_;
  u64 accesses_ = 0;
  u64 far_faults_ = 0;
  u64 l1d_hits_ = 0, l1d_misses_ = 0, l2c_hits_ = 0, l2c_misses_ = 0;
};

}  // namespace uvmsim
