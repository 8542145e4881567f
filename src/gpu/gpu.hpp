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
// lines of the departing page alongside the TLB shootdown.
//
// Demand touches are reported to the driver on L1 TLB misses (see
// UvmDriver::note_touch for the fidelity argument).
#pragma once

#include <functional>
#include <memory>
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

 private:
  struct Warp {
    std::unique_ptr<AccessStream> stream;
    u64 access_count = 0;  ///< drives the deterministic line-offset sequence
    bool done = false;
  };
  struct Sm {
    std::unique_ptr<Tlb> l1_tlb;
    std::unique_ptr<SetAssocCache> l1d;
    std::vector<Warp> warps;
  };

  void warp_step(u32 sm, u32 warp);
  void do_access(u32 sm, u32 warp, PageId page);
  /// Translation resolved (page resident): charge DRAM and move on.
  void finish_access(u32 sm, u32 warp, PageId page, Cycle ready);
  void warp_finished();

  EventQueue& eq_;
  SystemConfig cfg_;
  UvmDriver& driver_;
  Dram dram_;
  Tlb l2_tlb_;
  SetAssocCache l2_cache_;
  PageWalker walker_;
  std::vector<Sm> sms_;
  u32 lines_per_page_;
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
