// LargeFrameManager: the coalescing/splintering half of large-pages mode
// (docs/memory.md). Watches for 2 MB regions whose 32 chunks are fully
// resident, fully demand-touched, unpinned and physically contiguous on a
// kLargePages-aligned frame run (FramePool's slot binding makes that the
// common case), and *promotes* them to one large page-table mapping —
// Mosaic's lazy coalescing: a pure metadata flip, off the fault critical
// path, with no data movement and no TLB invalidation (per-page
// translations are unchanged, so stale small entries stay correct).
//
// The inverse, *splintering*, expands a large mapping back into per-page
// PTEs when only part of the region must go — eviction pressure on a
// subset of its chunks, or a departing fleet job's teardown. Splintering
// invalidates the large TLB entries (the 2 MB translation disappears)
// through registered LargeShootdownHandlers, but the frames stay put, so
// the per-page translations the small TLBs may still hold remain valid.
//
// Never instantiated when --large-pages is off: default runs carry no
// scan events, no trace records and no behavioural change.
#pragma once

#include <vector>

#include "common/config.hpp"
#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/event_queue.hpp"
#include "tlb/page_table.hpp"
#include "uvm/chain_set.hpp"
#include "uvm/driver_types.hpp"

namespace uvmsim {

class LargeFrameManager {
 public:
  LargeFrameManager(EventQueue& eq, const SystemConfig& sys, PageTable& pt,
                    ChainSet& chains, DriverStats& stats)
      : eq_(eq),
        scan_delay_(sys.coalesce_delay_cycles()),
        pt_(pt),
        chains_(chains),
        stats_(stats) {}

  LargeFrameManager(const LargeFrameManager&) = delete;
  LargeFrameManager& operator=(const LargeFrameManager&) = delete;

  void set_recorder(FlightRecorder* rec) noexcept { rec_ = rec; }
  /// Register a large-entry TLB shootdown observer (one per GPU). Fired on
  /// splinter and on whole-frame eviction — whenever the 2 MB mapping of a
  /// region disappears. The handle removes this handler when the observing
  /// GPU is destroyed before the manager (fleet job teardown).
  u64 add_shootdown_handler(LargeShootdownHandler h) {
    const u64 handle = next_handle_++;
    shootdowns_.emplace_back(handle, std::move(h));
    return handle;
  }
  /// Remove a handler by handle; unknown handles are a no-op.
  void remove_shootdown_handler(u64 handle) {
    for (std::size_t i = 0; i < shootdowns_.size(); ++i) {
      if (shootdowns_[i].first == handle) {
        shootdowns_.erase(shootdowns_.begin() + static_cast<long>(i));
        return;
      }
    }
  }

  /// Is `l` currently backed by one large mapping? The page table is the
  /// single source of truth.
  [[nodiscard]] bool coalesced(LargeId l) const { return pt_.large_mapped(l); }

  /// Queue a deferred coalesce scan of `l` (deduplicated): runs
  /// coalesce_delay_us later, keeping the candidacy walk off the fault
  /// path that noticed the region went fully-touched.
  void schedule_scan(LargeId l);

  /// Scan `l` now; promote and return true when the region qualifies.
  bool try_coalesce(LargeId l);

  /// Expand `l` back into per-page mappings and drop the stale 2 MB TLB
  /// entries. Frames stay put; small-page translations remain valid.
  void splinter(LargeId l, SplinterReason reason);

  /// Fan out the large-entry shootdown without demoting — the whole-frame
  /// eviction path (EvictionEngine) unmaps the large entry itself.
  void shootdown_large(LargeId l) {
    for (const auto& [handle, h] : shootdowns_) h(l);
  }

  [[nodiscard]] u64 pending_scans() const noexcept { return pending_.size(); }

 private:
  /// Candidacy walk: every chunk resident+touched in full, unpinned, not
  /// already coalesced, and the 512 frames contiguous from an aligned base
  /// (returned through `base_out`).
  [[nodiscard]] bool candidate(LargeId l, FrameId& base_out) const;

  EventQueue& eq_;
  Cycle scan_delay_;
  PageTable& pt_;
  ChainSet& chains_;
  DriverStats& stats_;
  FlightRecorder* rec_ = nullptr;
  std::vector<std::pair<u64, LargeShootdownHandler>> shootdowns_;
  u64 next_handle_ = 0;
  FlatSet<LargeId> pending_;  ///< regions with a scan already queued
};

}  // namespace uvmsim
