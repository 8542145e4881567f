// EvictionEngine: room-making. Drives the eviction policy's victim
// selection (batched through EvictionPolicy::select_victims), unmaps and
// recycles the victims' frames, issues TLB/cache shootdowns, reserves D2H
// write-back occupancy and keeps the eviction statistics. Serves both
// demand eviction (make room for an admitted plan, on the fault's critical
// path) and pre-eviction (restore the free-frame watermark ahead of need).
//
// Multi-tenant victim sourcing (docs/multitenancy.md): room is made on
// behalf of an *initiator* tenant, and the sharing mode decides whose
// chunks may be evicted —
//   shared + global scope   the single global policy, unrestricted (legacy);
//   shared + self scope     the initiator's own chunks first (filtered
//                           selection on the shared chain), global fallback;
//   partitioned             only the initiator's own per-tenant chain —
//                           quotas make its own chunks the only way to gain
//                           admissible frames;
//   quota                   over-quota tenants first (largest overage,
//                           then lowest id), then the initiator itself,
//                           then the largest remaining holder.
// Cross-tenant evictions are attributed to both sides in TenantStats.
#pragma once

#include <functional>
#include <vector>

#include "mem/bandwidth_link.hpp"
#include "obs/flight_recorder.hpp"
#include "policy/eviction_policy.hpp"
#include "prefetch/prefetcher.hpp"
#include "sim/event_queue.hpp"
#include "tenancy/tenant.hpp"
#include "tlb/page_table.hpp"
#include "uvm/chain_set.hpp"
#include "uvm/driver_types.hpp"
#include "uvm/fabric_port.hpp"
#include "uvm/frame_pool.hpp"

namespace uvmsim {

class LargeFrameManager;

class EvictionEngine {
 public:
  EvictionEngine(EventQueue& eq, ChainSet& chains, PageTable& pt,
                 FramePool& frames, Cycle pcie_page_cycles, DriverStats& stats)
      : eq_(eq), chains_(chains), pt_(pt), frames_(frames),
        d2h_(pcie_page_cycles), stats_(stats) {}

  EvictionEngine(const EvictionEngine&) = delete;
  EvictionEngine& operator=(const EvictionEngine&) = delete;

  void set_prefetcher(Prefetcher* p) noexcept { prefetcher_ = p; }
  /// Register a shootdown observer. Every GPU sharing the driver registers
  /// its own (multi-tenant runs have one Gpu per tenant); all fire per
  /// unmapped page, in registration order. The returned handle removes
  /// exactly this handler later — fleet runs destroy each job's Gpu while
  /// the driver lives on, so a departing GPU must unhook itself.
  u64 add_shootdown_handler(ShootdownHandler h) {
    const u64 handle = next_handle_++;
    shootdowns_.emplace_back(handle, std::move(h));
    return handle;
  }
  /// Remove a handler by its registration handle; unknown handles are a
  /// no-op (the handler may already be gone with its engine rebuild).
  void remove_shootdown_handler(u64 handle) {
    for (std::size_t i = 0; i < shootdowns_.size(); ++i) {
      if (shootdowns_[i].first == handle) {
        shootdowns_.erase(shootdowns_.begin() + static_cast<long>(i));
        return;
      }
    }
  }
  /// Legacy single-observer form: replaces all registered handlers.
  void set_shootdown_handler(ShootdownHandler h) {
    shootdowns_.clear();
    (void)add_shootdown_handler(std::move(h));
  }
  void set_recorder(FlightRecorder* rec) noexcept { rec_ = rec; }
  /// Multi-tenant wiring (tenancy off when table is null).
  void set_tenancy(TenantTable* table, TenantMode mode, EvictionScope scope) {
    tenants_ = table;
    mode_ = mode;
    scope_ = scope;
  }
  /// Multi-GPU wiring: evictions notify the fabric, which shoots the page
  /// down on the devices that read it remotely.
  void set_fabric(FabricPort* fabric, u32 device) noexcept {
    fabric_ = fabric;
    device_ = device;
  }
  /// Large-pages wiring (docs/memory.md): victims inside a coalesced 2 MB
  /// frame either take the whole frame out as one bulk DMA (every sibling
  /// chunk cold and unpinned) or splinter it first and evict just the cold
  /// part. `bulk_dma_percent` is the per-page D2H occupancy of the bulk
  /// transfer relative to scattered page copies (SystemConfig).
  void set_large_manager(LargeFrameManager* lfm, u32 bulk_dma_percent) noexcept {
    lfm_ = lfm;
    bulk_dma_percent_ = bulk_dma_percent;
  }

  /// Record and fan out one page's TLB/cache shootdown (also used by the
  /// driver when a departing tenant's pages are torn down).
  void shootdown(PageId p, FrameId f) {
    record_event(rec_, EventType::kShootdownIssued, p, f);
    for (const auto& [handle, h] : shootdowns_) h(p, f);
  }

  [[nodiscard]] const BandwidthLink& d2h() const noexcept { return d2h_; }

  struct RoomResult {
    u64 evicted = 0;     ///< chunks evicted by this call
    /// Stopped early: every candidate chunk is pinned, or a whole round of
    /// evictions freed no frames admissible to the initiator (the
    /// non-progress guard against livelocking on an at-quota initiator).
    bool starved = false;
  };

  /// Evict until at least `target_free_pages` frames are *admissible* to
  /// `initiator` (plain free frames when tenancy is off), asking the
  /// mode-selected policy for up to ceil(deficit / chunk) victims per
  /// round. Candidates beyond the target are discarded unused (selection
  /// has no side effects); `starved` is set when every admissible source
  /// runs out of unpinned victims first, or when a round of evictions
  /// fails to raise the initiator's admissible-frame count at all.
  RoomResult make_room(u64 target_free_pages, TenantId initiator = kNoTenant);

 private:
  void evict_chunk(ChunkId victim, TenantId initiator);
  /// Every chunk of coalesced region `l` cold (no touch in the current or
  /// previous interval) and unpinned?
  [[nodiscard]] bool whole_frame_evictable(LargeId l) const;
  /// Evict all kLargeChunks chunks of coalesced region `l` as ONE eviction
  /// operation: one bulk D2H DMA, one large-entry shootdown, per-chunk
  /// policy/pattern notifications.
  void evict_large_frame(LargeId l, TenantId initiator);
  /// One selection round for the current mode; empty when starved.
  [[nodiscard]] std::vector<ChunkId> select_round(u64 max_victims,
                                                  TenantId initiator);
  /// Victim-source domain order for per-tenant-chain modes.
  [[nodiscard]] std::vector<TenantId> source_order(TenantId initiator) const;

  EventQueue& eq_;
  ChainSet& chains_;
  PageTable& pt_;
  FramePool& frames_;
  BandwidthLink d2h_;  ///< device -> host eviction write-backs
  DriverStats& stats_;
  Prefetcher* prefetcher_ = nullptr;
  std::vector<std::pair<u64, ShootdownHandler>> shootdowns_;
  u64 next_handle_ = 0;
  FlightRecorder* rec_ = nullptr;
  TenantTable* tenants_ = nullptr;
  TenantMode mode_ = TenantMode::kShared;
  EvictionScope scope_ = EvictionScope::kGlobal;
  FabricPort* fabric_ = nullptr;
  u32 device_ = kHostDevice;
  LargeFrameManager* lfm_ = nullptr;  ///< null when --large-pages is off
  u32 bulk_dma_percent_ = 100;
};

}  // namespace uvmsim
