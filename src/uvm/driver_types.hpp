// Shared vocabulary of the layered fault-service pipeline (FramePool,
// FaultBatcher, EvictionEngine, MigrationScheduler — see
// docs/architecture.md). Kept in one small header so the layers can talk
// about faults, batches and statistics without including each other.
#pragma once

#include <functional>
#include <vector>

#include "common/counters.hpp"
#include "common/inline_function.hpp"
#include "common/types.hpp"
#include "tlb/page_table.hpp"  // FrameId

namespace uvmsim {

/// Fires when a faulted page has become resident (warp replay point).
/// Deliberately the same type as EventQueue::Callback: a wake moved into
/// schedule_at() relocates instead of re-wrapping, and the per-fault
/// `[this, sm, warp, page]` capture stays inline (move-only, no heap).
using WakeCallback = InlineFunction<void(), kCallbackInlineBytes>;

/// Device id meaning "the host" as a migration source/destination (also the
/// single-GPU default everywhere a device id appears in the driver stack).
inline constexpr u32 kHostDevice = ~u32{0};

/// TLB/cache shootdown hook, invoked for every page unmapped by an eviction
/// with the physical frame it occupied (caches are physically indexed).
using ShootdownHandler = std::function<void(PageId, FrameId)>;

/// 2 MB-entry TLB shootdown hook (large-pages mode): invoked when a region's
/// large mapping disappears — splinter or whole-frame eviction — so the
/// large TLB sub-arrays drop the now-stale entry. Per-page translations are
/// unaffected by a pure splinter (the frames stay put).
using LargeShootdownHandler = std::function<void(LargeId)>;

/// A raised-but-unserviced (or in-flight) far fault: the warps waiting on
/// the page, plus when the first fault for it was raised (post-coalescing),
/// which feeds the fault-service-latency statistic.
struct PendingFault {
  std::vector<WakeCallback> waiters;
  Cycle raised_at = 0;
  bool faulted = false;  ///< true when this entry stems from a raised fault
};

/// One driver service operation: the merged migration plan of a batch of
/// faults. `pages[0..faults)` are the faulted (lead) pages, in batch order —
/// plan trimming works from the back, so leads are dropped last.
struct MigrationBatch {
  std::vector<PageId> pages;
  std::vector<ChunkId> pinned;  ///< one entry per pin placed at service time
  PageId lead = 0;              ///< first faulted page (event payloads)
  u32 faults = 1;               ///< distinct faults serviced by this operation
  Cycle formed_at = 0;          ///< cycle the batch entered service
  /// Owning tenant — batches are tenant-homogeneous (FaultBatcher stops a
  /// batch at the first fault from a different tenant); kNoTenant when
  /// tenancy is off.
  TenantId tenant = kNoTenant;
  /// Where the pages come from: kHostDevice for ordinary host migrations,
  /// a peer device id for NVLink peer migrations (src/fabric). Peer batches
  /// bypass the FaultBatcher and the driver-concurrency slots.
  u32 src_device = kHostDevice;
};

/// Driver-wide counters, updated by all four layers. Multi-GPU fabric
/// counters stay zero when --gpus == 1; large-pages counters stay zero when
/// --large-pages is off.
#define UVMSIM_DRIVER_STATS(X)                                                \
  X(page_faults)          /* distinct far-fault events (post-coalescing) */ \
  X(faults_coalesced)     /* faults that joined an in-flight migration */   \
  X(pages_migrated_in)    /* total pages moved host -> device */            \
  X(pages_demanded)       /* migrated pages that had a waiting fault */     \
  X(pages_prefetched)     /* migrated pages moved speculatively */          \
  X(pages_evicted)        /* pages moved device -> host (Fig 4 metric) */   \
  X(chunks_evicted)                                                         \
  X(migration_ops)        /* driver service operations */                   \
  X(demand_evictions)     /* chunk evictions on a fault's critical path */  \
  X(pre_evictions)        /* chunk evictions performed ahead of need */     \
  /* Sum over raised faults of raise -> wake delay; divided by page_faults \
     this is the mean fault-service latency (bench/abl_fault_batch). */     \
  X(fault_wait_cycles)                                                      \
  X(remote_accesses)      /* faults satisfied by a remote NVLink access */  \
  X(peer_fetches)         /* pages migrated in from a peer device */        \
  X(spill_hopbacks)       /* peer fetches that were spill second chances */ \
  X(faults_forwarded)     /* faults routed to the page's home device */     \
  X(chunks_spilled)       /* evictions that spilled to a peer, not host */  \
  X(pages_spilled)                                                          \
  X(pages_surrendered)    /* resident pages handed to a fetching peer */    \
  X(coalesces)            /* regions promoted to a 2 MB frame */            \
  X(splinters)            /* 2 MB frames demoted back to chunks */          \
  X(large_frames_evicted) /* whole-frame evictions (one DMA each) */

struct DriverStats {
  UVMSIM_DRIVER_STATS(UVMSIM_COUNTER_FIELD)

  DriverStats& operator+=(const DriverStats& o) noexcept {
    UVMSIM_DRIVER_STATS(UVMSIM_COUNTER_ADD)
    return *this;
  }
};

}  // namespace uvmsim
