// MigrationScheduler: the in-flight half of the fault-service pipeline.
// Owns the driver-concurrency slots, the in-flight page set (with the warps
// waiting on each page), the H2D link, and the timing model of a service
// operation: 20 us fault service, lengthened by synchronous eviction work,
// then PCIe occupancy. On completion it binds frames, fills the chunk
// chain, advances the interval clock and wakes the stalled warps, then
// hands control back to the driver facade (pre-eviction + admission of the
// next batch) through the completion hook.
//
// Multi-tenant runs: batches are tenant-homogeneous, so completion fills
// the batch tenant's own chain/policy domain (its own interval clock) and
// reports the per-tenant migration statistics; the completion hook carries
// the tenant so the facade can scope pre-eviction.
#pragma once

#include <functional>
#include <vector>

#include "common/config.hpp"
#include "common/dense_id_map.hpp"
#include "mem/bandwidth_link.hpp"
#include "obs/flight_recorder.hpp"
#include "policy/eviction_policy.hpp"
#include "sim/event_queue.hpp"
#include "tenancy/tenant.hpp"
#include "tlb/page_table.hpp"
#include "uvm/chain_set.hpp"
#include "uvm/driver_types.hpp"
#include "uvm/fabric_port.hpp"
#include "uvm/frame_pool.hpp"

namespace uvmsim {

class FaultServiceBackend;
class LargeFrameManager;

class MigrationScheduler {
 public:
  /// Migrates pages [0, footprint_pages) into `frames`, mapping them in `pt`.
  MigrationScheduler(EventQueue& eq, const SystemConfig& sys,
                     const PolicyConfig& pol, u64 footprint_pages,
                     FramePool& frames, PageTable& pt, ChainSet& chains,
                     DriverStats& stats);

  MigrationScheduler(const MigrationScheduler&) = delete;
  MigrationScheduler& operator=(const MigrationScheduler&) = delete;

  void set_recorder(FlightRecorder* rec) noexcept { rec_ = rec; }
  void set_tenant_table(TenantTable* table) noexcept { tenants_ = table; }
  /// Multi-GPU wiring: peer batches reserve fabric (not H2D) occupancy, and
  /// completions maintain the fabric directory.
  void set_fabric(FabricPort* fabric, u32 device) noexcept {
    fabric_ = fabric;
    device_ = device;
  }
  /// Large-pages wiring: completions bind frames through the slot-binding
  /// allocator and queue a coalesce scan when a chunk goes fully-touched.
  void set_large_manager(LargeFrameManager* lfm) noexcept { lfm_ = lfm; }
  /// Fault-service backend wiring (src/faultsvc): dispatch charges service
  /// time through the backend's timing model. Without one (bare scheduler
  /// unit tests) the classic host charge applies.
  void set_backend(FaultServiceBackend* backend) noexcept {
    backend_ = backend;
  }
  /// Runs after each completed batch (driver facade: pre-evict, release the
  /// slot, admit the next batch) with the batch's tenant; `peer` marks peer
  /// fetches, which never held a driver slot.
  void set_completion_hook(std::function<void(TenantId, bool)> hook) {
    hook_ = std::move(hook);
  }

  // --- Driver-concurrency slots --------------------------------------------
  [[nodiscard]] bool has_free_slot() const noexcept {
    return active_migrations_ < max_concurrent_migrations_;
  }
  void acquire_slot() noexcept { ++active_migrations_; }
  void release_slot() noexcept { --active_migrations_; }

  // --- In-flight page set ---------------------------------------------------
  [[nodiscard]] bool in_flight(PageId p) const { return inflight_.contains(p); }
  /// A fault hit a page whose migration is already underway: coalesce.
  void add_waiter(PageId p, WakeCallback&& wake) {
    inflight_.at(p).waiters.push_back(std::move(wake));
  }
  /// Mark a planned page in flight, absorbing its pending fault (if any):
  /// the waiters ride this migration.
  void mark_in_flight(PageId p, PendingFault&& pf) {
    inflight_.try_emplace(p, std::move(pf));
  }

  /// Append `plan` to `merged`, deduplicating across the batch's plans.
  static void merge_plan(std::vector<PageId>& merged, const std::vector<PageId>& plan);

  /// Admit a formed batch: charge fault service + synchronous eviction work,
  /// reserve H2D occupancy and schedule completion.
  void dispatch(MigrationBatch&& m, u64 demand_evictions);

  [[nodiscard]] const BandwidthLink& h2d() const noexcept { return h2d_; }

 private:
  void complete(MigrationBatch m);

  EventQueue& eq_;
  FramePool& frames_;
  PageTable& pt_;
  ChainSet& chains_;
  DriverStats& stats_;
  BandwidthLink h2d_;  ///< host -> device page migrations
  Cycle fault_latency_cycles_;
  Cycle evict_service_cycles_;
  u32 fault_batch_;  ///< batch window (events gated on > 1)
  u32 active_migrations_ = 0;
  u32 max_concurrent_migrations_;  ///< PolicyConfig::driver_concurrency

  /// page -> warps waiting for it (migration underway).
  DenseIdMap<PendingFault> inflight_;
  FlightRecorder* rec_ = nullptr;
  TenantTable* tenants_ = nullptr;
  FabricPort* fabric_ = nullptr;
  u32 device_ = kHostDevice;
  LargeFrameManager* lfm_ = nullptr;  ///< null when --large-pages is off
  FaultServiceBackend* backend_ = nullptr;  ///< service-timing seam
  std::function<void(TenantId, bool)> hook_;
};

}  // namespace uvmsim
