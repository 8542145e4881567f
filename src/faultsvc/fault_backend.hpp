// FaultServiceBackend: the pluggable fault-service seam (docs/faultsvc.md).
//
// Two things define a fault-service implementation: how raised faults are
// queued and formed into service batches (the intake half), and how long
// the driver-side service work of an admitted batch takes (the timing
// half). The seam covers both, so UvmDriver and MigrationScheduler stay
// backend-agnostic:
//
//   HostDriverBackend  the paper's model — one FIFO backlog drained through
//                      FaultBatcher windows, every batch charged the fixed
//                      host round trip (fault_latency_us). Byte-identical
//                      to the pre-seam driver.
//   GpuDrivenBackend   GPUVM (arXiv 2411.05309) — per-SM bounded fault
//                      queues feeding a GPU-resident handler with a much
//                      smaller per-fault cost; bursts serialize on handler
//                      occupancy instead of paying the round trip each.
//
// Batch formation keeps FaultBatcher's contract: tenant-homogeneous
// batches, absorbed entries skipped, trimmed leads requeued at the front.
#pragma once

#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/counters.hpp"
#include "common/types.hpp"
#include "obs/flight_recorder.hpp"
#include "tenancy/tenant.hpp"
#include "uvm/driver_types.hpp"

namespace uvmsim {

/// Backend-side counters. All zero under the host backend, so surfacing
/// them stays additive (JSON keys and report rows are gated on the
/// GPU-driven backend; docs/faultsvc.md). SUM fields add across devices,
/// MAX fields keep the largest.
#define UVMSIM_FAULT_BACKEND_STATS(SUM, MAX)                                 \
  SUM(faults_enqueued)     /* raises that entered a per-SM queue */        \
  SUM(queue_full_stalls)   /* raises that found their SM queue full */     \
  SUM(handler_pickups)     /* doorbell-coalesced handler wakeups */        \
  SUM(handler_busy_cycles) /* total handler occupancy charged */           \
  MAX(max_queue_depth)     /* high-water mark over all SM queues */

struct FaultBackendStats {
  UVMSIM_FAULT_BACKEND_STATS(UVMSIM_COUNTER_FIELD, UVMSIM_COUNTER_FIELD)

  FaultBackendStats& operator+=(const FaultBackendStats& o) noexcept {
    UVMSIM_FAULT_BACKEND_STATS(UVMSIM_COUNTER_ADD, UVMSIM_COUNTER_MAX)
    return *this;
  }
};

class FaultServiceBackend {
 public:
  virtual ~FaultServiceBackend() = default;

  [[nodiscard]] virtual FaultBackendKind kind() const noexcept = 0;
  [[nodiscard]] const char* name() const noexcept { return to_string(kind()); }

  // --- Intake (FaultBatcher's contract) -------------------------------------
  /// A fault for an already-raised page: attach the waiter, no new entry.
  /// Returns false when the page has no pending fault (caller must raise).
  virtual bool coalesce(PageId p, WakeCallback&& wake) = 0;
  /// Raise a new fault from SM `sm` (0 when the source SM is unknown —
  /// fabric forwards and direct driver calls).
  virtual void raise(PageId p, u32 sm, WakeCallback&& wake, Cycle now) = 0;
  [[nodiscard]] virtual bool pending(PageId p) const = 0;
  /// Faults raised and backlogged, including entries already absorbed.
  [[nodiscard]] virtual u64 queued() const = 0;
  /// Form the next service batch (tenant-homogeneous when a table is
  /// attached; absorbed entries are discarded as they are encountered).
  [[nodiscard]] virtual std::vector<PageId> take_batch(
      const TenantTable* tenants) = 0;
  /// Absorb `p` into a migration plan: remove and return its pending entry
  /// (empty default when the page was planned purely as a prefetch).
  [[nodiscard]] virtual PendingFault extract(PageId p) = 0;
  /// A still-pending lead fault was trimmed out of an admitted plan: put it
  /// back so it is serviced next.
  virtual void requeue_front(PageId p) = 0;

  // --- Timing ---------------------------------------------------------------
  /// Charge the driver-side service work of an admitted batch (`faults`
  /// lead faults, `demand_evictions` synchronous chunk evictions) starting
  /// at `now`; returns the cycle the service completes and the transfer may
  /// begin. `lead` is the batch's lead page (event payloads only).
  virtual Cycle reserve_service(Cycle now, PageId lead, u32 faults,
                                u64 demand_evictions) = 0;

  void set_recorder(FlightRecorder* rec) noexcept { rec_ = rec; }
  [[nodiscard]] const FaultBackendStats& backend_stats() const noexcept {
    return bstats_;
  }

 protected:
  FlightRecorder* rec_ = nullptr;
  FaultBackendStats bstats_;
};

/// Build the backend SystemConfig::fault_backend selects, for faults on
/// pages [0, footprint_pages).
[[nodiscard]] std::unique_ptr<FaultServiceBackend> make_fault_backend(
    const SystemConfig& sys, const PolicyConfig& pol, u64 footprint_pages);

}  // namespace uvmsim
