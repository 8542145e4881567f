// GpuDrivenBackend: GPUVM-style GPU-driven paging (arXiv 2411.05309).
//
// Instead of funnelling every far fault through a host round trip, each SM
// appends its faults to a bounded memory-resident queue and rings a
// doorbell; a GPU-resident handler wakes, drains the queues round-robin
// (doorbell coalescing: one wakeup serves every fault queued by then) and
// manipulates the page tables itself. The model charges:
//
//   pickup    gpu_doorbell_us, once per handler wakeup
//   service   gpu_fault_service_us per fault in the pickup
//   eviction  evict_service_us per synchronous demand eviction (unchanged)
//
// all serialized on handler occupancy — a burst of concurrent batches
// queues behind the single handler instead of overlapping host round
// trips, which is exactly the contention GPUVM measures at high fault
// rates. A raise that finds its SM queue full counts a queue-full stall
// and overflows to a spill list drained as slots free (the faulting warp
// is parked either way; the stall is visible in stats and the trace).
//
// Batch formation keeps the seam's contract: tenant-homogeneous batches,
// absorbed entries discarded, trimmed leads requeued with priority.
// Everything is deterministic — queue order and the round-robin cursor are
// pure functions of the event stream.
#pragma once

#include <deque>
#include <vector>

#include "common/config.hpp"
#include "common/dense_id_map.hpp"
#include "faultsvc/fault_backend.hpp"

namespace uvmsim {

class GpuDrivenBackend final : public FaultServiceBackend {
 public:
  GpuDrivenBackend(const SystemConfig& sys, const PolicyConfig& pol,
                   u64 footprint_pages);

  [[nodiscard]] FaultBackendKind kind() const noexcept override {
    return FaultBackendKind::kGpuDriven;
  }

  bool coalesce(PageId p, WakeCallback&& wake) override;
  void raise(PageId p, u32 sm, WakeCallback&& wake, Cycle now) override;
  [[nodiscard]] bool pending(PageId p) const override {
    return pending_.contains(p);
  }
  [[nodiscard]] u64 queued() const override;
  [[nodiscard]] std::vector<PageId> take_batch(
      const TenantTable* tenants) override;
  [[nodiscard]] PendingFault extract(PageId p) override;
  void requeue_front(PageId p) override;

  Cycle reserve_service(Cycle now, PageId lead, u32 faults,
                        u64 demand_evictions) override;

  /// Cycle the handler frees up (testing/introspection).
  [[nodiscard]] Cycle handler_free_at() const noexcept { return handler_free_; }

 private:
  struct Overflow {
    PageId page;
    u32 queue;
  };

  /// Move overflowed faults into their SM queues while slots are free.
  void refill_from_overflow();
  /// Pop the front of `dq` into `batch` if it is still pending and
  /// tenant-compatible; discards absorbed entries. Returns true when an
  /// entry was taken.
  bool drain_one(std::deque<PageId>& dq, std::vector<PageId>& batch,
                 const TenantTable* tenants, TenantId& batch_tenant);

  u32 window_;       ///< faults drained per handler pickup (--fault-batch)
  u32 queue_depth_;  ///< per-SM bounded queue entries
  Cycle per_fault_cycles_;
  Cycle doorbell_cycles_;
  Cycle evict_service_cycles_;
  Cycle handler_free_ = 0;  ///< handler occupancy horizon

  /// Faults raised but not yet covered by a migration plan (page -> entry).
  DenseIdMap<PendingFault> pending_;
  std::vector<std::deque<PageId>> queues_;  ///< one bounded queue per SM
  std::deque<Overflow> overflow_;           ///< raises that found a full queue
  std::deque<PageId> priority_;             ///< requeued leads, drained first
  u32 cursor_ = 0;                          ///< round-robin drain position
};

}  // namespace uvmsim
