// HostDriverBackend: the classic host-serviced fault path behind the seam.
//
// Intake delegates to FaultBatcher unchanged; timing is the paper's fixed
// host round trip plus any synchronous eviction work. Every default-config
// artefact is byte-identical to the pre-seam driver — this class adds no
// state, emits no events and keeps FaultBackendStats at zero.
#pragma once

#include "common/config.hpp"
#include "faultsvc/fault_backend.hpp"
#include "uvm/fault_batcher.hpp"

namespace uvmsim {

class HostDriverBackend final : public FaultServiceBackend {
 public:
  HostDriverBackend(const SystemConfig& sys, const PolicyConfig& pol,
                    u64 footprint_pages)
      : batcher_(pol.fault_batch, footprint_pages),
        fault_latency_cycles_(sys.fault_latency_cycles()),
        evict_service_cycles_(sys.evict_service_cycles()) {}

  [[nodiscard]] FaultBackendKind kind() const noexcept override {
    return FaultBackendKind::kHostDriver;
  }

  bool coalesce(PageId p, WakeCallback&& wake) override {
    return batcher_.coalesce(p, std::move(wake));
  }
  void raise(PageId p, u32 /*sm*/, WakeCallback&& wake, Cycle now) override {
    batcher_.raise(p, std::move(wake), now);
  }
  [[nodiscard]] bool pending(PageId p) const override {
    return batcher_.pending(p);
  }
  [[nodiscard]] u64 queued() const override { return batcher_.queued(); }
  [[nodiscard]] std::vector<PageId> take_batch(
      const TenantTable* tenants) override {
    return batcher_.take_batch(tenants);
  }
  [[nodiscard]] PendingFault extract(PageId p) override {
    return batcher_.extract(p);
  }
  void requeue_front(PageId p) override { batcher_.requeue_front(p); }

  Cycle reserve_service(Cycle now, PageId /*lead*/, u32 /*faults*/,
                        u64 demand_evictions) override {
    // One fixed round trip per service operation, regardless of how many
    // faults the batch amortises it over (that amortisation is the point of
    // --fault-batch), lengthened by eviction work on the critical path.
    return now + fault_latency_cycles_ + demand_evictions * evict_service_cycles_;
  }

 private:
  FaultBatcher batcher_;
  Cycle fault_latency_cycles_;
  Cycle evict_service_cycles_;
};

}  // namespace uvmsim
