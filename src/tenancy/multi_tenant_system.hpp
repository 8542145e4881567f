// MultiTenantSystem: N workloads co-scheduled on one shared memory system.
//
// The multi-tenant sibling of UvmSystem (core/uvm_system.hpp): one
// EventQueue, one UvmDriver (one FramePool, one pair of PCIe links, one
// prefetcher) serving every tenant, and one Gpu instance per tenant running
// its workload on a spatial slice of the SMs (num_sms / N each, at least
// one). Tenant namespaces are disjoint (OffsetWorkload + TenantTable), so
// all driver state is keyed unambiguously; the sharing mode decides how
// frames and victim selection are split (tenancy/tenant.hpp).
//
// The memory system below the driver is fully shared — frame pool, H2D/D2H
// links, fault-service slots; each tenant's Gpu keeps its own TLBs, caches
// and DRAM timing (spatial partitioning: interference is modelled in the
// memory-management layer this repo studies, not in DRAM banking).
//
// run() drives all tenants to completion and returns one RunResult whose
// `tenants` vector carries the per-tenant slices. Slowdown-vs-solo and the
// Jain index are filled in by the caller once solo baselines exist
// (tenancy/fairness.hpp), since solos are independent runs.
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "core/device_stack.hpp"
#include "core/uvm_system.hpp"
#include "gpu/gpu.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/event_queue.hpp"
#include "tenancy/offset_workload.hpp"
#include "tenancy/tenant.hpp"
#include "uvm/driver.hpp"

namespace uvmsim {

class MultiTenantSystem {
 public:
  /// `workloads` are borrowed for the system's lifetime. `oversub` is the
  /// fraction of the *combined* footprint that fits in device memory.
  MultiTenantSystem(const SystemConfig& sys, const PolicyConfig& pol,
                    const std::vector<const Workload*>& workloads,
                    double oversub, TenantMode mode,
                    EvictionScope scope = EvictionScope::kGlobal);
  ~MultiTenantSystem();

  MultiTenantSystem(const MultiTenantSystem&) = delete;
  MultiTenantSystem& operator=(const MultiTenantSystem&) = delete;

  /// Simulate until every tenant's warps finish (or `max_cycles`).
  [[nodiscard]] RunResult run(
      Cycle max_cycles = std::numeric_limits<Cycle>::max());

  [[nodiscard]] u64 num_tenants() const noexcept { return table_.size(); }
  [[nodiscard]] const TenantTable& tenants() const noexcept { return table_; }
  [[nodiscard]] UvmDriver& driver() noexcept { return *stack_.driver; }
  [[nodiscard]] Gpu& gpu(TenantId t) noexcept { return *gpus_[t]; }
  [[nodiscard]] EventQueue& queue() noexcept { return eq_; }
  [[nodiscard]] FlightRecorder& recorder() noexcept { return *stack_.recorder; }
  /// SMs each tenant's Gpu runs on — the solo-baseline run must use the
  /// same count for slowdown to isolate memory interference.
  [[nodiscard]] u32 sms_per_tenant() const noexcept { return sms_per_tenant_; }

 private:
  SystemConfig sys_cfg_;
  PolicyConfig pol_cfg_;
  double oversub_;
  TenantMode mode_;
  u32 sms_per_tenant_ = 1;

  EventQueue eq_;
  TenantTable table_;
  std::vector<std::unique_ptr<OffsetWorkload>> offset_workloads_;
  DeviceStack stack_;
  std::vector<std::unique_ptr<Gpu>> gpus_;
};

}  // namespace uvmsim
