#include "core/device_stack.hpp"

#include <algorithm>
#include <cmath>

#include "core/policy_factory.hpp"
#include "core/uvm_system.hpp"

namespace uvmsim {

DeviceStack make_device_stack(EventQueue& eq, const SystemConfig& sys,
                              const PolicyConfig& pol, u64 span_pages,
                              u64 capacity_pages, const StackTenancy& tenancy,
                              u32 device) {
  DeviceStack s;
  s.recorder = std::make_unique<FlightRecorder>(eq);
  if (device != kNoTraceDevice) s.recorder->set_device(device);
  if (tenancy.table != nullptr) s.recorder->set_tenant_table(tenancy.table);

  s.driver = std::make_unique<UvmDriver>(eq, sys, pol, span_pages,
                                         capacity_pages);
  UvmDriver& drv = *s.driver;
  drv.set_recorder(s.recorder.get());
  if (tenancy.table != nullptr)
    drv.configure_tenancy(tenancy.table, tenancy.mode, tenancy.scope);

  // Shared mode keeps the single domain-0 policy; partitioned/quota get one
  // policy instance per tenant chain (stateful policies run per tenant).
  if (tenancy.table == nullptr || tenancy.mode == TenantMode::kShared) {
    drv.set_policy(make_eviction_policy(pol, drv.chain()));
  } else {
    for (u64 d = 0; d < tenancy.table->size(); ++d)
      drv.set_domain_policy(d, make_eviction_policy(pol, drv.chains().chain(d)));
  }
  drv.set_prefetcher(make_prefetcher(pol));
  return s;
}

u64 oversub_capacity(u64 footprint, double oversub, u64 floor_pages,
                     u32 devices) {
  const double share = oversub * static_cast<double>(footprint) /
                       static_cast<double>(devices);
  return std::max<u64>(
      floor_pages, std::min<u64>(footprint, static_cast<u64>(std::ceil(share))));
}

void harvest_identity(RunResult& r, UvmDriver& drv) {
  r.eviction_name = drv.policy().name();
  r.prefetcher_name = drv.prefetcher().name();
  r.large_pages = drv.large_pages_enabled();
  r.fault_backend = drv.fault_backend().name();
  r.gpu_fault_backend = drv.fault_backend_kind() == FaultBackendKind::kGpuDriven;
}

void harvest_driver(RunResult& r, UvmDriver& drv) {
  r.driver += drv.stats();
  r.faultsvc += drv.backend_stats();
  r.h2d_pages += drv.h2d().units_moved();
  r.d2h_pages += drv.d2h().units_moved();
  r.sim.chain_slab_capacity += drv.chains().total_slab_capacity();
  r.sim.page_table_capacity += drv.page_table().table_capacity();
  r.sim.page_table_load =
      std::max(r.sim.page_table_load, drv.page_table().load_factor());
}

void harvest_queue(RunResult& r, const EventQueue& q) {
  r.clamped_past += q.clamped_past();
  r.sim.events_executed += q.executed();
  r.sim.event_heap_peak += q.peak_pending();
  r.sim.event_heap_capacity += q.heap_capacity();
  r.sim.oversize_events += q.oversize_events();
}

void harvest_engine(RunResult& r, const ShardedEngine& engine) {
  for (u32 s = 0; s < engine.num_shards(); ++s) harvest_queue(r, engine.queue(s));
  if (engine.num_shards() < 2) return;
  EngineRunStats& e = r.engine_stats;
  const EngineStats& es = engine.stats();
  e.sharded = true;
  e.shards = engine.num_shards();
  e.threads = engine.threads();
  e.lookahead_cycles = engine.lookahead();
  e.windows = es.windows;
  e.messages = es.messages;
  e.stall_windows = es.stall_windows;
  e.barrier_waits = es.barrier_waits;
  e.max_skew = es.max_skew;
}

}  // namespace uvmsim
