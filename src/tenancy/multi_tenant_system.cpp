#include "tenancy/multi_tenant_system.hpp"

#include <algorithm>
#include <cassert>

namespace uvmsim {

MultiTenantSystem::MultiTenantSystem(const SystemConfig& sys,
                                     const PolicyConfig& pol,
                                     const std::vector<const Workload*>& workloads,
                                     double oversub, TenantMode mode,
                                     EvictionScope scope)
    : sys_cfg_(sys), pol_cfg_(pol), oversub_(oversub), mode_(mode) {
  assert(!workloads.empty());
  const u64 n = workloads.size();
  sms_per_tenant_ = std::max<u32>(1, sys_cfg_.num_sms / static_cast<u32>(n));

  // Carve the disjoint namespaces and size the shared pool off the combined
  // footprint. The capacity floor scales with the tenant count so every
  // tenant's quota can hold at least the admission-pinning minimum
  // (UvmSystem's deadlock-freedom argument, per tenant).
  u64 total_footprint = 0;
  for (const Workload* w : workloads) {
    table_.add(w->abbr(), w->footprint_pages());
    total_footprint += w->footprint_pages();
  }
  stack_ = make_device_stack(
      eq_, sys_cfg_, pol_cfg_, table_.span_pages(),
      oversub_capacity(total_footprint, oversub, n * 16 * kChunkPages),
      {&table_, mode, scope});

  // One Gpu per tenant on its SM slice. Warp seeds stay pol.seed-derived as
  // in the solo run, so a tenant's access streams match its solo behaviour.
  SystemConfig tenant_cfg = sys_cfg_;
  tenant_cfg.num_sms = sms_per_tenant_;
  for (u64 t = 0; t < n; ++t) {
    offset_workloads_.push_back(std::make_unique<OffsetWorkload>(
        *workloads[t], table_.info(static_cast<TenantId>(t)).base));
    gpus_.push_back(std::make_unique<Gpu>(eq_, tenant_cfg, driver(),
                                          *offset_workloads_.back(),
                                          pol_cfg_.seed));
  }
}

MultiTenantSystem::~MultiTenantSystem() = default;

RunResult MultiTenantSystem::run(Cycle max_cycles) {
  for (auto& g : gpus_) g->launch();
  eq_.run(max_cycles);

  UvmDriver& drv = driver();
  RunResult r;
  for (u64 t = 0; t < table_.size(); ++t) {
    if (!r.workload.empty()) r.workload += '+';
    r.workload += table_.info(static_cast<TenantId>(t)).name;
  }
  r.oversub = oversub_;
  r.capacity_pages = drv.capacity_pages();
  r.tenant_mode = std::string(to_string(mode_));
  harvest_identity(r, drv);
  harvest_driver(r, drv);
  harvest_queue(r, eq_);

  r.completed = true;
  Cycle last_finish = 0;
  for (u64 t = 0; t < table_.size(); ++t) {
    const TenantId id = static_cast<TenantId>(t);
    const TenantInfo& info = table_.info(id);
    const Gpu& g = *gpus_[t];
    r.footprint_pages += info.footprint_pages;

    TenantRunResult tr;
    tr.id = id;
    tr.workload = info.name;
    tr.footprint_pages = info.footprint_pages;
    tr.quota_frames = mode_ == TenantMode::kShared ? 0 : info.quota_frames;
    tr.completed = g.finished();
    tr.finish_cycle = g.finished() ? g.finish_cycle() : eq_.now();
    tr.stats = info.stats;
    r.tenants.push_back(std::move(tr));

    r.completed = r.completed && g.finished();
    last_finish = std::max(last_finish, r.tenants.back().finish_cycle);

    r.gpu += g.stats();
  }
  r.cycles = r.completed ? last_finish : eq_.now();
  r.h2d_utilisation = drv.h2d().utilisation(r.cycles);
  for (u64 d = 0; d < drv.chains().domains(); ++d)
    r.final_chain_length += drv.chains().chain(d).size();
  r.trace_events_recorded = recorder().events_recorded();
  recorder().flush();
  return r;
}

}  // namespace uvmsim
