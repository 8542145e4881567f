#include "core/uvm_system.hpp"

#include "policy/adaptive.hpp"
#include "policy/mhpe.hpp"
#include "prefetch/adaptive.hpp"
#include "prefetch/pattern_aware.hpp"

namespace uvmsim {

UvmSystem::UvmSystem(const SystemConfig& sys, const PolicyConfig& pol,
                     const Workload& workload, double oversub)
    : sys_cfg_(sys), pol_cfg_(pol), workload_(workload), oversub_(oversub) {
  const u64 footprint = workload.footprint_pages();
  stack_ = make_device_stack(eq_, sys_cfg_, pol_cfg_, footprint,
                             oversub_capacity(footprint, oversub, 16 * kChunkPages));
  gpu_ = std::make_unique<Gpu>(eq_, sys_cfg_, driver(), workload_, pol_cfg_.seed);
}

RunResult UvmSystem::run(Cycle max_cycles) {
  gpu_->launch();
  eq_.run(max_cycles);

  UvmDriver& drv = driver();
  RunResult r;
  r.workload = workload_.abbr();
  r.oversub = oversub_;
  r.footprint_pages = drv.footprint_pages();
  r.capacity_pages = drv.capacity_pages();
  r.cycles = gpu_->finished() ? gpu_->finish_cycle() : eq_.now();
  r.completed = gpu_->finished();
  r.gpu = gpu_->stats();
  r.h2d_utilisation = drv.h2d().utilisation(r.cycles);
  r.final_chain_length = drv.chain().size();
  harvest_identity(r, drv);
  harvest_driver(r, drv);
  harvest_queue(r, eq_);

  if (const auto* mhpe = dynamic_cast<const MhpePolicy*>(&drv.policy())) {
    r.mhpe_used = true;
    r.mhpe_switched_to_lru = mhpe->switched_to_lru();
    r.mhpe_forward_distance = mhpe->forward_distance();
    r.mhpe_wrong_evictions = mhpe->wrong_evictions_total();
    r.untouch_history = mhpe->interval_untouch_history();
    r.wrong_buffer_capacity = mhpe->wrong_buffer_capacity();
  }
  const auto* pa = dynamic_cast<const PatternAwarePrefetcher*>(&drv.prefetcher());
  const auto* apf = dynamic_cast<const AdaptivePrefetcher*>(&drv.prefetcher());
  if (apf != nullptr) pa = &apf->inner_pattern();  // the always-learning inner buffer
  if (pa != nullptr) {
    r.pattern_buffer_peak = pa->peak_size();
    r.pattern_buffer_capacity = pa->capacity();
    r.pattern_matches = pa->matches();
    r.pattern_mismatches = pa->mismatches();
    r.pattern_capacity_evictions = pa->capacity_evictions();
  }
  if (const auto* ap = dynamic_cast<const AdaptiveEvictionPolicy*>(&drv.policy())) {
    r.adaptive_used = true;
    r.adaptive_eviction_switches = ap->strategy_switches();
    for (const auto& h : ap->classifier().history())
      r.adaptive_phase_history.emplace_back(h.at, h.phase);
    // MHPE introspection from the live inner instance, when the run ended in
    // an MHPE phase (earlier phases' instances are gone by design).
    if (const auto* mhpe = ap->inner_mhpe()) {
      r.mhpe_used = true;
      r.mhpe_switched_to_lru = mhpe->switched_to_lru();
      r.mhpe_forward_distance = mhpe->forward_distance();
      r.mhpe_wrong_evictions = mhpe->wrong_evictions_total();
      r.untouch_history = mhpe->interval_untouch_history();
      r.wrong_buffer_capacity = mhpe->wrong_buffer_capacity();
    }
  }
  if (apf != nullptr) {
    r.adaptive_used = true;
    r.adaptive_prefetch_switches = apf->strategy_switches();
    if (r.adaptive_phase_history.empty())
      for (const auto& h : apf->classifier().history())
        r.adaptive_phase_history.emplace_back(h.at, h.phase);
  }
  r.trace_events_recorded = recorder().events_recorded();
  recorder().flush();
  return r;
}

}  // namespace uvmsim
