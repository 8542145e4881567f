#include "metrics.hpp"

namespace perfbench {

const std::vector<MetricDef>& metric_catalogue() {
  static const std::vector<MetricDef> defs = {
      // End to end (host time, untraced runs).
      {"wall_s", "s", true},
      {"setup_s", "s", true},
      {"peak_rss_mb", "MB", true},
      // sim: event kernel and sharded engine.
      {"sim.events", "count", false},
      {"sim.ns_per_event", "ns", false},
      {"sim.replay_ns_per_event", "ns", false},
      {"sim.heap_peak", "count", false},
      {"sim.oversize_events", "count", false},
      {"sim.engine.windows", "count", false},
      {"sim.engine.messages", "count", false},
      {"sim.engine.barrier_waits", "count", false},
      {"sim.engine.stall_windows", "count", false},
      {"sim.engine.events_per_window", "events", false},
      {"wall_mt_s", "s", false},
      {"sim.engine.speedup_mt", "x", false},
      // workloads: access-stream generation.
      {"workloads.accesses", "count", false},
      {"workloads.self_ms", "ms", false},
      {"workloads.ns_per_access", "ns", false},
      {"workloads.setup_ms", "ms", false},
      // policy: eviction.
      {"policy.calls", "count", false},
      {"policy.select_calls", "count", false},
      {"policy.victims", "count", false},
      {"policy.self_ms", "ms", false},
      {"policy.ns_per_call", "ns", false},
      {"policy.wrong_eviction_ratio", "ratio", false},
      // prefetch.
      {"prefetch.plan_calls", "count", false},
      {"prefetch.pages_planned", "count", false},
      {"prefetch.self_ms", "ms", false},
      {"prefetch.ns_per_plan", "ns", false},
      {"prefetch.pattern_hit_ratio", "ratio", false},
      // uvm driver (simulated).
      {"uvm.page_faults", "count", false},
      {"uvm.faults_coalesced", "count", false},
      {"uvm.pages_migrated_in", "count", false},
      {"uvm.pages_evicted", "count", false},
      {"uvm.demand_evictions", "count", false},
      {"uvm.pre_evictions", "count", false},
      {"uvm.migration_ops", "count", false},
      {"uvm.fault_wait_cycles_mean", "cycles", false},
      // gpu and tlb.
      {"gpu.accesses", "count", false},
      {"gpu.far_faults", "count", false},
      {"tlb.l1_hit_ratio", "ratio", false},
      {"tlb.l2_hit_ratio", "ratio", false},
      {"tlb.walks", "count", false},
      {"tlb.walk_cycles", "cycles", false},
      {"tlb.replay_ns_per_lookup", "ns", false},
      // mem: host links.
      {"mem.h2d_pages", "count", false},
      {"mem.d2h_pages", "count", false},
      {"mem.h2d_utilisation", "ratio", false},
      // fabric.
      {"fabric.remote_accesses", "count", false},
      {"fabric.peer_fetches", "count", false},
      {"fabric.faults_forwarded", "count", false},
      {"fabric.link_units", "count", false},
      // fleet.
      {"fleet.host_ms_per_job", "ms", false},
      {"fleet.jobs_completed", "count", false},
      {"fleet.jobs_rejected", "count", false},
      {"fleet.goodput_sim", "jobs/Mcycle", false},
      {"fleet.slowdown_p99_sim", "x", false},
      // obs: flight recorder.
      {"obs.trace_events", "count", false},
      {"obs.emit_ns_per_event", "ns", false},
      {"obs.traced_overhead_pct", "%", false},
      // Unwrapped layers, and the correctness checks.
      {"rest.self_ms", "ms", false},
      {"failed_frac", "ratio", false},
  };
  return defs;
}

}  // namespace perfbench
