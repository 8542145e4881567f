// UvmSystem: the one-call public API. Bundles an event queue, the UVM
// driver (with the configured eviction policy + prefetcher), and the GPU
// model running one workload at one oversubscription rate; `run()` simulates
// to completion and returns every metric the evaluation needs.
//
// Typical use (see examples/quickstart.cpp):
//
//   auto wl = make_benchmark("NW");
//   UvmSystem sys(SystemConfig{}, presets::cppe(), *wl, /*oversub=*/0.5);
//   RunResult r = sys.run();
//   std::cout << r.cycles << " cycles, " << r.driver.page_faults << " faults\n";
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "core/device_stack.hpp"
#include "gpu/gpu.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/event_queue.hpp"
#include "tenancy/tenant.hpp"
#include "uvm/driver.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {

/// Per-tenant slice of a multi-tenant run (tenancy/multi_tenant_system.hpp).
struct TenantRunResult {
  TenantId id = kNoTenant;
  std::string workload;          ///< workload abbreviation
  u64 footprint_pages = 0;
  u64 quota_frames = 0;          ///< 0 in shared mode (no quotas computed)
  Cycle finish_cycle = 0;        ///< when this tenant's warps all finished
  bool completed = false;
  TenantStats stats;
  /// finish_cycle / this workload's solo finish under the same policy and
  /// per-tenant capacity; 0 when no solo baseline was run.
  double slowdown_vs_solo = 0.0;
};

/// Per-device slice of a multi-GPU fabric run (fabric/fabric_system.hpp).
struct DeviceRunResult {
  u32 id = 0;
  u64 capacity_pages = 0;
  Cycle finish_cycle = 0;
  bool completed = false;
  UvmDriver::Stats driver;
  u64 h2d_pages = 0;  ///< this device's host PCIe traffic
  u64 d2h_pages = 0;
};

/// Per-link slice of a multi-GPU fabric run.
struct LinkRunResult {
  std::string name;      ///< e.g. "d0->d1", "d2->host"
  u64 units_moved = 0;   ///< cache-line transfer units
  double utilisation = 0.0;
};

/// Fleet-serving slice of a RunResult (src/fleet): SLA aggregates over an
/// open-loop stream of short-lived jobs. `enabled` is false — and every
/// field zero — outside --fleet runs, and the JSON/CSV writers omit the
/// whole block then, so fixed-N artefacts stay byte-identical.
struct FleetRunResult {
  bool enabled = false;
  std::string admission;       ///< admission policy name
  std::string scheduler;       ///< placement policy name
  u32 devices = 0;
  double arrival_rate = 0.0;   ///< offered load, jobs per Mcycle
  u64 jobs_submitted = 0;
  u64 jobs_completed = 0;
  u64 jobs_rejected = 0;
  u64 rejected_queue_full = 0;
  u64 rejected_never_fits = 0;
  u64 rejected_policy = 0;
  u64 peak_queue_depth = 0;
  double rejection_rate = 0.0;    ///< rejected / submitted
  double goodput = 0.0;           ///< completed jobs per Mcycle of makespan
  double mean_queue_wait = 0.0;   ///< cycles, arrival -> admission
  double p95_queue_wait = 0.0;
  /// Per-job slowdown: (finish - admit) / the job template's solo-calibrated
  /// cycles, over completed jobs (nearest-rank percentiles).
  double mean_slowdown = 0.0;
  double slowdown_p50 = 0.0;
  double slowdown_p95 = 0.0;
  double slowdown_p99 = 0.0;
  /// Jain's index over 1/slowdown per 100-completion window: the minimum
  /// window (worst transient unfairness) and the mean across windows.
  double fairness_min = 0.0;
  double fairness_mean = 0.0;
};

/// Simulator-overhead counters (the cost of simulating, not the simulated
/// cost): allocation and sizing behaviour of the hot-path structures. Filled
/// by every system's run(); surfaced in sweep JSON, `uvmsim --sim-stats`
/// and bench/tab5_overhead. See docs/performance.md.
/// Sharded-engine counters (sim/sharded_engine.hpp): filled only when a run
/// used --engine sharded; all-defaults (and omitted from JSON/report) under
/// the sequential engine, so existing artefacts stay byte-identical.
struct EngineRunStats {
  bool sharded = false;
  u32 shards = 0;            ///< shard count (devices, +1 control for fleet)
  u32 threads = 0;           ///< resolved worker-thread count
  u64 lookahead_cycles = 0;  ///< conservative window width
  u64 windows = 0;           ///< barrier windows executed
  u64 messages = 0;          ///< cross-shard messages delivered
  u64 stall_windows = 0;     ///< windows with <= 1 shard doing work
  u64 barrier_waits = 0;     ///< barrier crossings (2/window when threaded)
  u64 max_skew = 0;          ///< max end-of-window clock spread
};

struct SimPerfCounters {
  u64 events_executed = 0;     ///< events the kernel ran (summed across shards)
  u64 event_heap_peak = 0;     ///< high-water mark of pending events
  u64 event_heap_capacity = 0; ///< final heap allocation, in events
  /// Events whose callback capture exceeded the inline buffer and took the
  /// pooled path — should stay a tiny fraction of events_executed.
  u64 oversize_events = 0;
  u64 chain_slab_capacity = 0; ///< chunk-chain slab slots across all domains/devices
  /// Pages the dense page tables cover, summed across devices (each
  /// device's table spans its footprint).
  u64 page_table_capacity = 0;
  /// Final fraction of a table's pages mapped by a per-page PTE (max across
  /// devices); pages under a 2 MB mapping do not count.
  double page_table_load = 0.0;
};

struct RunResult {
  std::string workload;
  std::string eviction_name;
  std::string prefetcher_name;
  double oversub = 1.0;          ///< capacity / footprint
  u64 footprint_pages = 0;
  u64 capacity_pages = 0;

  Cycle cycles = 0;              ///< end-to-end execution time
  bool completed = false;        ///< false if the cycle cap was hit
  UvmDriver::Stats driver;
  Gpu::Stats gpu;

  u64 h2d_pages = 0;             ///< pages moved host->device
  u64 d2h_pages = 0;             ///< pages moved device->host
  double h2d_utilisation = 0.0;

  // MHPE introspection (empty/false for other policies).
  bool mhpe_used = false;
  bool mhpe_switched_to_lru = false;
  u32 mhpe_forward_distance = 0;
  u64 mhpe_wrong_evictions = 0;
  std::vector<u32> untouch_history;  ///< per-interval U1 since evictions began

  // Pattern-buffer introspection (CPPE overhead analysis, §VI-C).
  std::size_t pattern_buffer_peak = 0;
  std::size_t pattern_buffer_capacity = 0;
  u64 pattern_matches = 0;
  u64 pattern_mismatches = 0;
  u64 pattern_capacity_evictions = 0;  ///< entries FIFO-replaced at the cap

  // Adaptive-policy introspection (policy/adaptive.hpp, prefetch/adaptive.hpp;
  // defaults when neither side is adaptive).
  bool adaptive_used = false;
  u64 adaptive_eviction_switches = 0;  ///< eviction-side strategy swaps
  u64 adaptive_prefetch_switches = 0;  ///< prefetch-side strategy swaps
  /// Confirmed phase changes from the eviction-side classifier (or the
  /// prefetch-side one when only prefetching is adaptive), in detection
  /// order: (cycle confirmed, phase entered).
  std::vector<std::pair<Cycle, PatternType>> adaptive_phase_history;

  /// PolicyConfig::large_pages was set: 2 MB coalescing/splintering was live
  /// and the large-page counters (driver.coalesces/splinters/
  /// large_frames_evicted, gpu.*_tlb_large_hits) are meaningful.
  bool large_pages = false;

  /// Fault-service backend this run used (SystemConfig::fault_backend;
  /// docs/faultsvc.md). The stats are all zero — and the JSON/report
  /// writers omit the whole block — under the default host backend, so
  /// pre-seam artefacts stay byte-identical.
  std::string fault_backend = "host";
  bool gpu_fault_backend = false;
  FaultBackendStats faultsvc;

  u64 trace_events_recorded = 0;  ///< flight-recorder events this run emitted

  std::size_t final_chain_length = 0;
  std::size_t wrong_buffer_capacity = 0;

  // Multi-tenant runs only (empty vector otherwise): per-tenant slices and
  // the run-level fairness summary (tenancy/fairness.hpp).
  std::string tenant_mode;            ///< "", or shared|partitioned|quota
  std::vector<TenantRunResult> tenants;
  double jain_fairness = 0.0;         ///< Jain's index over 1/slowdown; 0 = n/a

  // Multi-GPU fabric runs only (empty vectors, gpus == 1 otherwise).
  std::string fabric;                 ///< "", or pcie|ring|switch
  u32 gpus = 1;
  std::vector<DeviceRunResult> devices;
  std::vector<LinkRunResult> links;

  /// Fleet-serving runs only (enabled == false otherwise; src/fleet).
  FleetRunResult fleet;

  /// EventQueue::clamped_past() — events scheduled in the past and clamped
  /// to "now". Always 0 in a healthy run; scripts/check.sh gates on it.
  u64 clamped_past = 0;

  /// Simulator-overhead counters (cost of simulating, not simulated cost).
  SimPerfCounters sim;

  /// Sharded-engine counters; all-defaults under --engine seq (the JSON and
  /// report writers then omit the block entirely).
  EngineRunStats engine_stats;

  [[nodiscard]] double speedup_vs(const RunResult& baseline) const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(baseline.cycles) / static_cast<double>(cycles);
  }
};

class UvmSystem {
 public:
  /// `oversub` is the fraction of the workload footprint that fits in GPU
  /// memory (the paper's "75% / 50% oversubscribed" settings are 0.75/0.5;
  /// >= 1.0 disables oversubscription).
  UvmSystem(const SystemConfig& sys, const PolicyConfig& pol,
            const Workload& workload, double oversub);

  /// Simulate until all warps finish (or `max_cycles`, as a safety net).
  [[nodiscard]] RunResult run(
      Cycle max_cycles = std::numeric_limits<Cycle>::max());

  [[nodiscard]] UvmDriver& driver() noexcept { return *stack_.driver; }
  [[nodiscard]] Gpu& gpu() noexcept { return *gpu_; }
  [[nodiscard]] EventQueue& queue() noexcept { return eq_; }
  /// The run's flight recorder. Attach sinks (JsonlSink, RingSink,
  /// IntervalMetricsSink) before run(); sinks outlive the system.
  [[nodiscard]] FlightRecorder& recorder() noexcept { return *stack_.recorder; }

 private:
  SystemConfig sys_cfg_;
  PolicyConfig pol_cfg_;
  const Workload& workload_;
  double oversub_;
  EventQueue eq_;
  DeviceStack stack_;
  std::unique_ptr<Gpu> gpu_;
};

}  // namespace uvmsim
