// Experiment descriptor + single-run entry point. One experiment =
// (workload, policy configuration, oversubscription rate); runs are
// deterministic, so any sweep can be distributed over threads freely.
//
// run_experiment is the one path from a configuration to a run: the
// `uvmsim` CLI parses its flags into an ExperimentSpec, the sweep, report
// and bench drivers build specs directly, and all of them call it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "core/uvm_system.hpp"
#include "fleet/fleet_config.hpp"
#include "tenancy/tenant.hpp"

namespace uvmsim {

struct ExperimentSpec {
  std::string workload;       ///< Table II abbreviation
  /// Single-GPU runs only: replay this recorded trace file (trace/trace_io)
  /// in place of the `workload` benchmark.
  std::string replay_trace;
  std::string label;          ///< display label, e.g. "CPPE", "LRU-20%"
  PolicyConfig policy;
  double oversub = 0.5;       ///< fraction of footprint that fits (0.75 / 0.5)
  SystemConfig system;
  Cycle max_cycles = 20'000'000'000ull;  ///< runaway-simulation safety net

  // --- Multi-tenancy (src/tenancy) -----------------------------------------
  /// Two or more workload abbreviations switch the experiment to a
  /// MultiTenantSystem run (`workload` above is then ignored for
  /// construction and only used as a display fallback).
  std::vector<std::string> tenants;
  TenantMode tenant_mode = TenantMode::kShared;
  EvictionScope tenant_scope = EvictionScope::kGlobal;
  /// Run each tenant's workload solo (same per-tenant SM slice, same
  /// oversubscription) to fill slowdown_vs_solo and the Jain index.
  bool tenant_solo_baselines = true;

  // --- Multi-GPU fabric (src/fabric) ---------------------------------------
  /// fabric.gpus >= 2 switches the experiment to a FabricSystem run (one
  /// workload sharded over N devices). Mutually exclusive with `tenants`.
  FabricConfig fabric;

  // --- Simulation engine (src/sim/sharded_engine.hpp) ----------------------
  /// --engine-threads parallelises multi-GPU fabric and fleet runs (one
  /// shard per device, conservative barrier windows) without changing their
  /// answer; single-GPU runs have one shard and run it inline, and
  /// multi-tenant runs reject a thread count other than 1.
  EngineConfig engine;

  // --- Fleet serving (src/fleet) -------------------------------------------
  /// fleet.enabled switches the experiment to a FleetSystem run (open-loop
  /// job arrivals over fleet.devices independent memory systems; `workload`
  /// and `oversub` above are ignored). Mutually exclusive with `tenants`
  /// and `fabric`.
  FleetConfig fleet;

  // --- Observability hooks (src/obs) ---------------------------------------
  /// When non-empty, the run's full event stream is written here as JSONL
  /// (filtered by trace_event_mask) — any bench can dump a timeline by
  /// setting a path.
  std::string trace_out;
  u64 trace_event_mask = kAllEventsMask;
  /// Single-GPU runs only: write per-interval metrics here (a `.jsonl`
  /// extension selects JSONL, anything else CSV; obs/interval_metrics).
  std::string interval_metrics;
};

/// Which system an experiment runs. One spec selects at most one of fleet,
/// tenants and fabric; none selects the single-GPU UvmSystem.
enum class ExperimentMode { kSingle, kTenants, kFabric, kFleet };

/// The mode `spec` selects, by precedence fleet > tenants > fabric (a spec
/// validate() accepts selects only one).
[[nodiscard]] ExperimentMode mode_of(const ExperimentSpec& spec) noexcept;

/// Reject a spec whose settings the selected system would silently ignore
/// or cannot honour: more than one mode, a single tenant, a replayed trace
/// or interval metrics outside single-GPU mode, engine threads other than 1
/// with tenants, and an arrival trace that is unreadable, empty, has a
/// gap over `max_cycles` or would carry a fleet's arrivals past the last
/// representable cycle. Throws std::invalid_argument naming the
/// conflict (std::runtime_error for an arrival-trace line that does not
/// parse).
void validate(const ExperimentSpec& spec);

/// The workload a single-GPU spec runs: the replayed trace, else the
/// `workload` benchmark.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const ExperimentSpec& spec);

/// Result annotated with its spec label.
struct LabelledResult {
  ExperimentSpec spec;
  RunResult result;
};

/// Validate, build and run one experiment to completion, writing the
/// requested trace and interval-metrics files. Throws std::invalid_argument
/// for an invalid spec and std::runtime_error for an unopenable file.
[[nodiscard]] LabelledResult run_experiment(const ExperimentSpec& spec);

}  // namespace uvmsim
