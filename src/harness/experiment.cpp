#include "harness/experiment.hpp"

#include <fstream>
#include <memory>
#include <stdexcept>
#include <vector>

#include "fabric/fabric_system.hpp"
#include "fleet/arrival.hpp"
#include "fleet/fleet_system.hpp"
#include "obs/interval_metrics.hpp"
#include "obs/trace_sink.hpp"
#include "tenancy/fairness.hpp"
#include "tenancy/multi_tenant_system.hpp"
#include "trace/trace_workload.hpp"
#include "workloads/benchmarks.hpp"

namespace uvmsim {

namespace {

// Every mode attaches the same flight-recorder plumbing: the event mask
// always (it also filters what self-attached sinks such as the adaptive
// policy's classifier see), the JSONL sink when `sink` is set.
template <typename Recorder>
void attach_trace(Recorder& rec, const ExperimentSpec& spec, TraceSink* sink) {
  rec.set_event_mask(spec.trace_event_mask);
  if (sink != nullptr) rec.add_sink(sink);
}

RunResult run_single(const ExperimentSpec& spec, TraceSink* sink) {
  const auto workload = make_workload(spec);
  UvmSystem system(spec.system, spec.policy, *workload, spec.oversub);
  attach_trace(system.recorder(), spec, sink);
  IntervalMetricsSink intervals;
  if (!spec.interval_metrics.empty()) system.recorder().add_sink(&intervals);

  RunResult r = system.run(spec.max_cycles);

  if (!spec.interval_metrics.empty()) {
    const std::string& path = spec.interval_metrics;
    intervals.finalize(system.queue().now());
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open " + path);
    if (path.ends_with(".jsonl"))
      intervals.write_jsonl(out);
    else
      intervals.write_csv(out);
  }
  return r;
}

// Multi-tenant experiments build a MultiTenantSystem over the shared driver
// stack. Solo baselines (one UvmSystem per tenant, same SM slice, same
// oversubscription) fill in slowdown_vs_solo and the Jain index; they are
// independent deterministic runs, so the whole experiment stays reproducible.
RunResult run_multi_tenant(const ExperimentSpec& spec, TraceSink* sink) {
  std::vector<std::unique_ptr<Workload>> workloads;
  std::vector<const Workload*> ptrs;
  for (const std::string& abbr : spec.tenants) {
    workloads.push_back(make_benchmark(abbr));
    ptrs.push_back(workloads.back().get());
  }

  MultiTenantSystem system(spec.system, spec.policy, ptrs, spec.oversub,
                           spec.tenant_mode, spec.tenant_scope);
  attach_trace(system.recorder(), spec, sink);
  RunResult r = system.run(spec.max_cycles);

  if (spec.tenant_solo_baselines) {
    SystemConfig solo_cfg = spec.system;
    solo_cfg.num_sms = system.sms_per_tenant();
    std::vector<Cycle> solo_cycles;
    for (const Workload* w : ptrs) {
      UvmSystem solo(solo_cfg, spec.policy, *w, spec.oversub);
      solo_cycles.push_back(solo.run(spec.max_cycles).cycles);
    }
    apply_solo_baselines(r, solo_cycles);
  }
  return r;
}

// Multi-GPU experiments shard one workload across a FabricSystem; every
// device's recorder feeds one JSONL stream (device-stamped events
// interleave in simulation order).
RunResult run_fabric(const ExperimentSpec& spec, TraceSink* sink) {
  const auto workload = make_benchmark(spec.workload);
  FabricSystem system(spec.system, spec.policy, *workload, spec.oversub,
                      spec.fabric, spec.engine);
  attach_trace(system, spec, sink);
  return system.run(spec.max_cycles);
}

// Fleet experiments drive an open-loop job stream through a FleetSystem.
// One JSONL stream carries the fleet-level job lifecycle events and every
// device's fault traffic, interleaved in simulation order.
RunResult run_fleet(const ExperimentSpec& spec, TraceSink* sink) {
  FleetSystem system(spec.system, spec.policy, spec.fleet, spec.engine);
  attach_trace(system, spec, sink);
  return system.run(spec.max_cycles);
}

}  // namespace

ExperimentMode mode_of(const ExperimentSpec& spec) noexcept {
  if (spec.fleet.enabled) return ExperimentMode::kFleet;
  if (spec.tenants.size() >= 2) return ExperimentMode::kTenants;
  if (spec.fabric.gpus >= 2) return ExperimentMode::kFabric;
  return ExperimentMode::kSingle;
}

void validate(const ExperimentSpec& spec) {
  using Reject = std::invalid_argument;
  const bool tenants = spec.tenants.size() >= 2;
  const bool fabric = spec.fabric.gpus >= 2;
  if (spec.fleet.enabled + tenants + fabric > 1)
    throw Reject("fleet, tenants and a multi-GPU fabric are separate modes; "
                 "choose one");
  if (spec.tenants.size() == 1)
    throw Reject("tenants needs at least two workloads, e.g. NW,BFS");

  const ExperimentMode mode = mode_of(spec);
  if (mode != ExperimentMode::kSingle && !spec.replay_trace.empty())
    throw Reject("a replayed trace runs on a single GPU only "
                 "(not with fleet, tenants or gpus >= 2)");
  if (mode != ExperimentMode::kSingle && !spec.interval_metrics.empty())
    throw Reject("interval metrics are recorded on a single GPU only "
                 "(not with fleet, tenants or gpus >= 2)");

  // Sharding needs per-device state: one shared driver (tenants) cannot
  // shard, and spill moves chunks between devices mid-run, which the
  // forward-only sharded fabric protocol forbids.
  if (spec.engine.kind == EngineKind::kSharded) {
    if (mode == ExperimentMode::kTenants)
      throw Reject("the sharded engine does not support tenants "
                   "(one shared driver cannot shard)");
    if (spec.fabric.spill && mode != ExperimentMode::kFleet)
      throw Reject("the sharded engine does not support spill "
                   "(chunks may not change device)");
  }

  // A recorded arrival trace must parse (load_trace throws on a hostile
  // line), hold a gap, and fit every gap inside the run's cycle cap. Job k
  // arrives at the sum of the first k + 1 gaps (the trace cycles), and
  // that clock must not wrap, which an uncapped run would otherwise allow.
  if (const std::string& path = spec.fleet.arrival_trace; !path.empty()) {
    const std::vector<Cycle> gaps = ArrivalStream::load_trace(path);
    if (gaps.empty())
      throw Reject("cannot read arrival trace (or no gaps): " + path);
    for (const Cycle gap : gaps)
      if (gap > spec.max_cycles)
        throw Reject("arrival trace " + path + ": gap " + std::to_string(gap) +
                     " exceeds max_cycles " + std::to_string(spec.max_cycles));
    const u64 jobs = spec.fleet.enabled ? spec.fleet.jobs : 0;
    Cycle arrival = 0;
    for (u64 k = 0; k < jobs; ++k) {
      const Cycle gap = gaps[k % gaps.size()];
      if (gap > ~Cycle{0} - arrival)
        throw Reject("arrival trace " + path + ": job " + std::to_string(k) +
                     " would arrive past the last representable cycle");
      arrival += gap;
    }
  }
}

std::unique_ptr<Workload> make_workload(const ExperimentSpec& spec) {
  if (!spec.replay_trace.empty())
    return std::make_unique<TraceWorkload>(load_trace(spec.replay_trace));
  return make_benchmark(spec.workload);
}

LabelledResult run_experiment(const ExperimentSpec& spec) {
  validate(spec);

  // Observability: stream the run's events to disk when requested. The sink
  // must outlive run(); recorders only borrow it.
  std::ofstream trace_file;
  std::unique_ptr<JsonlSink> trace_sink;
  if (!spec.trace_out.empty()) {
    trace_file.open(spec.trace_out);
    if (!trace_file)
      throw std::runtime_error("cannot open trace file: " + spec.trace_out);
    trace_sink = std::make_unique<JsonlSink>(trace_file);
  }

  TraceSink* sink = trace_sink.get();
  switch (mode_of(spec)) {
    case ExperimentMode::kFleet: return {spec, run_fleet(spec, sink)};
    case ExperimentMode::kTenants: return {spec, run_multi_tenant(spec, sink)};
    case ExperimentMode::kFabric: return {spec, run_fabric(spec, sink)};
    case ExperimentMode::kSingle: break;
  }
  return {spec, run_single(spec, sink)};
}

}  // namespace uvmsim
