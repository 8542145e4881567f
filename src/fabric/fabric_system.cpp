#include "fabric/fabric_system.hpp"

#include <algorithm>
#include <cassert>

namespace uvmsim {

FabricSystem::FabricSystem(const SystemConfig& sys, const PolicyConfig& pol,
                           const Workload& workload, double oversub,
                           const FabricConfig& fabric,
                           const EngineConfig& engine)
    : sys_cfg_(sys),
      pol_cfg_(pol),
      fab_cfg_(fabric),
      workload_(workload),
      oversub_(oversub) {
  const u32 n = std::max(1u, fabric.gpus);
  fab_cfg_.gpus = n;
  const u64 footprint = workload.footprint_pages();
  // Per-device share of the capacity the oversubscription rate grants, with
  // UvmSystem's per-driver floor. At N = 1 this is exactly UvmSystem's.
  const u64 capacity = oversub_capacity(footprint, oversub, 16 * kChunkPages, n);

  // Sharded needs >= 2 devices (one shard per device); otherwise a single
  // shard makes the engine a verbatim sequential EventQueue.
  const bool shard = engine.kind == EngineKind::kSharded && n > 1;
  const Cycle hop_latency = std::max<Cycle>(
      1, static_cast<Cycle>(fab_cfg_.nvlink_latency_us * sys_cfg_.core_ghz *
                            1000.0));
  engine_ = std::make_unique<ShardedEngine>(shard ? n : 1,
                                            shard ? hop_latency : Cycle{1},
                                            shard ? engine.threads : 1);
  if (shard) {
    fab_cfg_.spill = false;  // chunks may not change device (sharded_fabric.hpp)
    sharded_ = std::make_unique<ShardedFabric>(*engine_, sys_cfg_, fab_cfg_,
                                               footprint);
  } else if (n > 1) {
    coord_ = std::make_unique<FabricCoordinator>(engine_->queue(0), sys_cfg_,
                                                 fab_cfg_, footprint);
  }

  const u32 warps_per_device = sys_cfg_.num_sms * sys_cfg_.warps_per_sm;
  for (u32 d = 0; d < n; ++d) {
    EventQueue& q = engine_->queue(shard ? d : 0);
    stacks_.push_back(make_device_stack(q, sys_cfg_, pol_cfg_, footprint,
                                        capacity, {},
                                        n > 1 ? d : kNoTraceDevice));
    UvmDriver* driver = stacks_.back().driver.get();
    if (shard)
      driver->attach_fabric(sharded_->port(d), d, /*spill=*/false);
    else if (n > 1)
      driver->attach_fabric(coord_.get(), d, fab_cfg_.spill);

    shards_.push_back(std::make_unique<ShardedWorkload>(
        workload_, d * warps_per_device, n * warps_per_device));
    // Per-device warp seeds derive from pol.seed + device id, so device 0
    // of a 1-GPU fabric matches UvmSystem's seeding exactly.
    auto gpu = std::make_unique<Gpu>(q, sys_cfg_, *driver, *shards_.back(),
                                     pol_cfg_.seed + d);
    if (shard) {
      sharded_->attach_device(d, driver);
      sharded_->set_invalidator(
          d, [g = gpu.get()](PageId p) { g->remote_shootdown(p); });
    } else if (n > 1) {
      coord_->attach_device(d, driver);
      coord_->set_invalidator(
          d, [g = gpu.get()](PageId p) { g->remote_shootdown(p); });
    }
    gpus_.push_back(std::move(gpu));
  }
  std::vector<FlightRecorder*> recorders;
  for (const DeviceStack& st : stacks_) recorders.push_back(st.recorder.get());
  trace_.init(std::move(recorders), shard);
}

FabricSystem::~FabricSystem() = default;

void FabricSystem::add_sink(TraceSink* sink) { trace_.add_sink(sink); }

void FabricSystem::set_event_mask(u64 mask) { trace_.set_event_mask(mask); }

RunResult FabricSystem::run(Cycle max_cycles) {
  for (auto& g : gpus_) g->launch();
  engine_->run(max_cycles);

  RunResult r;
  r.workload = workload_.abbr();
  r.oversub = oversub_;
  r.footprint_pages = workload_.footprint_pages();
  harvest_identity(r, driver(0));
  // Fabric-shaped result fields stay at their defaults for 1-GPU systems so
  // the result (and its JSON) is indistinguishable from a UvmSystem run.
  if (num_gpus() > 1) {
    r.fabric = to_string(fab_cfg_.topology);
    r.gpus = num_gpus();
  }

  r.completed = true;
  Cycle last_finish = 0;
  Cycle last_now = 0;
  for (u32 d = 0; d < num_gpus(); ++d) {
    const Gpu& g = *gpus_[d];
    UvmDriver& drv = driver(d);
    const EventQueue& q = engine_->queue(sharded_ ? d : 0);
    last_now = std::max(last_now, q.now());
    r.capacity_pages += drv.capacity_pages();
    r.completed = r.completed && g.finished();
    const Cycle fin = g.finished() ? g.finish_cycle() : q.now();
    last_finish = std::max(last_finish, fin);

    DeviceRunResult dr;
    dr.id = d;
    dr.capacity_pages = drv.capacity_pages();
    dr.finish_cycle = fin;
    dr.completed = g.finished();
    dr.driver = drv.stats();
    dr.h2d_pages = drv.h2d().units_moved();
    dr.d2h_pages = drv.d2h().units_moved();
    if (num_gpus() > 1) r.devices.push_back(dr);

    harvest_driver(r, drv);
    r.gpu += g.stats();
    r.final_chain_length += drv.chain().size();
    r.trace_events_recorded += stacks_[d].recorder->events_recorded();
  }
  r.cycles = r.completed ? last_finish : last_now;
  r.h2d_utilisation = driver(0).h2d().utilisation(r.cycles);

  if (coord_ != nullptr) {
    for (const FabricTopology::Link& l : coord_->topology().links())
      r.links.push_back(
          {l.name, l.link.units_moved(), l.link.utilisation(r.cycles)});
  } else if (sharded_ != nullptr) {
    // Every device charges its private topology copy; the copies share link
    // ordering, so per-link totals are the index-wise sums (utilisation =
    // busy/now is additive across copies at the same `now`).
    const auto& base = sharded_->topology(0).links();
    for (std::size_t i = 0; i < base.size(); ++i) {
      LinkRunResult lr{base[i].name, 0, 0.0};
      for (u32 d = 0; d < num_gpus(); ++d) {
        const FabricTopology::Link& l = sharded_->topology(d).links()[i];
        lr.units_moved += l.link.units_moved();
        lr.utilisation += l.link.utilisation(r.cycles);
      }
      r.links.push_back(lr);
    }
  }
  harvest_engine(r, *engine_);
  trace_.finish();
  return r;
}

}  // namespace uvmsim
