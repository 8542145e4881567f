#include "fleet/fleet_system.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "harness/percentile.hpp"
#include "tenancy/fairness.hpp"

namespace uvmsim {

namespace {

constexpr u64 kAlign = TenantTable::kNamespaceAlignPages;

[[nodiscard]] constexpr u64 align_namespace(u64 pages) noexcept {
  return (pages + kAlign - 1) / kAlign * kAlign;
}

}  // namespace

FleetSystem::FleetSystem(const SystemConfig& sys, const PolicyConfig& pol,
                         const FleetConfig& fleet, const EngineConfig& engine)
    : sys_cfg_(sys),
      job_cfg_(sys),
      pol_cfg_(pol),
      fleet_(fleet),
      admission_(fleet.admission, fleet.headroom, fleet.quota_frac),
      scheduler_(fleet.scheduler) {
  assert(fleet_.devices > 0 && fleet_.jobs > 0);
  assert(fleet_.arena_pages > 0 && fleet_.arena_pages % kAlign == 0);
  job_cfg_.num_sms = std::max<u32>(1, fleet_.job_sms);
  job_slots_ = std::max<u64>(1, sys_cfg_.num_sms / job_cfg_.num_sms);

  // Device capacity: a fraction of the arena (resident jobs oversubscribe),
  // floored at the admission-pinning minimum so one job can always migrate.
  const u64 floor_frames = 16 * kChunkPages;
  capacity_frames_ = std::min(
      fleet_.arena_pages,
      std::max(floor_frames,
               static_cast<u64>(std::ceil(
                   fleet_.oversub * static_cast<double>(fleet_.arena_pages)))));

  // Sharded: shard 0 is the control plane, shard 1+d is device d; the
  // admission/completion round trip crosses shards at the fault-service
  // latency, which is therefore the conservative lookahead.
  sharded_ = engine.kind == EngineKind::kSharded;
  lookahead_ =
      sharded_ ? std::max<Cycle>(1, sys_cfg_.fault_latency_cycles()) : 1;
  engine_ = std::make_unique<ShardedEngine>(
      sharded_ ? 1 + fleet_.devices : 1, lookahead_,
      sharded_ ? engine.threads : 1);
  job_recorder_ = std::make_unique<FlightRecorder>(engine_->queue(0));

  mix_ = make_fleet_job_mix();

  // Solo calibration: each template once, alone, on the same SM slice with
  // all its pages fitting (oversub 1.0) — the slowdown denominator isolates
  // co-location interference plus oversubscription pressure.
  solo_cycles_.reserve(mix_.size());
  for (const auto& tmpl : mix_) {
    UvmSystem solo(job_cfg_, pol_cfg_, *tmpl, /*oversub=*/1.0);
    solo_cycles_.push_back(std::max<Cycle>(1, solo.run().cycles));
  }

  std::vector<Cycle> trace;
  if (!fleet_.arrival_trace.empty())
    trace = ArrivalStream::load_trace(fleet_.arrival_trace);
  arrivals_ = std::make_unique<ArrivalStream>(
      fleet_, pol_cfg_.seed, static_cast<u32>(mix_.size()), std::move(trace));

  for (u32 d = 0; d < fleet_.devices; ++d) {
    auto dev = std::make_unique<Device>();
    dev->table.enable_arena(fleet_.arena_pages);
    dev->stack = make_device_stack(
        dev_queue(d), sys_cfg_, pol_cfg_, fleet_.arena_pages, capacity_frames_,
        {&dev->table, TenantMode::kShared, EvictionScope::kGlobal},
        fleet_.devices > 1 ? d : kNoTraceDevice);
    devices_.push_back(std::move(dev));
    if (sharded_) {
      shadow_tables_.push_back(std::make_unique<TenantTable>());
      shadow_tables_.back()->enable_arena(fleet_.arena_pages);
    }
  }

  std::vector<FlightRecorder*> recorders{job_recorder_.get()};
  for (const auto& d : devices_) recorders.push_back(d->stack.recorder.get());
  trace_.init(std::move(recorders), sharded_);

  jobs_.reserve(fleet_.jobs);
  running_.resize(fleet_.jobs);
}

FleetSystem::~FleetSystem() = default;

void FleetSystem::add_sink(TraceSink* sink) { trace_.add_sink(sink); }

void FleetSystem::set_event_mask(u64 mask) { trace_.set_event_mask(mask); }

u64 FleetSystem::job_seed(u64 id) const {
  // Independent per-job stream: jobs of the same template differ in their
  // randomised segments, like distinct submissions of the same application.
  return SplitMix64(pol_cfg_.seed ^ (0x9E3779B97F4A7C15ull * (id + 1))).next();
}

u64 FleetSystem::promise_of(const Job& j) const {
  return std::min(j.footprint_pages, capacity_frames_);
}

DeviceLoad FleetSystem::load_of(u32 device, const Job& j) const {
  const Device& d = *devices_[device];
  DeviceLoad l;
  l.capacity_frames = capacity_frames_;
  l.promised_frames = d.promised_frames;
  l.active_jobs = d.active_jobs;
  l.job_slots = job_slots_;
  l.namespace_fits = sharded_
                         ? shadow_tables_[device]->can_fit(j.footprint_pages)
                         : d.table.can_fit(j.footprint_pages);
  l.same_pattern_jobs = d.pattern_active[static_cast<std::size_t>(j.pattern)];
  return l;
}

void FleetSystem::schedule_next_arrival() {
  if (submitted_ == fleet_.jobs) return;
  const ArrivalStream::Arrival a = arrivals_->next();
  const u64 id = submitted_++;
  Job j;
  j.id = id;
  j.tpl = a.tpl;
  j.footprint_pages = mix_[a.tpl]->footprint_pages();
  j.pattern = mix_[a.tpl]->pattern();
  jobs_.push_back(j);
  queue().schedule_in(a.gap, [this, id] { on_arrival(id); });
}

void FleetSystem::on_arrival(u64 id) {
  Job& j = jobs_[id];
  j.arrival = queue().now();
  job_recorder_->record(EventType::kJobArrived, id, j.footprint_pages,
                        static_cast<u64>(j.pattern));
  // Open loop: the next arrival's gap never depends on this job's fate.
  schedule_next_arrival();

  if (align_namespace(j.footprint_pages) > fleet_.arena_pages) {
    reject(id, JobRejectReason::kNeverFits);
    return;
  }
  if (admission_.rejects_outright(j.footprint_pages, capacity_frames_)) {
    reject(id, JobRejectReason::kPolicy);
    return;
  }
  if (try_admit(id)) return;
  if (queue_.size() >= fleet_.queue_cap) {
    reject(id, JobRejectReason::kQueueFull);
    return;
  }
  queue_.push_back(id);
  peak_queue_depth_ = std::max<u64>(peak_queue_depth_, queue_.size());
}

bool FleetSystem::try_admit(u64 id) {
  const Job& j = jobs_[id];
  std::vector<DeviceLoad> eligible;
  for (u32 d = 0; d < devices_.size(); ++d) {
    DeviceLoad l = load_of(d, j);
    l.id = d;
    if (admission_.admissible(l, j.footprint_pages))
      eligible.push_back(std::move(l));
  }
  if (eligible.empty()) return false;
  admit(id, scheduler_.pick(eligible));
  return true;
}

void FleetSystem::admit(u64 id, u32 device) {
  Job& j = jobs_[id];
  Device& d = *devices_[device];
  const TenantId t = view(device).attach(mix_[j.tpl]->abbr(),
                                         j.footprint_pages);
  assert(t != kNoTenant && "admissible() guaranteed a namespace region");
  j.tenant = t;
  j.device = device;
  j.admit = queue().now();
  j.state = JobState::kRunning;
  d.promised_frames += promise_of(j);
  ++d.active_jobs;
  ++d.pattern_active[static_cast<std::size_t>(j.pattern)];

  if (sharded_) {
    // Control half only: the device shard replays the attach at the base
    // the shadow table chose, one admission round trip later. The shadow
    // attaches now and detaches at finish + lookahead, so its occupied set
    // is a superset of the device's — the region is guaranteed free there.
    const PageId base = view(device).info(t).base;
    job_recorder_->record(EventType::kJobAdmitted, id, device,
                          j.admit - j.arrival);
    engine_->post(0, 1 + device, j.admit + lookahead_,
                  [this, id, device, base] { launch_job(id, device, base); });
    return;
  }

  Running& r = running_[id];
  r.device = device;
  r.workload =
      std::make_unique<OffsetWorkload>(*mix_[j.tpl], d.table.info(t).base);
  r.gpu = std::make_unique<Gpu>(queue(), job_cfg_, *d.stack.driver, *r.workload,
                                job_seed(id));
  // The hook fires inside the last warp's event — defer teardown one event
  // so the Gpu never destroys itself re-entrantly.
  r.gpu->set_on_finished([this, id] {
    queue().schedule_at(queue().now(), [this, id] { complete(id); });
  });
  job_recorder_->record(EventType::kJobAdmitted, id, device,
                        j.admit - j.arrival);
  r.gpu->launch();
}

void FleetSystem::launch_job(u64 id, u32 device, PageId base) {
  // Device-shard context. Job fields were finalised by the control shard
  // before it posted this message, so the reads below are race-free; the
  // device-table tenant id lives in Running (slots can differ between the
  // shadow and device tables).
  const Job& j = jobs_[id];
  Device& d = *devices_[device];
  Running& r = running_[id];
  r.device = device;
  r.tenant = d.table.attach_at(mix_[j.tpl]->abbr(), j.footprint_pages, base);
  assert(r.tenant != kNoTenant && "subset invariant: prescribed region free");
  r.workload = std::make_unique<OffsetWorkload>(*mix_[j.tpl], base);
  EventQueue& q = dev_queue(device);
  r.gpu = std::make_unique<Gpu>(q, job_cfg_, *d.stack.driver, *r.workload,
                                job_seed(id));
  r.gpu->set_on_finished([this, id, device] {
    EventQueue& dq = dev_queue(device);
    dq.schedule_at(dq.now(), [this, id] { device_complete(id); });
  });
  r.gpu->launch();
}

void FleetSystem::reject(u64 id, JobRejectReason reason) {
  Job& j = jobs_[id];
  j.state = JobState::kRejected;
  j.reject_reason = reason;
  ++rejected_;
  job_recorder_->record(EventType::kJobRejected, id, static_cast<u64>(reason),
                        queue_.size());
}

void FleetSystem::complete(u64 id) {
  Job& j = jobs_[id];
  Device& d = *devices_[j.device];
  Running& r = running_[id];
  j.finish = r.gpu->finish_cycle();
  d.gpu_total += r.gpu->stats();
  // Teardown order matters: the Gpu unregisters its shootdown handlers
  // first, then the driver surrenders every resident page (used_frames
  // returns to zero), and only then can the arena slot detach.
  r.gpu.reset();
  d.stack.driver->detach_tenant(j.tenant);
  d.table.detach(j.tenant);
  r.workload.reset();
  d.promised_frames -= promise_of(j);
  --d.active_jobs;
  --d.pattern_active[static_cast<std::size_t>(j.pattern)];
  j.state = JobState::kCompleted;
  ++completed_;
  completion_order_.push_back(id);
  job_recorder_->record(EventType::kJobCompleted, id, j.device,
                        j.finish - j.admit);
  drain_queue();
}

void FleetSystem::device_complete(u64 id) {
  // Device-shard half: full local teardown (frames, arena region and slot
  // return to this device), then tell the control shard the finish cycle.
  Running& r = running_[id];
  const u32 device = r.device;
  Device& d = *devices_[device];
  const Cycle finish = r.gpu->finish_cycle();
  d.gpu_total += r.gpu->stats();
  r.gpu.reset();
  d.stack.driver->detach_tenant(r.tenant);
  d.table.detach(r.tenant);
  r.workload.reset();
  r.tenant = kNoTenant;
  engine_->post(1 + device, 0, dev_queue(device).now() + lookahead_,
                [this, id, finish] { control_complete(id, finish); });
}

void FleetSystem::control_complete(u64 id, Cycle finish) {
  // Control-shard half: the shadow region frees only now (finish +
  // lookahead), preserving the subset invariant for later admissions.
  Job& j = jobs_[id];
  Device& d = *devices_[j.device];
  j.finish = finish;
  view(j.device).detach(j.tenant);
  d.promised_frames -= promise_of(j);
  --d.active_jobs;
  --d.pattern_active[static_cast<std::size_t>(j.pattern)];
  j.state = JobState::kCompleted;
  ++completed_;
  completion_order_.push_back(id);
  job_recorder_->record(EventType::kJobCompleted, id, j.device,
                        j.finish - j.admit);
  drain_queue();
}

void FleetSystem::drain_queue() {
  // Full FIFO scan with bypass: a large job stuck at the head must not
  // starve small jobs behind it that the freed capacity can serve.
  for (std::size_t i = 0; i < queue_.size();) {
    if (try_admit(queue_[i]))
      queue_.erase(queue_.begin() + static_cast<long>(i));
    else
      ++i;
  }
}

RunResult FleetSystem::run(Cycle max_cycles) {
  schedule_next_arrival();
  engine_->run(max_cycles);

  RunResult r;
  r.workload = "fleet";
  r.oversub = fleet_.oversub;
  r.capacity_pages = capacity_frames_ * devices_.size();
  // The queue drains once the last job finishes, and a drained clock
  // fast-forwards to a finite max_cycles — so the fleet's makespan is the
  // last job event, not the engine clock.
  Cycle now_max = 0;
  for (u32 s = 0; s < engine_->num_shards(); ++s)
    now_max = std::max(now_max, engine_->queue(s).now());
  Cycle makespan = 0;
  for (const Job& j : jobs_)
    makespan = std::max({makespan, j.finish, j.arrival});
  r.cycles = std::min(now_max, std::max<Cycle>(makespan, 1));
  r.completed =
      submitted_ == fleet_.jobs && completed_ + rejected_ == submitted_;
  harvest_identity(r, *devices_[0]->stack.driver);
  // The fleet reports its configured large-pages flag and fault backend.
  r.large_pages = pol_cfg_.large_pages;
  r.fault_backend = to_string(sys_cfg_.fault_backend);
  r.gpu_fault_backend = sys_cfg_.fault_backend == FaultBackendKind::kGpuDriven;

  double h2d_util = 0.0;
  r.trace_events_recorded = job_recorder_->events_recorded();
  for (u32 i = 0; i < devices_.size(); ++i) {
    Device& d = *devices_[i];
    UvmDriver& drv = *d.stack.driver;
    DeviceRunResult dr;
    dr.id = i;
    dr.capacity_pages = capacity_frames_;
    dr.finish_cycle = r.cycles;
    dr.completed = r.completed;
    dr.driver = drv.stats();
    dr.h2d_pages = drv.h2d().units_moved();
    dr.d2h_pages = drv.d2h().units_moved();
    r.devices.push_back(dr);
    harvest_driver(r, drv);
    r.gpu += d.gpu_total;
    h2d_util += drv.h2d().utilisation(r.cycles);
    r.final_chain_length += drv.chains().chain(0).size();
    r.trace_events_recorded += d.stack.recorder->events_recorded();
  }
  r.h2d_utilisation = h2d_util / static_cast<double>(devices_.size());
  harvest_engine(r, *engine_);
  trace_.finish();

  FleetRunResult& f = r.fleet;
  f.enabled = true;
  f.admission = std::string(to_string(fleet_.admission));
  f.scheduler = std::string(to_string(fleet_.scheduler));
  f.devices = static_cast<u32>(devices_.size());
  f.arrival_rate = fleet_.arrival_rate;
  f.jobs_submitted = submitted_;
  f.jobs_completed = completed_;
  f.jobs_rejected = rejected_;
  f.peak_queue_depth = peak_queue_depth_;

  std::vector<double> waits, slowdowns;
  waits.reserve(completed_);
  slowdowns.reserve(completed_);
  double wait_sum = 0.0, slow_sum = 0.0;
  for (const Job& j : jobs_) {
    r.footprint_pages += j.footprint_pages;
    if (j.state == JobState::kRejected) {
      switch (j.reject_reason) {
        case JobRejectReason::kQueueFull: ++f.rejected_queue_full; break;
        case JobRejectReason::kNeverFits: ++f.rejected_never_fits; break;
        case JobRejectReason::kPolicy: ++f.rejected_policy; break;
      }
      continue;
    }
    if (j.state != JobState::kCompleted) continue;
    const double wait = static_cast<double>(j.admit - j.arrival);
    const double slow = static_cast<double>(j.finish - j.admit) /
                        static_cast<double>(solo_cycles_[j.tpl]);
    waits.push_back(wait);
    slowdowns.push_back(slow);
    wait_sum += wait;
    slow_sum += slow;
  }
  if (submitted_ > 0)
    f.rejection_rate =
        static_cast<double>(rejected_) / static_cast<double>(submitted_);
  if (r.cycles > 0)
    f.goodput = static_cast<double>(completed_) /
                (static_cast<double>(r.cycles) / 1e6);
  if (!waits.empty()) {
    f.mean_queue_wait = wait_sum / static_cast<double>(waits.size());
    f.p95_queue_wait = percentile(waits, 95.0);
    f.mean_slowdown = slow_sum / static_cast<double>(slowdowns.size());
    const PercentileSummary ps = summarize_percentiles(slowdowns);
    f.slowdown_p50 = ps.p50;
    f.slowdown_p95 = ps.p95;
    f.slowdown_p99 = ps.p99;
  }

  // Windowed fairness: Jain over 1/slowdown per 100 completions, in
  // completion order — the minimum window is the worst transient
  // unfairness the fleet inflicted. Fewer than one full window collapses
  // to a single window over everything completed.
  constexpr std::size_t kWindow = 100;
  std::vector<double> window_jain;
  std::vector<double> inv;
  for (std::size_t start = 0; start < completion_order_.size();
       start += kWindow) {
    const std::size_t end =
        std::min(start + kWindow, completion_order_.size());
    if (start > 0 && end - start < kWindow) break;  // partial tail window
    inv.clear();
    for (std::size_t i = start; i < end; ++i) {
      const Job& j = jobs_[completion_order_[i]];
      const double slow = static_cast<double>(j.finish - j.admit) /
                          static_cast<double>(solo_cycles_[j.tpl]);
      inv.push_back(slow > 0.0 ? 1.0 / slow : 0.0);
    }
    if (!inv.empty()) window_jain.push_back(jain_index(inv));
  }
  if (!window_jain.empty()) {
    f.fairness_min = *std::min_element(window_jain.begin(), window_jain.end());
    double sum = 0.0;
    for (const double v : window_jain) sum += v;
    f.fairness_mean = sum / static_cast<double>(window_jain.size());
  }
  return r;
}

}  // namespace uvmsim
