// FleetSystem: fleet-scale serving of an open-loop job stream over a
// multi-device fabric of independent memory systems (docs/fleet.md).
//
// A ShardedEngine (sim/sharded_engine.hpp) drives everything. Each device
// owns an arena TenantTable (dynamic attach/detach with namespace and slot
// recycling), a UvmDriver over the fixed arena span with capacity =
// oversub * arena (so resident jobs genuinely oversubscribe device memory),
// and a FlightRecorder. Jobs arrive open-loop (ArrivalStream), pass
// admission control (AdmissionController), are placed by the FleetScheduler,
// run as a SM-sliced Gpu over an OffsetWorkload at their attached namespace
// base, and on completion detach — returning their namespace region, tenant
// slot and frames for reuse — before the admission queue is re-drained.
//
// Under the default --engine seq the engine holds ONE shard and every
// component shares its queue — byte-identical to the historical build.
// Under --engine sharded, shard 0 is the CONTROL plane (arrivals, admission,
// placement, job bookkeeping, per-device shadow tables) and shard 1+d is
// device d (table, driver, recorder, running Gpus); admission and completion
// cross shards as messages delayed by the fault-service round trip (the
// lookahead), and the control shard's shadow table attaches earlier /
// detaches later than the device table, so the region it prescribes is
// always free on arrival (the subset invariant, docs/performance.md).
//
// SLA accounting: per-job slowdown against a solo-calibrated baseline (one
// UvmSystem run per job template, cached in the constructor), nearest-rank
// p50/p95/p99, goodput, queue wait, rejection rate and windowed Jain
// fairness, all assembled into RunResult::fleet.
//
// Lifecycle trace events (kJobArrived/Admitted/Rejected/Completed) go to a
// fleet-level recorder with no device stamp; per-device fault traffic goes
// to that device's recorder (device-stamped when devices > 1). Runs are
// deterministic for a fixed seed: arrivals, template draws and job seeds
// all derive from PolicyConfig::seed — under the sharded engine, also
// independent of the worker-thread count.
#pragma once

#include <array>
#include <limits>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "core/device_stack.hpp"
#include "core/uvm_system.hpp"
#include "fleet/admission.hpp"
#include "fleet/arrival.hpp"
#include "fleet/fleet_config.hpp"
#include "fleet/job.hpp"
#include "fleet/scheduler.hpp"
#include "gpu/gpu.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/shard_trace.hpp"
#include "sim/sharded_engine.hpp"
#include "tenancy/offset_workload.hpp"
#include "tenancy/tenant.hpp"
#include "uvm/driver.hpp"

namespace uvmsim {

class FleetSystem {
 public:
  FleetSystem(const SystemConfig& sys, const PolicyConfig& pol,
              const FleetConfig& fleet, const EngineConfig& engine = {});
  ~FleetSystem();

  FleetSystem(const FleetSystem&) = delete;
  FleetSystem& operator=(const FleetSystem&) = delete;

  /// Drive the whole job stream to completion (or `max_cycles`) and return
  /// the aggregate result: fleet SLA slice in `result.fleet`, per-device
  /// driver slices in `result.devices`.
  [[nodiscard]] RunResult run(
      Cycle max_cycles = std::numeric_limits<Cycle>::max());

  /// Attach a sink to the fleet-level recorder and every device recorder —
  /// one JSONL stream carries job lifecycle and fault traffic interleaved.
  /// Sharded runs stage per-shard buffers and deliver the merged,
  /// deterministic stream after run().
  void add_sink(TraceSink* sink);
  /// Apply an event filter to the fleet-level and every device recorder.
  void set_event_mask(u64 mask);

  /// The control shard's queue — THE queue under --engine seq.
  [[nodiscard]] EventQueue& queue() noexcept { return engine_->queue(0); }
  [[nodiscard]] ShardedEngine& engine() noexcept { return *engine_; }
  [[nodiscard]] bool sharded() const noexcept { return sharded_; }
  [[nodiscard]] FlightRecorder& job_recorder() noexcept {
    return *job_recorder_;
  }
  [[nodiscard]] const std::vector<Job>& jobs() const noexcept { return jobs_; }
  [[nodiscard]] u32 devices() const noexcept {
    return static_cast<u32>(devices_.size());
  }
  /// Solo-calibrated cycles of job template `tpl` (the slowdown denominator).
  [[nodiscard]] Cycle solo_cycles(u32 tpl) const { return solo_cycles_[tpl]; }

 private:
  /// One device's memory system: arena table, device stack, and the load
  /// counters admission and placement consult. Under --engine sharded,
  /// `table`/`stack`/`gpu_total` belong to the device shard;
  /// the accounting counters are written only by the control shard.
  struct Device {
    TenantTable table;
    DeviceStack stack;
    u64 promised_frames = 0;  ///< Σ min(footprint, capacity) of resident jobs
    u64 active_jobs = 0;
    /// Resident jobs per PatternType (indexed by enum value, 1..6).
    std::array<u64, 8> pattern_active{};
    Gpu::Stats gpu_total;     ///< accumulated at each job's teardown
  };

  /// A running job's simulation objects, destroyed at teardown. Owned by
  /// the job's device shard when the engine is sharded.
  struct Running {
    std::unique_ptr<OffsetWorkload> workload;
    std::unique_ptr<Gpu> gpu;
    TenantId tenant = kNoTenant;  ///< DEVICE-table slot (sharded only)
    u32 device = ~u32{0};
  };

  void schedule_next_arrival();
  void on_arrival(u64 id);
  /// Admit `id` somewhere if a device passes admission; false = no device.
  bool try_admit(u64 id);
  void admit(u64 id, u32 device);
  void reject(u64 id, JobRejectReason reason);
  /// Device-shard half of a sharded admission: replay the control shard's
  /// attach at the prescribed base and launch the Gpu.
  void launch_job(u64 id, u32 device, PageId base);
  /// Teardown, scheduled onto the queue by the Gpu's on_finished hook (the
  /// hook fires inside the last warp's event; destroying the Gpu there
  /// would free the running callback's owner). Sequential engine only —
  /// sharded runs split this into device_complete + control_complete.
  void complete(u64 id);
  /// Device-shard half of a sharded completion: teardown, then message the
  /// control shard with the finish cycle.
  void device_complete(u64 id);
  /// Control-shard half: bookkeeping, shadow detach, queue re-drain.
  void control_complete(u64 id, Cycle finish);
  void drain_queue();
  /// The table admission consults: the device table itself (sequential) or
  /// the control shard's shadow of it (sharded).
  [[nodiscard]] TenantTable& view(u32 device) noexcept {
    return sharded_ ? *shadow_tables_[device] : devices_[device]->table;
  }
  [[nodiscard]] EventQueue& dev_queue(u32 device) noexcept {
    return engine_->queue(sharded_ ? 1 + device : 0);
  }
  [[nodiscard]] DeviceLoad load_of(u32 device, const Job& j) const;
  [[nodiscard]] u64 job_seed(u64 id) const;
  [[nodiscard]] u64 promise_of(const Job& j) const;

  SystemConfig sys_cfg_;
  SystemConfig job_cfg_;  ///< sys_cfg_ with the per-job SM slice
  PolicyConfig pol_cfg_;
  FleetConfig fleet_;
  u64 capacity_frames_ = 0;  ///< per device
  u64 job_slots_ = 0;        ///< concurrent SM-slice slots per device
  bool sharded_ = false;
  Cycle lookahead_ = 1;      ///< cross-shard message delay (fault RTT)

  std::unique_ptr<ShardedEngine> engine_;
  std::unique_ptr<FlightRecorder> job_recorder_;
  std::vector<std::unique_ptr<Workload>> mix_;
  std::vector<Cycle> solo_cycles_;  ///< per template
  std::unique_ptr<ArrivalStream> arrivals_;
  AdmissionController admission_;
  FleetScheduler scheduler_;
  std::vector<std::unique_ptr<Device>> devices_;
  /// Sharded only: the control shard's per-device shadow arena tables.
  std::vector<std::unique_ptr<TenantTable>> shadow_tables_;
  /// Job recorder and every device recorder; staged per shard (0 = job
  /// recorder, 1+d = device d) under --engine sharded.
  ShardTraceStage trace_;

  std::vector<Job> jobs_;
  std::vector<Running> running_;  ///< indexed by job id
  std::vector<u64> queue_;        ///< FIFO of queued job ids (drain bypasses)
  std::vector<u64> completion_order_;  ///< job ids, in completion order
  u64 submitted_ = 0;
  u64 completed_ = 0;
  u64 rejected_ = 0;
  u64 peak_queue_depth_ = 0;
};

}  // namespace uvmsim
