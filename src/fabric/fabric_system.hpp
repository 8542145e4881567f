// FabricSystem: N GPUs on one NVLink fabric running one shared workload —
// the multi-GPU sibling of UvmSystem (core/uvm_system.hpp).
//
// N full Gpu instances, each with its OWN UvmDriver (frame pool, chunk
// chains, prefetcher, PCIe link pair), run over a ShardedEngine
// (sim/sharded_engine.hpp). Under the default --engine seq the engine holds
// ONE shard whose run() is a verbatim EventQueue::run — byte-identical to
// the historical single-queue build — and the synchronous FabricCoordinator
// joins the drivers (fault routing, spill-to-peer, link timing;
// docs/fabric.md). Under --engine sharded each device owns a shard (its own
// EventQueue) advanced in parallel, and the message-passing ShardedFabric
// replaces the coordinator (forward-only home-pinned protocol;
// docs/performance.md).
//
// Each device records through its own FlightRecorder stamped with its
// device id. Sequential runs share the caller's sinks directly; sharded
// runs stage per-shard buffers and merge them into the caller's sinks after
// the run, in (cycle, shard) order — deterministic across thread counts.
//
// A 1-GPU FabricSystem builds no fabric and is cycle-for-cycle identical to
// UvmSystem (tests/fabric/fabric_system_test.cpp holds this); --engine
// sharded needs >= 2 GPUs and falls back to the sequential single shard.
#pragma once

#include <limits>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "core/device_stack.hpp"
#include "core/uvm_system.hpp"
#include "fabric/fabric.hpp"
#include "fabric/sharded_fabric.hpp"
#include "fabric/sharded_workload.hpp"
#include "gpu/gpu.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/shard_trace.hpp"
#include "sim/sharded_engine.hpp"
#include "uvm/driver.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {

class FabricSystem {
 public:
  /// `oversub` is the fraction of the footprint that fits in the COMBINED
  /// device memory; each device gets a 1/N share (with UvmSystem's
  /// per-driver capacity floor), so oversubscription pressure per device
  /// matches the single-GPU run at N = 1.
  FabricSystem(const SystemConfig& sys, const PolicyConfig& pol,
               const Workload& workload, double oversub,
               const FabricConfig& fabric, const EngineConfig& engine = {});
  ~FabricSystem();

  FabricSystem(const FabricSystem&) = delete;
  FabricSystem& operator=(const FabricSystem&) = delete;

  /// Simulate until every device's warps finish (or `max_cycles`).
  [[nodiscard]] RunResult run(
      Cycle max_cycles = std::numeric_limits<Cycle>::max());

  /// Attach a trace sink / event mask to every device's recorder. Sharded
  /// runs deliver the merged, deterministic stream to the sink after run().
  void add_sink(TraceSink* sink);
  void set_event_mask(u64 mask);

  [[nodiscard]] u32 num_gpus() const noexcept {
    return static_cast<u32>(gpus_.size());
  }
  [[nodiscard]] UvmDriver& driver(u32 d) noexcept { return *stacks_[d].driver; }
  [[nodiscard]] Gpu& gpu(u32 d) noexcept { return *gpus_[d]; }
  /// Shard 0's queue — THE queue under --engine seq.
  [[nodiscard]] EventQueue& queue() noexcept { return engine_->queue(0); }
  [[nodiscard]] ShardedEngine& engine() noexcept { return *engine_; }
  [[nodiscard]] bool sharded() const noexcept { return sharded_ != nullptr; }
  /// Null for 1-GPU and sharded systems (no coordinator is built).
  [[nodiscard]] FabricCoordinator* fabric() noexcept { return coord_.get(); }
  /// Null outside --engine sharded.
  [[nodiscard]] ShardedFabric* sharded_fabric() noexcept {
    return sharded_.get();
  }

 private:
  SystemConfig sys_cfg_;
  PolicyConfig pol_cfg_;
  FabricConfig fab_cfg_;
  const Workload& workload_;
  double oversub_;

  std::unique_ptr<ShardedEngine> engine_;
  std::unique_ptr<FabricCoordinator> coord_;
  std::unique_ptr<ShardedFabric> sharded_;
  std::vector<DeviceStack> stacks_;  ///< one per device
  std::vector<std::unique_ptr<ShardedWorkload>> shards_;
  std::vector<std::unique_ptr<Gpu>> gpus_;
  ShardTraceStage trace_;  ///< staged per device under --engine sharded
};

}  // namespace uvmsim
