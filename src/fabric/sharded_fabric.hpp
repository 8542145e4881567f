// ShardedFabric: the multi-GPU fabric — the one multi-device model
// (docs/fabric.md). Its FabricPorts join the per-device drivers.
//
// Every cross-device interaction is a timestamped ShardMessage, so the
// shards can run on any number of threads (docs/performance.md). The
// protocol is *forward-only and home-pinned*:
//
//   * every chunk has a static home device (the --placement map, fixed at
//     construction: round-robin or affinity slices);
//   * a fault on a page homed elsewhere is forwarded to the home device as
//     a message (one request hop), serviced there by the home's own driver/
//     policy/prefetcher, and answered with a reply message timed as one
//     remote access (latency hops + one line of occupancy);
//   * pages never migrate between devices, so the page directory is the
//     static home map — shards share only immutable state plus messages;
//   * evicting a remotely-accessed page broadcasts shootdown messages to
//     the devices that actually touched it (physical hop latency).
//
// Timing: lookahead = one NVLink/PCIe hop (every message crosses >= 1 hop).
// Each device charges link occupancy on a PRIVATE copy of the topology —
// cross-initiator link contention is not modelled (a documented
// approximation); per-link totals are summed across copies for RunResult.
#pragma once

#include <cassert>
#include <functional>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "fabric/topology.hpp"
#include "sim/sharded_engine.hpp"
#include "uvm/driver.hpp"
#include "uvm/fabric_port.hpp"

namespace uvmsim {

class ShardedFabric {
 public:
  ShardedFabric(ShardedEngine& engine, const SystemConfig& sys,
                const FabricConfig& cfg, u64 footprint_pages);
  ~ShardedFabric();

  ShardedFabric(const ShardedFabric&) = delete;
  ShardedFabric& operator=(const ShardedFabric&) = delete;

  /// Register device `dev`'s driver. Call for every device before launch.
  void attach_device(u32 dev, UvmDriver* driver);
  /// Register the remote-TLB invalidation hook for `dev` (normally
  /// Gpu::remote_shootdown), fired by shootdown messages.
  void set_invalidator(u32 dev, std::function<void(PageId)> inv);

  /// The FabricPort device `dev`'s driver attaches to.
  [[nodiscard]] FabricPort* port(u32 dev) noexcept;

  /// Device `dev`'s private topology copy (link stats aggregation).
  [[nodiscard]] const FabricTopology& topology(u32 dev) const noexcept {
    return *topos_[dev];
  }
  [[nodiscard]] u32 home_of(ChunkId c) const noexcept { return home_[c]; }

 private:
  class Port;

  ShardedEngine& engine_;
  Cycle hop_latency_cycles_;
  std::vector<UvmDriver*> drivers_;
  std::vector<std::function<void(PageId)>> invalidators_;
  std::vector<std::unique_ptr<FabricTopology>> topos_;
  std::vector<std::unique_ptr<Port>> ports_;
  /// Per chunk: the (static) home device.
  std::vector<u8> home_;
  /// Per page: bitmask of devices that consumed it remotely since it last
  /// became resident — written and read only on the page's home shard, so
  /// no synchronisation is needed. Bounds the shootdown broadcast.
  std::vector<u32> remote_readers_;

  void forward_fault(u32 from, u32 home, PageId p, WakeCallback wake);
  void page_unmapped(u32 dev, PageId p);
};

}  // namespace uvmsim
