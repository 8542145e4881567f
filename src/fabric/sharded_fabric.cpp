#include "fabric/sharded_fabric.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace uvmsim {

/// The per-device FabricPort. Routing is a pure function of the static home
/// map; the only mutating entry points (forward_fault, note_page_unmapped)
/// turn into engine messages. Peer fetch, spill and surrender are
/// unreachable under the forward-only protocol: route_fault never returns
/// kPeerFetch/kRemoteAccess/kRetry, and the fabric system disables spill.
class ShardedFabric::Port final : public FabricPort {
 public:
  Port(ShardedFabric& f, u32 dev) : f_(f), dev_(dev) {}

  FabricDecision route_fault(u32 dev, PageId p) override {
    assert(dev == dev_);
    const u32 home = f_.home_[chunk_of_page(p)];
    if (home == dev) return {};
    return {FabricRoute::kForward, home, false};
  }

  Cycle charge_remote(u32 dev, u32 owner, PageId p) override {
    // Unreachable (route_fault never returns kRemoteAccess) — kept
    // semantically correct for direct API users: same timing model as the
    // coordinator, charged on this device's private topology copy.
    (void)p;
    FabricTopology& topo = *f_.topos_[dev_];
    const Cycle latency = 2 * topo.hops(owner, dev) * f_.hop_latency_cycles_;
    return topo.reserve_path(owner, dev, 1,
                             f_.engine_.queue(dev_).now() + latency);
  }

  void forward_fault(u32 from, u32 home, PageId p, WakeCallback wake) override {
    f_.forward_fault(from, home, p, std::move(wake));
  }

  Cycle reserve_transfer(u32 src, u32 dst, u64 pages, Cycle earliest) override {
    // Unreachable: the scheduler only calls this for peer-sourced
    // migrations, which the forward-only protocol never creates.
    assert(src == kHostDevice || dst == kHostDevice || !"peer transfer");
    (void)src;
    (void)dst;
    (void)pages;
    return earliest;
  }

  void note_page_mapped(u32 dev, PageId p) override {
    // The home map is static and pages only ever map on their home device,
    // so there is no directory to update. A page becoming resident again
    // clears its remote-reader set (new copies start shootdown-clean).
    assert(dev == dev_);
    (void)dev;
    f_.remote_readers_[p] = 0;
  }

  void note_page_unmapped(u32 dev, PageId p) override {
    assert(dev == dev_);
    (void)dev;
    f_.page_unmapped(dev_, p);
  }

  void surrender_at(u32, PageId) override { assert(!"unreachable: no peer fetch"); }

  u32 spill_target(u32, u64) override {
    // Spill is disabled under the sharded engine (chunks may not change
    // device); evictions write back to host as usual.
    return kHostDevice;
  }

  void spill_chunk(u32, u32, ChunkId, const TouchBits&) override {
    assert(!"unreachable: spill disabled");
  }

  [[nodiscard]] bool host_fetchable(u32 dev, PageId p) const override {
    // A non-home device must never host-fetch the page (its faults forward
    // instead, and its prefetcher treats the page as not-fetchable).
    return f_.home_[chunk_of_page(p)] == dev;
  }

 private:
  ShardedFabric& f_;
  u32 dev_;
};

ShardedFabric::ShardedFabric(ShardedEngine& engine, const SystemConfig& sys,
                             const FabricConfig& cfg, u64 footprint_pages)
    : engine_(engine),
      cfg_(cfg),
      hop_latency_cycles_(static_cast<Cycle>(cfg.nvlink_latency_us *
                                             sys.core_ghz * 1000.0)),
      lines_per_page_(static_cast<u32>(kPageBytes) / sys.cache_line_bytes),
      drivers_(cfg.gpus, nullptr),
      invalidators_(cfg.gpus),
      remote_readers_(footprint_pages, 0) {
  assert(cfg.gpus >= 2 && cfg.gpus <= 32);
  for (u32 d = 0; d < cfg.gpus; ++d) {
    topos_.push_back(std::make_unique<FabricTopology>(sys, cfg));
    ports_.push_back(std::make_unique<Port>(*this, d));
  }
  // Static homes. First-touch needs a lazily-written shared directory —
  // the one cross-shard mutation this protocol removes — so it resolves to
  // the affinity slices (documented in docs/performance.md).
  const u64 chunks = (footprint_pages + kChunkPages - 1) / kChunkPages;
  home_.assign(chunks, 0);
  switch (cfg.placement) {
    case PlacementKind::kRoundRobin:
      for (u64 c = 0; c < chunks; ++c)
        home_[c] = static_cast<u8>(c % cfg.gpus);
      break;
    case PlacementKind::kFirstTouch:
    case PlacementKind::kAffinity: {
      const u64 per = (chunks + cfg.gpus - 1) / cfg.gpus;
      for (u64 c = 0; c < chunks; ++c)
        home_[c] = static_cast<u8>(std::min<u64>(c / per, cfg.gpus - 1));
      break;
    }
  }
}

ShardedFabric::~ShardedFabric() = default;

void ShardedFabric::attach_device(u32 dev, UvmDriver* driver) {
  assert(dev < drivers_.size() && driver != nullptr);
  drivers_[dev] = driver;
}

void ShardedFabric::set_invalidator(u32 dev, std::function<void(PageId)> inv) {
  assert(dev < invalidators_.size());
  invalidators_[dev] = std::move(inv);
}

FabricPort* ShardedFabric::port(u32 dev) noexcept { return ports_[dev].get(); }

void ShardedFabric::forward_fault(u32 from, u32 home, PageId p,
                                  WakeCallback wake) {
  // Request: one message crossing the fabric to the home shard (latency
  // only — a fault packet's occupancy is negligible next to page data).
  // There the home driver services the fault as its own; the reply is timed
  // like the coordinator's remote access: latency hops back plus one line
  // of occupancy on the home->from path, charged on the home's topology.
  const Cycle req = engine_.queue(from).now() +
                    topos_[from]->hops(from, home) * hop_latency_cycles_;
  auto w = std::make_shared<WakeCallback>(std::move(wake));
  engine_.post(from, home, req, [this, from, home, p, w] {
    remote_readers_[p] |= u32{1} << from;
    drivers_[home]->fault(p, [this, from, home, p, w] {
      (void)p;
      FabricTopology& topo = *topos_[home];
      const Cycle back = engine_.queue(home).now() +
                         topo.hops(home, from) * hop_latency_cycles_;
      const Cycle done = topo.reserve_path(home, from, 1, back);
      engine_.post(home, from, done, [w] { (*w)(); });
    });
  });
}

void ShardedFabric::page_unmapped(u32 dev, PageId p) {
  // Only devices that actually consumed the page remotely can hold TLB
  // entries or page-tagged cache lines for it; message them the shootdown
  // at physical hop latency.
  const u32 readers = remote_readers_[p];
  if (readers == 0) return;
  remote_readers_[p] = 0;
  const Cycle now = engine_.queue(dev).now();
  for (u32 d = 0; d < static_cast<u32>(invalidators_.size()); ++d) {
    if (d == dev || (readers & (u32{1} << d)) == 0) continue;
    const Cycle arrive = now + topos_[dev]->hops(dev, d) * hop_latency_cycles_;
    engine_.post(dev, d, arrive, [this, d, p] {
      if (invalidators_[d]) invalidators_[d](p);
    });
  }
}

}  // namespace uvmsim
