#include "fabric/sharded_fabric.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace uvmsim {

/// The per-device FabricPort. Routing is a pure function of the static home
/// map; the only mutating entry points (forward_fault, note_page_unmapped)
/// turn into engine messages.
class ShardedFabric::Port final : public FabricPort {
 public:
  Port(ShardedFabric& f, u32 dev) : f_(f), dev_(dev) {}

  FabricDecision route_fault(u32 dev, PageId p) override {
    assert(dev == dev_);
    const u32 home = f_.home_[chunk_of_page(p)];
    if (home == dev) return {};
    return {FabricRoute::kForward, home};
  }

  void forward_fault(u32 from, u32 home, PageId p, WakeCallback wake) override {
    f_.forward_fault(from, home, p, std::move(wake));
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
      hop_latency_cycles_(static_cast<Cycle>(cfg.nvlink_latency_us *
                                             sys.core_ghz * 1000.0)),
      drivers_(cfg.gpus, nullptr),
      invalidators_(cfg.gpus),
      remote_readers_(footprint_pages, 0) {
  assert(cfg.gpus >= 2 && cfg.gpus <= 32);
  for (u32 d = 0; d < cfg.gpus; ++d) {
    topos_.push_back(std::make_unique<FabricTopology>(sys, cfg));
    ports_.push_back(std::make_unique<Port>(*this, d));
  }
  // Static homes: a home never changes, so shards share it read-only.
  const u64 chunks = (footprint_pages + kChunkPages - 1) / kChunkPages;
  home_.assign(chunks, 0);
  switch (cfg.placement) {
    case PlacementKind::kRoundRobin:
      for (u64 c = 0; c < chunks; ++c)
        home_[c] = static_cast<u8>(c % cfg.gpus);
      break;
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
  // There the home driver services the fault as its own; the reply is one
  // remote access: latency hops back plus one line of occupancy on the
  // home->from path, charged on the home's topology.
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
