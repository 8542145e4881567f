// FabricTopology: the link graph joining the GPUs of a multi-GPU run.
//
// Three presets (FabricKind):
//   pcie    no peer links — peer traffic is routed through the host over
//           two PCIe-rate hops (src -> host -> dst);
//   ring    NVLink ring — adjacent devices joined bidirectionally, a
//           transfer takes the shorter direction (ties go clockwise);
//   switch  fully-connected NVSwitch — every ordered pair has its own link.
//
// Transfer units are cache lines (one coalesced transaction, 128 B): a
// remote access moves one line, a page migration moves 32. Per-line
// occupancies are fractional for every realistic rate (NVLink 25 GB/s ->
// 7.168 cy/line at 1.4 GHz), which is exactly what BandwidthLink's
// fixed-point accumulator exists for. Multi-hop paths reserve each hop in
// order (store-and-forward), so a congested middle hop delays the tail.
#pragma once

#include <cassert>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "mem/bandwidth_link.hpp"
#include "uvm/driver_types.hpp"

namespace uvmsim {

class FabricTopology {
 public:
  struct Link {
    u32 src;  ///< kHostDevice for the host endpoint
    u32 dst;
    std::string name;
    BandwidthLink link;
  };

  FabricTopology(const SystemConfig& sys, const FabricConfig& cfg)
      : kind_(cfg.topology), gpus_(cfg.gpus) {
    assert(gpus_ >= 2);
    const double line_bytes = static_cast<double>(sys.cache_line_bytes);
    const double peer_cy = line_bytes / cfg.nvlink_bw_gbps * sys.core_ghz;
    const double host_cy = line_bytes / sys.pcie_bw_gbps * sys.core_ghz;
    peer_index_.assign(gpus_, std::vector<u32>(gpus_, kNoLink));

    const auto add_peer = [&](u32 a, u32 b) {
      peer_index_[a][b] = static_cast<u32>(links_.size());
      links_.push_back({a, b, link_name(a, b), BandwidthLink(peer_cy)});
    };
    switch (kind_) {
      case FabricKind::kPcie:
        // Peer transfers bounce through the host at PCIe rate.
        for (u32 d = 0; d < gpus_; ++d) {
          up_index_.push_back(static_cast<u32>(links_.size()));
          links_.push_back(
              {d, kHostDevice, link_name(d, kHostDevice), BandwidthLink(host_cy)});
          down_index_.push_back(static_cast<u32>(links_.size()));
          links_.push_back(
              {kHostDevice, d, link_name(kHostDevice, d), BandwidthLink(host_cy)});
        }
        break;
      case FabricKind::kRing:
        for (u32 d = 0; d < gpus_; ++d) {
          const u32 next = (d + 1) % gpus_;
          if (gpus_ == 2 && d == 1) break;  // both directions already exist
          add_peer(d, next);
          add_peer(next, d);
        }
        break;
      case FabricKind::kSwitch:
        for (u32 a = 0; a < gpus_; ++a)
          for (u32 b = 0; b < gpus_; ++b)
            if (a != b) add_peer(a, b);
        break;
    }
  }

  [[nodiscard]] FabricKind kind() const noexcept { return kind_; }
  /// Peer-to-peer NVLink paths exist (pcie bounces peer traffic via host).
  [[nodiscard]] bool peer_capable() const noexcept {
    return kind_ != FabricKind::kPcie;
  }

  /// Hop count of the src -> dst path (devices only; src != dst).
  [[nodiscard]] u32 hops(u32 src, u32 dst) const {
    assert(src != dst && src < gpus_ && dst < gpus_);
    switch (kind_) {
      case FabricKind::kPcie: return 2;
      case FabricKind::kSwitch: return 1;
      case FabricKind::kRing: {
        const u32 fwd = (dst + gpus_ - src) % gpus_;
        return std::min(fwd, gpus_ - fwd);
      }
    }
    return 1;
  }

  /// Reserve occupancy for `units` lines along the src -> dst path, starting
  /// no earlier than `earliest`; returns the completion cycle of the last
  /// hop (store-and-forward).
  Cycle reserve_path(u32 src, u32 dst, u64 units, Cycle earliest) {
    assert(src != dst && src < gpus_ && dst < gpus_);
    Cycle t = earliest;
    if (kind_ == FabricKind::kPcie) {
      t = links_[up_index_[src]].link.reserve(t, units);
      return links_[down_index_[dst]].link.reserve(t, units);
    }
    if (kind_ == FabricKind::kSwitch)
      return links_[peer_index_[src][dst]].link.reserve(t, units);
    // Ring: walk the shorter direction; ties go clockwise (+1).
    const u32 fwd = (dst + gpus_ - src) % gpus_;
    const bool clockwise = fwd <= gpus_ - fwd;
    u32 at = src;
    while (at != dst) {
      const u32 next = clockwise ? (at + 1) % gpus_ : (at + gpus_ - 1) % gpus_;
      t = links_[peer_index_[at][next]].link.reserve(t, units);
      at = next;
    }
    return t;
  }

  [[nodiscard]] const std::vector<Link>& links() const noexcept { return links_; }

 private:
  static constexpr u32 kNoLink = ~u32{0};

  /// "d0->d1", "d0->host", "host->d0". Appended piecewise: g++ 12 reports a
  /// -Wrestrict false positive inside libstdc++ for `"d" + std::to_string(n)`.
  static std::string link_name(u32 src, u32 dst) {
    std::string name;
    const auto endpoint = [&name](u32 dev) {
      if (dev == kHostDevice) {
        name += "host";
      } else {
        name += 'd';
        name += std::to_string(dev);
      }
    };
    endpoint(src);
    name += "->";
    endpoint(dst);
    return name;
  }

  FabricKind kind_;
  u32 gpus_;
  std::vector<Link> links_;
  std::vector<std::vector<u32>> peer_index_;  ///< [src][dst] -> links_ index
  std::vector<u32> up_index_, down_index_;    ///< pcie preset host links
};

}  // namespace uvmsim
