// ShardedWorkload: one device's slice of a workload shared by N GPUs.
//
// A multi-GPU run executes ONE workload whose warp space is partitioned
// across the devices: device d runs warps [base, base + per-device warps)
// of the grand total. The wrapper only remaps the WarpContext — every
// device sees the full footprint (that is the point: pages are shared, and
// the fabric decides where they live). With base 0 and the grand total
// equal to one device's warp count this is the identity, so a 1-GPU
// FabricSystem reproduces UvmSystem exactly.
#pragma once

#include <memory>

#include "workloads/workload.hpp"

namespace uvmsim {

class ShardedWorkload final : public Workload {
 public:
  ShardedWorkload(const Workload& inner, u32 warp_base, u32 total_warps)
      : inner_(inner), warp_base_(warp_base), total_warps_(total_warps) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::string abbr() const override { return inner_.abbr(); }
  [[nodiscard]] u64 footprint_pages() const override {
    return inner_.footprint_pages();
  }
  [[nodiscard]] PatternType pattern() const override { return inner_.pattern(); }
  [[nodiscard]] PageId first_page() const override { return inner_.first_page(); }

  [[nodiscard]] std::unique_ptr<AccessStream> make_stream(
      const WarpContext& ctx) const override {
    const WarpContext global{
        .global_index = ctx.global_index + warp_base_,
        .total_warps = total_warps_,
        .seed = ctx.seed,
    };
    return inner_.make_stream(global);
  }

 private:
  const Workload& inner_;
  u32 warp_base_;
  u32 total_warps_;
};

}  // namespace uvmsim
