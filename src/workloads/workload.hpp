// Workload interface: a benchmark is a set of per-warp page-access streams.
//
// Substitution note (DESIGN.md §1): the paper drives GPGPU-Sim with real
// CUDA binaries; the policies under study, however, observe only the
// page-level access stream. Each synthetic workload reproduces the paper's
// Table II access-pattern *type* (and the stride/thrash/region features its
// analysis calls out) at 1/4-scaled footprints.
//
// Warp work distribution is interleaved, mirroring coalesced GPU execution:
// the warp with global index g of T total warps visits pages g, g+T, g+2T...
// of whatever region its current phase covers, so warps advance through the
// footprint together and every chunk is shared by many SMs.
#pragma once

#include <memory>
#include <string>

#include "common/types.hpp"

namespace uvmsim {

/// One page visit emitted by a stream. `think` is the number of compute
/// cycles the warp spends before issuing this access.
struct Access {
  PageId page;
  u32 think;
};

class AccessStream {
 public:
  virtual ~AccessStream() = default;
  /// Produce the next access; returns false when the warp's work is done.
  virtual bool next(Access& out) = 0;
};

/// Identity of one warp within the simulated grid.
struct WarpContext {
  u32 global_index;  ///< sm * warps_per_sm + warp
  u32 total_warps;   ///< num_sms * warps_per_sm
  u64 seed;          ///< per-warp RNG seed (derived from the experiment seed)
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::string abbr() const = 0;
  [[nodiscard]] virtual u64 footprint_pages() const = 0;
  /// The streams emit pages in [first_page(), first_page() +
  /// footprint_pages()); a relocated workload (OffsetWorkload) starts
  /// past 0.
  [[nodiscard]] virtual PageId first_page() const { return 0; }
  [[nodiscard]] virtual PatternType pattern() const = 0;
  [[nodiscard]] virtual std::unique_ptr<AccessStream> make_stream(
      const WarpContext& ctx) const = 0;

  [[nodiscard]] u64 footprint_bytes() const { return footprint_pages() * kPageBytes; }
};

}  // namespace uvmsim
