// Open-loop arrival stream: the interarrival process and template draws for
// a fleet run. "Open-loop" means gaps are independent of the system's state
// — a saturated fleet keeps receiving jobs at the offered rate, which is
// what makes admission control meaningful.
//
// Two interarrival sources share one draw interface:
//   * Poisson: exponential gaps with mean 1e6 / arrival_rate cycles, from a
//     dedicated xoshiro stream (seeded off the experiment seed), so two runs
//     with the same seed submit the identical job sequence.
//   * Trace file: one gap per line (cycles), '#' comments skipped, cycled
//     when the fleet submits more jobs than the file holds — replaying a
//     recorded production arrival process.
// Template indices always come from a second, independent RNG stream, so
// switching the gap source never perturbs the job mix.
#pragma once

#include <cassert>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "fleet/fleet_config.hpp"

namespace uvmsim {

class ArrivalStream {
 public:
  struct Arrival {
    Cycle gap = 0;  ///< cycles after the previous arrival
    u32 tpl = 0;    ///< job-mix template index
  };

  /// `trace` is the pre-parsed interarrival trace (empty = Poisson). The two
  /// RNG streams are split off `seed` with distinct SplitMix64 offsets.
  ArrivalStream(const FleetConfig& cfg, u64 seed, u32 num_templates,
                std::vector<Cycle> trace = {})
      : mean_gap_(1e6 / (cfg.arrival_rate > 0.0 ? cfg.arrival_rate : 1.0)),
        trace_(std::move(trace)),
        gap_rng_(SplitMix64(seed ^ 0xA88A1EDFACE0Full).next()),
        tpl_rng_(SplitMix64(seed ^ 0x70B5CA7A10Full).next()),
        num_templates_(num_templates) {
    assert(num_templates_ > 0);
  }

  [[nodiscard]] Arrival next() {
    Arrival a;
    if (trace_.empty()) {
      // Exponential interarrival: -ln(1 - U) * mean. uniform() < 1, so the
      // log argument stays strictly positive.
      const double u = gap_rng_.uniform();
      a.gap = static_cast<Cycle>(-std::log(1.0 - u) * mean_gap_);
    } else {
      a.gap = trace_[trace_pos_];
      trace_pos_ = (trace_pos_ + 1) % trace_.size();
    }
    a.tpl = static_cast<u32>(tpl_rng_.below(num_templates_));
    return a;
  }

  [[nodiscard]] bool trace_driven() const noexcept { return !trace_.empty(); }

  /// Parse an interarrival trace file: one unsigned decimal gap (cycles)
  /// per line, blank lines and '#' comments ignored. Returns empty on an
  /// unreadable or gap-free file (the caller falls back to Poisson or
  /// reports). Throws std::runtime_error naming the line number for any
  /// other line: a sign, trailing text, a non-number or a gap past 2^64-1.
  [[nodiscard]] static std::vector<Cycle> load_trace(const std::string& path);

 private:
  double mean_gap_;
  std::vector<Cycle> trace_;
  std::size_t trace_pos_ = 0;
  Xoshiro256 gap_rng_;
  Xoshiro256 tpl_rng_;
  u32 num_templates_;
};

}  // namespace uvmsim
