// Timing probes that measure simulator layers from outside, through seams
// the program already exposes:
//
//   TimedEvictionPolicy / TimedPrefetcher — decorators registered in the
//       PolicyRegistry under the benchmark's own names; each wraps the
//       built-in policy a preset selects and forwards every virtual.
//   TimedWorkload — a Workload whose streams time each AccessStream::next.
//   CountingSink — a TraceSink that counts flight-recorder events by type.
//
// Every decorator instance (and every stream) owns its own Probe, created
// through the ProbeSet under a mutex, because the sharded engine calls
// policies and streams from worker threads. Probes are summed only after
// run() has returned, so no counter is shared between threads.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "obs/trace_sink.hpp"
#include "policy/eviction_policy.hpp"
#include "prefetch/prefetcher.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using uvmsim::u64;

enum class Layer : std::uint8_t { kPolicy, kPrefetch, kWorkloads, kCount };

/// Calls the benchmark times, per layer. One flat enum keeps the per-probe
/// table a fixed array.
enum class Call : std::uint8_t {
  // policy
  kOnChunkInserted, kOnPageTouched, kOnFault, kOnIntervalBoundary,
  kSelectVictim, kSelectVictims, kSelectVictimsFiltered, kOnChunkEvicted,
  kInsertPosition, kReorderOnTouch, kPolicySetRecorder, kPolicyName,
  // prefetch
  kPlan, kPrefetchOnChunkEvicted, kForgetRange, kPrefetchSetRecorder,
  kPrefetchName,
  // workloads
  kMakeStream, kNext,
  kCount
};

[[nodiscard]] const char* layer_name(Layer l);
[[nodiscard]] const char* call_name(Call c);
[[nodiscard]] Layer layer_of(Call c);

struct CallStat {
  u64 calls = 0;
  u64 ns = 0;  ///< raw measured time, clock overhead not yet removed
};

/// One sampled span: a timed call, relative to the pass epoch.
struct Span {
  Call call;
  std::uint32_t experiment;
  u64 start_ns;
  u64 dur_ns;
};

/// Per-instance counters. `items` is the layer's work unit: victims evicted
/// (policy), pages planned (prefetch), accesses produced (workloads).
struct Probe {
  static constexpr std::size_t kSpanCap = 8;
  static constexpr u64 kSpanStride = 4096;

  Layer layer = Layer::kPolicy;
  std::uint32_t experiment = 0;
  std::array<CallStat, static_cast<std::size_t>(Call::kCount)> stats{};
  u64 items = 0;
  std::vector<Span> spans;
};

/// All probes of one pass. `make` is thread-safe; `totals` and `spans` are
/// read after the simulation has finished.
class ProbeSet {
 public:
  /// Start a pass: drop the previous pass's probes and reset the epoch.
  void reset();
  /// Experiment index stamped on probes created from now on.
  void set_experiment(std::uint32_t e);
  [[nodiscard]] Probe& make(Layer layer);
  [[nodiscard]] Clock::time_point epoch() const { return epoch_; }

  [[nodiscard]] std::array<CallStat, static_cast<std::size_t>(Call::kCount)>
  totals() const;
  [[nodiscard]] std::array<u64, static_cast<std::size_t>(Layer::kCount)>
  items() const;
  /// At most `cap` spans per call, evenly subsampled from all probes.
  [[nodiscard]] std::vector<Span> spans(std::size_t cap) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Probe>> probes_;
  std::uint32_t experiment_ = 0;
  Clock::time_point epoch_ = Clock::now();
};

/// The process-wide probe set the registered decorators report into.
[[nodiscard]] ProbeSet& probes();

/// Median cost, in ns, that one timed scope adds to its own measurement
/// (two clock reads around nothing). Subtracted per call when reporting.
[[nodiscard]] double clock_overhead_ns();

/// RAII timer for one call into a layer.
class Timed {
 public:
  Timed(Probe& p, Call c) : p_(p), c_(c), t0_(Clock::now()) {}
  ~Timed();
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Probe& p_;
  Call c_;
  Clock::time_point t0_;
};

class TimedEvictionPolicy final : public uvmsim::EvictionPolicy {
 public:
  TimedEvictionPolicy(std::unique_ptr<uvmsim::EvictionPolicy> inner,
                      uvmsim::ChunkChain& chain, Probe& probe)
      : EvictionPolicy(chain), inner_(std::move(inner)), probe_(probe) {}

  void on_chunk_inserted(uvmsim::ChunkEntry& e) override;
  void on_page_touched(uvmsim::ChunkEntry& e, uvmsim::u32 page) override;
  void on_fault(uvmsim::PageId page) override;
  void on_interval_boundary() override;
  [[nodiscard]] uvmsim::ChunkId select_victim() override;
  [[nodiscard]] std::vector<uvmsim::ChunkId> select_victims(u64 max) override;
  [[nodiscard]] std::vector<uvmsim::ChunkId> select_victims(
      u64 max, const uvmsim::ChunkFilter& allow) override;
  void on_chunk_evicted(const uvmsim::ChunkEntry& e) override;
  [[nodiscard]] uvmsim::InsertPosition insert_position(
      uvmsim::ChunkId chunk) override;
  [[nodiscard]] bool reorder_on_touch() const override;
  [[nodiscard]] std::string name() const override;
  void set_recorder(uvmsim::FlightRecorder* rec) override;

 private:
  std::unique_ptr<uvmsim::EvictionPolicy> inner_;
  Probe& probe_;
};

class TimedPrefetcher final : public uvmsim::Prefetcher {
 public:
  TimedPrefetcher(std::unique_ptr<uvmsim::Prefetcher> inner, Probe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  [[nodiscard]] std::vector<uvmsim::PageId> plan(
      uvmsim::PageId faulted, const uvmsim::ResidencyView& view) override;
  void on_chunk_evicted(uvmsim::ChunkId chunk, uvmsim::TouchBits touched) override;
  void forget_range(uvmsim::PageId base, u64 pages) override;
  [[nodiscard]] std::string name() const override;
  void set_recorder(uvmsim::FlightRecorder* rec) override;

 private:
  std::unique_ptr<uvmsim::Prefetcher> inner_;
  Probe& probe_;
};

/// Wraps a workload; each stream it makes gets its own Probe.
class TimedWorkload final : public uvmsim::Workload {
 public:
  explicit TimedWorkload(const uvmsim::Workload& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::string abbr() const override { return inner_.abbr(); }
  [[nodiscard]] u64 footprint_pages() const override {
    return inner_.footprint_pages();
  }
  [[nodiscard]] uvmsim::PatternType pattern() const override {
    return inner_.pattern();
  }
  [[nodiscard]] std::unique_ptr<uvmsim::AccessStream> make_stream(
      const uvmsim::WarpContext& ctx) const override;

 private:
  const uvmsim::Workload& inner_;
};

/// Counts flight-recorder events by type; never stores them.
class CountingSink final : public uvmsim::TraceSink {
 public:
  void emit(const uvmsim::TraceEvent& e) override;
  [[nodiscard]] u64 total() const;
  [[nodiscard]] const std::array<u64, 256>& by_type() const { return by_type_; }

 private:
  std::array<u64, 256> by_type_{};
};

/// Registry names of the decorators (registered once, before any run).
inline constexpr const char* kTimedEviction = "perfbench.timed-eviction";
inline constexpr const char* kTimedPrefetch = "perfbench.timed-prefetch";

/// Register both decorators. Each wraps the policy the config's enum
/// selects, so a traced config is the untraced preset with the two name
/// fields pointed at the decorators (see traced()).
void register_timed_policies();

/// `cfg` with its eviction policy and prefetcher wrapped by the decorators.
/// The preset must select its policies by enum, not by name.
[[nodiscard]] uvmsim::PolicyConfig traced(uvmsim::PolicyConfig cfg);

}  // namespace perfbench
