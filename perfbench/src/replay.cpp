#include "replay.hpp"

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/event_queue.hpp"
#include "tlb/tlb.hpp"

namespace perfbench {

using namespace uvmsim;

namespace {

constexpr int kReps = 5;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double ns_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

std::vector<PageId> page_stream(Scenario s, u64 seed) {
  constexpr u32 kWarps = 28 * 8;
  constexpr std::size_t kTotal = 1 << 20;
  const auto workloads = scenario_workloads(s);
  const std::size_t per_workload = kTotal / workloads.size();
  std::vector<PageId> pages;
  pages.reserve(kTotal);
  for (const auto& wl : workloads) {
    SplitMix64 seeder(seed);
    std::vector<std::unique_ptr<AccessStream>> streams;
    for (u32 g = 0; g < kWarps; ++g)
      streams.push_back(wl->make_stream(
          WarpContext{.global_index = g, .total_warps = kWarps, .seed = seeder.next()}));
    std::size_t taken = 0;
    bool any = true;
    while (any && taken < per_workload) {
      any = false;
      for (auto& st : streams) {
        Access a{};
        if (taken == per_workload || !st->next(a)) continue;
        pages.push_back(a.page);
        ++taken;
        any = true;
      }
    }
  }
  return pages;
}

}  // namespace

double tlb_replay_ns_per_lookup(Scenario s, u64 seed) {
  const std::vector<PageId> pages = page_stream(s, seed);
  const SystemConfig cfg;
  std::vector<double> samples;
  for (int rep = 0; rep < kReps; ++rep) {
    Tlb l1("L1TLB", cfg.l1_tlb_entries, cfg.l1_tlb_ways, cfg.l1_tlb_latency);
    Tlb l2("L2TLB", cfg.l2_tlb_entries, cfg.l2_tlb_ways, cfg.l2_tlb_latency,
           cfg.l2_tlb_ports);
    Cycle now = 0;
    u64 lookups = 0;
    const auto t0 = Clock::now();
    for (const PageId p : pages) {
      ++lookups;
      if (l1.lookup(now, p).hit) {
        ++now;
        continue;
      }
      ++lookups;
      if (!l2.lookup(now, p).hit) l2.fill(p);
      l1.fill(p);
      ++now;
    }
    const auto t1 = Clock::now();
    samples.push_back(ns_between(t0, t1) / static_cast<double>(lookups));
  }
  return median(samples);
}

namespace {

struct HoldState {
  EventQueue q;
  Xoshiro256 rng;
  u64 remaining = 0;
  explicit HoldState(u64 seed) : rng(seed) {}
};

/// One hold-model event: when it runs, it schedules its successor at a
/// random delay, keeping the pending population constant until the budget
/// of events is spent.
struct HoldEvent {
  HoldState* st;
  void operator()() const {
    if (st->remaining == 0) return;
    --st->remaining;
    st->q.schedule_in(1 + st->rng.below(1000), HoldEvent{st});
  }
};

}  // namespace

double event_queue_replay_ns_per_event(u64 heap_size, u64 seed) {
  constexpr u64 kEvents = 1 << 21;
  heap_size = std::max<u64>(1, heap_size);
  std::vector<double> samples;
  for (int rep = 0; rep < kReps; ++rep) {
    HoldState st(seed + static_cast<u64>(rep));
    st.q.reserve(heap_size + 1);
    for (u64 i = 0; i < heap_size; ++i)
      st.q.schedule_in(st.rng.below(1000), HoldEvent{&st});
    st.remaining = kEvents;
    const auto t0 = Clock::now();
    const u64 executed = st.q.run();
    const auto t1 = Clock::now();
    samples.push_back(ns_between(t0, t1) / static_cast<double>(executed));
  }
  return median(samples);
}

double recorder_replay_ns_per_event(const std::array<u64, 256>& type_counts,
                                    u64 seed) {
  constexpr std::size_t kEvents = 1 << 20;
  std::vector<u64> cumulative;
  std::vector<EventType> types;
  u64 total = 0;
  for (std::size_t t = 0; t < type_counts.size(); ++t)
    if (type_counts[t] > 0) {
      total += type_counts[t];
      cumulative.push_back(total);
      types.push_back(static_cast<EventType>(t));
    }
  if (total == 0) return 0.0;
  Xoshiro256 rng(seed);
  std::vector<EventType> draw(kEvents);
  for (auto& e : draw) {
    const u64 x = rng.below(total);
    e = types[static_cast<std::size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), x) -
        cumulative.begin())];
  }
  std::vector<double> samples;
  for (int rep = 0; rep < kReps; ++rep) {
    const EventQueue eq;
    FlightRecorder rec(eq);
    CountingSink sink;
    rec.add_sink(&sink);
    u64 i = 0;
    const auto t0 = Clock::now();
    for (const EventType t : draw) {
      rec.record(t, i, i >> 4, 0);
      ++i;
    }
    const auto t1 = Clock::now();
    samples.push_back(ns_between(t0, t1) / static_cast<double>(sink.total()));
  }
  return median(samples);
}

}  // namespace perfbench
