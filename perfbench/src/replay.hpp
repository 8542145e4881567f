// Standalone replays for layers the benchmark cannot wrap in place. Each one
// drives a layer through its public functions, outside any simulation, and
// reports host ns per operation (median of several repetitions).
#pragma once

#include <array>

#include "scenarios.hpp"

namespace perfbench {

/// The scenario's page stream (every warp of every workload it drives,
/// interleaved round-robin, bounded) through a 128-entry fully associative
/// L1 and a 512-entry 16-way L2 Tlb: lookup, and fill on a miss.
/// Returns ns per Tlb::lookup call.
[[nodiscard]] double tlb_replay_ns_per_lookup(Scenario s, u64 seed);

/// EventQueue schedule/run in the classic hold model at a steady pending
/// population of `heap_size` events. Returns ns per executed event.
[[nodiscard]] double event_queue_replay_ns_per_event(u64 heap_size, u64 seed);

/// FlightRecorder::record into a CountingSink, with event types drawn in
/// proportion to `type_counts` (the traced run's mix). Returns ns per event.
[[nodiscard]] double recorder_replay_ns_per_event(
    const std::array<u64, 256>& type_counts, u64 seed);

}  // namespace perfbench
