// Per-shard trace buffering for the sharded engine (docs/performance.md).
//
// In a multi-shard run, recorders on different shards emit concurrently,
// so they cannot share the caller's sinks directly. Instead each shard's
// recorder(s) write into a private BufferSink (append-only, touched only by
// the worker executing that shard), and after the run the coordinator merges
// every buffer into the real sinks in (cycle, shard, emission-index) order —
// the same deterministic total order the engine uses for messages, so two
// sharded runs produce byte-identical JSONL regardless of thread count.
// ShardTraceStage is that plumbing for a whole multi-shard system.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/trace_event.hpp"
#include "obs/trace_sink.hpp"

namespace uvmsim {

/// Unbounded in-memory sink: the per-shard staging buffer. Events arrive in
/// the shard's execution order, so `events()` is sorted by `t` already.
class BufferSink final : public TraceSink {
 public:
  void emit(const TraceEvent& e) override { events_.push_back(e); }

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  void clear() { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

/// Merge per-shard buffered streams into `sinks` by (t, shard, index):
/// streams[s] is shard s's buffer (each internally time-sorted). The merge
/// is stable across worker counts because stream contents are — the engine
/// guarantees per-shard execution order is thread-count-invariant.
inline void merge_shard_traces(const std::vector<const BufferSink*>& streams,
                               const std::vector<TraceSink*>& sinks) {
  if (sinks.empty()) return;
  std::vector<std::size_t> at(streams.size(), 0);
  while (true) {
    std::size_t best = streams.size();
    for (std::size_t s = 0; s < streams.size(); ++s) {
      if (streams[s] == nullptr) continue;
      const auto& ev = streams[s]->events();
      if (at[s] >= ev.size()) continue;
      if (best == streams.size() ||
          ev[at[s]].t < streams[best]->events()[at[best]].t)
        best = s;  // ties keep the lower shard id (scan order)
    }
    if (best == streams.size()) break;
    const TraceEvent& e = streams[best]->events()[at[best]++];
    for (TraceSink* sink : sinks) sink->emit(e);
  }
  for (TraceSink* sink : sinks) sink->flush();
}

/// The trace plumbing of a multi-shard system (FabricSystem, FleetSystem):
/// hands the caller's sinks and event mask to every recorder. Unstaged (one
/// shard) the recorders share the sinks directly; staged (shards run
/// concurrently) each recorder writes its own BufferSink and finish()
/// merges them into the sinks.
class ShardTraceStage {
 public:
  /// `recorders[s]` records on shard s (every recorder when unstaged).
  void init(std::vector<FlightRecorder*> recorders, bool staged) {
    recorders_ = std::move(recorders);
    staged_ = staged;
  }

  void add_sink(TraceSink* sink) {
    if (!staged_) {
      for (FlightRecorder* rec : recorders_) rec->add_sink(sink);
      return;
    }
    sinks_.push_back(sink);
    // Buffers are created on the first sink, so sink-less runs record
    // nothing — the same as unstaged.
    if (!buffers_.empty()) return;
    for (FlightRecorder* rec : recorders_) {
      buffers_.push_back(std::make_unique<BufferSink>());
      rec->add_sink(buffers_.back().get());
    }
  }

  void set_event_mask(u64 mask) {
    for (FlightRecorder* rec : recorders_) rec->set_event_mask(mask);
  }

  /// After the run: flush every recorder, then deliver the staged events.
  void finish() {
    for (FlightRecorder* rec : recorders_) rec->flush();
    if (buffers_.empty()) return;
    std::vector<const BufferSink*> streams;
    for (const auto& b : buffers_) streams.push_back(b.get());
    merge_shard_traces(streams, sinks_);
    for (auto& b : buffers_) b->clear();
  }

 private:
  std::vector<FlightRecorder*> recorders_;
  bool staged_ = false;
  std::vector<std::unique_ptr<BufferSink>> buffers_;
  std::vector<TraceSink*> sinks_;
};

}  // namespace uvmsim
