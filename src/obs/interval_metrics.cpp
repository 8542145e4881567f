#include "obs/interval_metrics.hpp"

#include <ostream>
#include <sstream>

namespace uvmsim {

void IntervalMetricsSink::emit(const TraceEvent& e) {
  switch (e.type) {
    case EventType::kFaultRaised:
      ++cur_.faults;
      break;
    case EventType::kFaultCoalesced:
      ++cur_.coalesced;
      break;
    case EventType::kMigrationPlanned:
      ++cur_.migrations;
      cur_.pages_migrated += e.b;
      cur_.h2d_busy += e.c;
      break;
    case EventType::kEvictionChosen:
      ++cur_.chunks_evicted;
      cur_.pages_evicted += e.c;
      ++cur_.untouch_hist[untouch_hist_bucket(e.b)];
      break;
    case EventType::kWrongEvictionDetected:
      ++cur_.wrong_evictions;
      break;
    case EventType::kPatternHit:
      ++cur_.pattern_hits;
      break;
    case EventType::kPatternMiss:
      ++cur_.pattern_misses;
      break;
    case EventType::kPatternDeleted:
      ++cur_.pattern_deletions;
      break;
    case EventType::kPreEvictionTriggered:
      ++cur_.pre_evict_rounds;
      break;
    case EventType::kShootdownIssued:
      ++cur_.shootdowns;
      break;
    case EventType::kIntervalBoundary:
      // e.a is the interval just entered; the closing row covered e.a - 1.
      close_row(e.a, e.t);
      return;
    case EventType::kFaultBatchFormed:
    case EventType::kBatchServiced:
      // Batch bookkeeping (fault_batch > 1 only); per-interval counters
      // already capture the underlying faults and migrations.
      break;
    case EventType::kPatternHitEmpty:
      // Vacuous pattern hit (zero pages planned): not a productive match,
      // and not a CSV column — the schema stays byte-identical.
      break;
    case EventType::kCoalesce:
    case EventType::kSplinter:
    case EventType::kLargeFrameEvicted:
      // Large-pages metadata flips (--large-pages only); surfaced through
      // RunResult's large-page counters, not the per-interval CSV.
      break;
    case EventType::kJobArrived:
    case EventType::kJobAdmitted:
    case EventType::kJobRejected:
    case EventType::kJobCompleted:
      // Fleet job lifecycle (--fleet only); SLA accounting aggregates these
      // in FleetSystem, not the per-interval CSV.
      break;
    case EventType::kFaultEnqueued:
    case EventType::kFaultQueueFull:
    case EventType::kGpuFaultServiced:
      // GPU-driven backend bookkeeping (--fault-backend gpu-driven only);
      // surfaced through FaultBackendStats, not the per-interval CSV.
      break;
  }
  cur_dirty_ = true;
}

void IntervalMetricsSink::close_row(u64 next_interval, Cycle at) {
  cur_.interval = next_interval == 0 ? 0 : next_interval - 1;
  cur_.end = at;
  rows_.push_back(cur_);
  cur_ = IntervalRow{};
  cur_.start = at;
  cur_dirty_ = false;
}

void IntervalMetricsSink::finalize(Cycle now) {
  if (cur_dirty_) close_row(rows_.empty() ? 1 : rows_.back().interval + 2, now);
}

std::string IntervalMetricsSink::csv_header() {
  return "interval,start,end,faults,coalesced,migrations,pages_migrated,"
         "chunks_evicted,pages_evicted,wrong_evictions,pre_evict_rounds,"
         "pattern_hits,pattern_misses,pattern_deletions,shootdowns,"
         "h2d_busy,untouch_0_3,untouch_4_7,untouch_8_11,untouch_12_15,"
         "untouch_16";
}

void IntervalMetricsSink::write_csv(std::ostream& os) const {
  os << csv_header() << '\n';
  for (const IntervalRow& r : rows_) {
    os << r.interval << ',' << r.start << ',' << r.end << ',' << r.faults << ','
       << r.coalesced << ',' << r.migrations << ',' << r.pages_migrated << ','
       << r.chunks_evicted << ',' << r.pages_evicted << ',' << r.wrong_evictions
       << ',' << r.pre_evict_rounds << ',' << r.pattern_hits << ','
       << r.pattern_misses << ',' << r.pattern_deletions << ',' << r.shootdowns
       << ',' << r.h2d_busy;
    for (u64 h : r.untouch_hist) os << ',' << h;
    os << '\n';
  }
}

void IntervalMetricsSink::write_jsonl(std::ostream& os) const {
  for (const IntervalRow& r : rows_) {
    os << "{\"interval\":" << r.interval << ",\"start\":" << r.start
       << ",\"end\":" << r.end << ",\"faults\":" << r.faults
       << ",\"coalesced\":" << r.coalesced << ",\"migrations\":" << r.migrations
       << ",\"pages_migrated\":" << r.pages_migrated
       << ",\"chunks_evicted\":" << r.chunks_evicted
       << ",\"pages_evicted\":" << r.pages_evicted
       << ",\"wrong_evictions\":" << r.wrong_evictions
       << ",\"pre_evict_rounds\":" << r.pre_evict_rounds
       << ",\"pattern_hits\":" << r.pattern_hits
       << ",\"pattern_misses\":" << r.pattern_misses
       << ",\"pattern_deletions\":" << r.pattern_deletions
       << ",\"shootdowns\":" << r.shootdowns << ",\"h2d_busy\":" << r.h2d_busy
       << ",\"untouch_hist\":[";
    for (u32 i = 0; i < kUntouchBuckets; ++i)
      os << (i ? "," : "") << r.untouch_hist[i];
    os << "]}\n";
  }
}

}  // namespace uvmsim
