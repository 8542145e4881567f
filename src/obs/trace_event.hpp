// Flight-recorder event taxonomy: the typed, fixed-size records that trace
// the full far-fault lifecycle (docs/observability.md has the schema).
//
// Every event carries the simulation time of the EventQueue that produced
// it, so two identical runs emit byte-identical streams — the trace doubles
// as a determinism checker. Payload fields a/b/c are u64s whose meaning is
// per-type (see field_names / docs/observability.md); keeping the record
// POD keeps the ring sink a memcpy and the hot path branch-cheap.
#pragma once

#include <string_view>

#include "common/types.hpp"

namespace uvmsim {

/// Bump when an event's field meaning or the JSONL framing changes.
inline constexpr u32 kTraceSchemaVersion = 1;

enum class EventType : u8 {
  kFaultRaised = 0,        ///< a: page, b: chunk
  kFaultCoalesced,         ///< a: page, b: 0 = joined pending, 1 = joined inflight
  kMigrationPlanned,       ///< a: faulted page, b: plan pages, c: H2D busy cycles
  kEvictionChosen,         ///< a: chunk, b: untouch level, c: pages written back
  kWrongEvictionDetected,  ///< a: chunk, b: cumulative wrong evictions
  kPatternHit,             ///< a: chunk, b: planned pages, c: pattern popcount
  kPatternMiss,            ///< a: chunk, b: 1 = first lookup of this entry
  kPatternDeleted,         ///< a: chunk, b: reason (see PatternDeleteReason)
  kIntervalBoundary,       ///< a: interval just entered, b: total pages migrated
  kPreEvictionTriggered,   ///< a: free frames, b: watermark frames
  kShootdownIssued,        ///< a: page, b: physical frame
  // Batched fault service (emitted only when fault_batch > 1, so classic
  // window=1 traces stay byte-identical across schema revisions).
  kFaultBatchFormed,       ///< a: lead page, b: faults in batch, c: backlog left
  kBatchServiced,          ///< a: lead page, b: faults in batch, c: cycles/fault
  // Multi-GPU fabric (emitted only when --gpus > 1, so single-GPU traces
  // stay byte-identical across schema revisions).
  kPageSpilled,            ///< a: chunk, b: destination device, c: pages spilled
  kRemoteAccess,           ///< a: page, b: owning device, c: round-trip cycles
  kPeerMigration,          ///< a: page, b: source device, c: 1 = spill hop-back
  // Pattern-buffer lookup whose match planned zero pages (every patterned
  // page already resident). Distinct from kPatternHit so §VI-C match-rate
  // stats count only lookups that actually narrowed a migration; reachable
  // only through direct Prefetcher::plan calls on resident pages, so
  // integrated-run traces are unchanged.
  kPatternHitEmpty,        ///< a: chunk, b: pattern popcount
  // Large-pages mode (emitted only when --large-pages is on, so default
  // traces stay byte-identical across schema revisions; docs/memory.md).
  kCoalesce,               ///< a: first chunk, b: base frame, c: region
  kSplinter,               ///< a: first chunk, b: region, c: reason (SplinterReason)
  kLargeFrameEvicted,      ///< a: first chunk, b: aggregated untouch, c: pages
  // Fleet serving (emitted only in --fleet runs, so fixed-N traces stay
  // byte-identical across schema revisions; docs/fleet.md). The job events
  // come from the fleet-level recorder; `b` carries the placement device
  // because one stream covers the whole fabric.
  kJobArrived,             ///< a: job id, b: footprint pages, c: pattern type
  kJobAdmitted,            ///< a: job id, b: device, c: queue wait cycles
  kJobRejected,            ///< a: job id, b: reason (JobRejectReason), c: queue depth
  kJobCompleted,           ///< a: job id, b: device, c: service cycles
  // GPU-driven fault-service backend (emitted only when --fault-backend
  // gpu-driven, so host-backend traces stay byte-identical across schema
  // revisions; docs/faultsvc.md).
  kFaultEnqueued,          ///< a: page, b: SM queue, c: queue depth after enqueue
  kFaultQueueFull,         ///< a: page, b: SM queue, c: overflow backlog
  kGpuFaultServiced,       ///< a: lead page, b: faults in pickup, c: handler busy cycles
};

inline constexpr u32 kNumEventTypes = 27;

/// Reasons carried in kPatternDeleted's `b` field.
enum class PatternDeleteReason : u8 {
  kScheme1Mismatch = 1,     ///< Scheme-1: any mismatch
  kScheme2FirstMiss = 2,    ///< Scheme-2: mismatch on the entry's first lookup
  kCapacityReplaced = 3,    ///< bounded buffer replaced the FIFO-oldest entry
};

/// Reasons carried in kSplinter's `c` field.
enum class SplinterReason : u8 {
  kEvictionPressure = 1,    ///< part of the frame was chosen for eviction
  kSurrender = 2,           ///< a member page was surrendered to a peer
  kSpill = 3,               ///< a member chunk is spilling to a peer
};

/// Reasons carried in kJobRejected's `b` field (fleet admission).
enum class JobRejectReason : u8 {
  kQueueFull = 1,           ///< bounded admission queue at capacity
  kNeverFits = 2,           ///< footprint can never fit on any device
  kPolicy = 3,              ///< admission policy refused (quota cap)
};

struct TraceEvent {
  Cycle t = 0;
  EventType type = EventType::kFaultRaised;
  u64 a = 0;
  u64 b = 0;
  u64 c = 0;
  /// Owning tenant in multi-tenant runs; kNoTenant in single-tenant runs,
  /// where the JSONL field is omitted entirely (traces stay byte-identical,
  /// so the field is additive within schema v1).
  TenantId tenant = kNoTenant;
  /// Emitting device in multi-GPU runs; kNoTraceDevice in single-GPU runs,
  /// where the JSONL field is omitted entirely (additive within schema v1,
  /// same discipline as `tenant`).
  u32 dev = ~u32{0};

  friend constexpr bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Sentinel `dev` value meaning "not a multi-GPU run" — the JSONL field is
/// suppressed so single-GPU traces stay byte-identical.
inline constexpr u32 kNoTraceDevice = ~u32{0};

/// How a tenant id can be derived from an event's payload: from the page in
/// `a`, from the chunk in `a`, or not at all (global events — the recorder
/// stamps those only when the emitter passes the tenant explicitly).
enum class TenantKeyKind : u8 { kNone, kPage, kChunk };

[[nodiscard]] constexpr TenantKeyKind tenant_key_kind(EventType t) noexcept {
  switch (t) {
    case EventType::kFaultRaised:
    case EventType::kFaultCoalesced:
    case EventType::kMigrationPlanned:
    case EventType::kShootdownIssued:
    case EventType::kFaultBatchFormed:
    case EventType::kBatchServiced:
    case EventType::kRemoteAccess:
    case EventType::kPeerMigration:
    case EventType::kFaultEnqueued:
    case EventType::kFaultQueueFull:
    case EventType::kGpuFaultServiced:
      return TenantKeyKind::kPage;
    case EventType::kPageSpilled:
    case EventType::kEvictionChosen:
    case EventType::kCoalesce:
    case EventType::kSplinter:
    case EventType::kLargeFrameEvicted:
    case EventType::kWrongEvictionDetected:
    case EventType::kPatternHit:
    case EventType::kPatternHitEmpty:
    case EventType::kPatternMiss:
    case EventType::kPatternDeleted:
      return TenantKeyKind::kChunk;
    case EventType::kIntervalBoundary:
    case EventType::kPreEvictionTriggered:
    // Job events carry a job id, not a page/chunk; the fleet recorder has
    // no tenant table attached, so nothing is ever auto-stamped.
    case EventType::kJobArrived:
    case EventType::kJobAdmitted:
    case EventType::kJobRejected:
    case EventType::kJobCompleted:
      return TenantKeyKind::kNone;
  }
  return TenantKeyKind::kNone;
}

/// Stable snake_case names: the JSONL "ev" values and the --trace-events
/// vocabulary. Order matches EventType.
[[nodiscard]] constexpr std::string_view to_string(EventType t) noexcept {
  switch (t) {
    case EventType::kFaultRaised: return "fault_raised";
    case EventType::kFaultCoalesced: return "fault_coalesced";
    case EventType::kMigrationPlanned: return "migration_planned";
    case EventType::kEvictionChosen: return "eviction_chosen";
    case EventType::kWrongEvictionDetected: return "wrong_eviction_detected";
    case EventType::kPatternHit: return "pattern_hit";
    case EventType::kPatternMiss: return "pattern_miss";
    case EventType::kPatternDeleted: return "pattern_deleted";
    case EventType::kIntervalBoundary: return "interval_boundary";
    case EventType::kPreEvictionTriggered: return "pre_eviction_triggered";
    case EventType::kShootdownIssued: return "shootdown_issued";
    case EventType::kFaultBatchFormed: return "fault_batch_formed";
    case EventType::kBatchServiced: return "batch_serviced";
    case EventType::kPageSpilled: return "page_spilled";
    case EventType::kRemoteAccess: return "remote_access";
    case EventType::kPeerMigration: return "peer_migration";
    case EventType::kPatternHitEmpty: return "pattern_hit_empty";
    case EventType::kCoalesce: return "coalesce";
    case EventType::kSplinter: return "splinter";
    case EventType::kLargeFrameEvicted: return "large_frame_evicted";
    case EventType::kJobArrived: return "job_arrived";
    case EventType::kJobAdmitted: return "job_admitted";
    case EventType::kJobRejected: return "job_rejected";
    case EventType::kJobCompleted: return "job_completed";
    case EventType::kFaultEnqueued: return "fault_enqueued";
    case EventType::kFaultQueueFull: return "fault_queue_full";
    case EventType::kGpuFaultServiced: return "gpu_fault_serviced";
  }
  return "?";
}

/// JSONL key names for the a/b/c payload of each event type (nullptr-
/// terminated is not needed: exactly three entries, unused ones empty).
struct EventFieldNames {
  std::string_view a, b, c;
};

[[nodiscard]] constexpr EventFieldNames field_names(EventType t) noexcept {
  switch (t) {
    case EventType::kFaultRaised: return {"page", "chunk", {}};
    case EventType::kFaultCoalesced: return {"page", "stage", {}};
    case EventType::kMigrationPlanned: return {"page", "pages", "busy"};
    case EventType::kEvictionChosen: return {"chunk", "untouch", "pages"};
    case EventType::kWrongEvictionDetected: return {"chunk", "total", {}};
    case EventType::kPatternHit: return {"chunk", "pages", "popcount"};
    case EventType::kPatternMiss: return {"chunk", "first", {}};
    case EventType::kPatternDeleted: return {"chunk", "reason", {}};
    case EventType::kIntervalBoundary: return {"interval", "pages_migrated", {}};
    case EventType::kPreEvictionTriggered: return {"free_frames", "watermark", {}};
    case EventType::kShootdownIssued: return {"page", "frame", {}};
    case EventType::kFaultBatchFormed: return {"page", "faults", "backlog"};
    case EventType::kBatchServiced: return {"page", "faults", "amortised"};
    case EventType::kPageSpilled: return {"chunk", "dst", "pages"};
    case EventType::kRemoteAccess: return {"page", "owner", "cycles"};
    case EventType::kPeerMigration: return {"page", "src", "hopback"};
    case EventType::kPatternHitEmpty: return {"chunk", "popcount", {}};
    case EventType::kCoalesce: return {"chunk", "frame", "region"};
    case EventType::kSplinter: return {"chunk", "region", "reason"};
    case EventType::kLargeFrameEvicted: return {"chunk", "untouch", "pages"};
    case EventType::kJobArrived: return {"job", "pages", "pattern"};
    case EventType::kJobAdmitted: return {"job", "device", "wait"};
    case EventType::kJobRejected: return {"job", "reason", "queued"};
    case EventType::kJobCompleted: return {"job", "device", "cycles"};
    case EventType::kFaultEnqueued: return {"page", "queue", "depth"};
    case EventType::kFaultQueueFull: return {"page", "queue", "backlog"};
    case EventType::kGpuFaultServiced: return {"page", "faults", "busy"};
  }
  return {{}, {}, {}};
}

/// Bitmask helpers for event filtering (--trace-events): one bit per type.
static_assert(kNumEventTypes <= 64, "event masks are u64");
[[nodiscard]] constexpr u64 event_bit(EventType t) noexcept {
  return u64{1} << static_cast<u32>(t);
}
inline constexpr u64 kAllEventsMask = ~u64{0} >> (64 - kNumEventTypes);

}  // namespace uvmsim
