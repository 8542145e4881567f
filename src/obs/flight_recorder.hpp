// FlightRecorder: the one emit point every subsystem shares.
//
// The recorder stamps events with the owning EventQueue's simulation time,
// applies the event-type filter, and fans out to the attached sinks. It is
// zero-overhead-when-off in two tiers:
//   * components hold a `FlightRecorder*` that is nullptr until observability
//     is requested — the hot path then pays one pointer test (see emit());
//   * a recorder with no sinks short-circuits before building the event.
// Sinks are borrowed, never owned: the CLI/harness owns file streams and
// their lifetimes.
#pragma once

#include <vector>

#include "obs/trace_sink.hpp"
#include "sim/event_queue.hpp"
#include "tenancy/tenant.hpp"

namespace uvmsim {

class FlightRecorder {
 public:
  explicit FlightRecorder(const EventQueue& eq) : eq_(&eq) {}

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void add_sink(TraceSink* sink) {
    if (sink != nullptr) sinks_.push_back(sink);
  }
  /// Detach one sink (no-op if absent). Components that self-attach a sink
  /// (the adaptive policy's phase classifier) call this from their
  /// destructor so the recorder never holds a dangling observer.
  void remove_sink(TraceSink* sink) { std::erase(sinks_, sink); }
  void clear_sinks() { sinks_.clear(); }
  void set_event_mask(u64 mask) { mask_ = mask & kAllEventsMask; }
  [[nodiscard]] u64 event_mask() const noexcept { return mask_; }
  [[nodiscard]] bool active() const noexcept { return !sinks_.empty(); }

  [[nodiscard]] bool wants(EventType t) const noexcept {
    return !sinks_.empty() && (mask_ & event_bit(t)) != 0;
  }

  /// Attach the tenant table for multi-tenant runs: events whose payload
  /// carries a page or chunk are stamped with the owning tenant
  /// automatically; global events (no page/chunk key) are stamped only via
  /// the explicit `tenant` argument. Never attached in single-tenant runs,
  /// so every event keeps tenant == kNoTenant and the JSONL is unchanged.
  void set_tenant_table(const TenantTable* table) noexcept { tenants_ = table; }

  /// Stamp every event with the emitting device id. Only called by the
  /// multi-GPU fabric (one recorder per device, shared sinks); single-GPU
  /// recorders keep the kNoTraceDevice sentinel and the JSONL is unchanged.
  void set_device(u32 dev) noexcept { device_ = dev; }

  void record(EventType t, u64 a = 0, u64 b = 0, u64 c = 0,
              TenantId tenant = kNoTenant) {
    if (!wants(t)) return;
    TraceEvent e{eq_->now(), t, a, b, c, tenant, device_};
    if (tenants_ != nullptr && e.tenant == kNoTenant) {
      switch (tenant_key_kind(t)) {
        case TenantKeyKind::kPage: e.tenant = tenants_->tenant_of_page(a); break;
        case TenantKeyKind::kChunk: e.tenant = tenants_->tenant_of_chunk(a); break;
        case TenantKeyKind::kNone: break;
      }
    }
    for (TraceSink* s : sinks_) s->emit(e);
    ++recorded_;
  }

  [[nodiscard]] u64 events_recorded() const noexcept { return recorded_; }

  void flush() {
    for (TraceSink* s : sinks_) s->flush();
  }

 private:
  const EventQueue* eq_;
  std::vector<TraceSink*> sinks_;
  const TenantTable* tenants_ = nullptr;
  u32 device_ = kNoTraceDevice;
  u64 mask_ = kAllEventsMask;
  u64 recorded_ = 0;
};

/// Null-tolerant emit: instrumented components keep a possibly-null recorder
/// pointer and pay one branch when tracing is off.
inline void record_event(FlightRecorder* rec, EventType t, u64 a = 0, u64 b = 0,
                         u64 c = 0) {
  if (rec != nullptr) rec->record(t, a, b, c);
}

/// Explicit-tenant emit for global events (interval boundaries,
/// pre-eviction) whose payload carries no page/chunk to derive it from.
inline void record_event_for(FlightRecorder* rec, TenantId tenant, EventType t,
                             u64 a = 0, u64 b = 0, u64 c = 0) {
  if (rec != nullptr) rec->record(t, a, b, c, tenant);
}

}  // namespace uvmsim
