// The one device stack and the one result harvest.
//
// Every system — UvmSystem, MultiTenantSystem, FabricSystem, FleetSystem —
// runs the paper's stack on each device: a UVM driver with its eviction
// policy and prefetcher, recording through a flight recorder.
// make_device_stack() is the only place that wires it; the systems add what
// is theirs (Gpu instances, fabric attach, job lifecycle) on top.
//
// The harvest helpers read a finished run back into a RunResult. They
// *add* into it, so a system sums several devices (or shards) by calling
// them once per driver (queue); a one-device system calls them once.
#pragma once

#include <memory>

#include "common/config.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/event_queue.hpp"
#include "sim/sharded_engine.hpp"
#include "tenancy/tenant.hpp"
#include "uvm/driver.hpp"

namespace uvmsim {

struct RunResult;

struct DeviceStack {
  // Members die in reverse order: the driver, whose policies hold recorder
  // pointers (and may self-attach sinks), goes before the recorder.
  std::unique_ptr<FlightRecorder> recorder;
  std::unique_ptr<UvmDriver> driver;
};

/// How a device stack is shared between tenants. The default — no table —
/// is the single-tenant stack, which never calls configure_tenancy.
struct StackTenancy {
  TenantTable* table = nullptr;  ///< borrowed; must outlive the stack
  TenantMode mode = TenantMode::kShared;
  EvictionScope scope = EvictionScope::kGlobal;
};

/// Build one device's stack on `eq`: a recorder (stamped with `device`
/// unless kNoTraceDevice, tagging events by tenant when a table is given),
/// a driver over `span_pages` of address space and `capacity_pages` frames,
/// one eviction policy — or, in partitioned and quota modes, one per tenant
/// domain — and the prefetcher `pol` names.
[[nodiscard]] DeviceStack make_device_stack(EventQueue& eq,
                                            const SystemConfig& sys,
                                            const PolicyConfig& pol,
                                            u64 span_pages, u64 capacity_pages,
                                            const StackTenancy& tenancy = {},
                                            u32 device = kNoTraceDevice);

/// Frames for one of `devices` equal shares of `oversub` x `footprint`:
/// never more than the footprint, never fewer than `floor_pages` (enough
/// chunks that admission-bounded pinning cannot exhaust the chain; see
/// UvmDriver's deadlock-freedom argument).
[[nodiscard]] u64 oversub_capacity(u64 footprint, double oversub,
                                   u64 floor_pages, u32 devices = 1);

/// Policy and prefetcher names, large-pages flag and fault backend, as
/// `drv` (a system's first device) reports them.
void harvest_identity(RunResult& r, UvmDriver& drv);

/// Add one driver's counters: DriverStats, fault-backend stats, host-link
/// pages, and its chain-slab and page-table sizing.
void harvest_driver(RunResult& r, UvmDriver& drv);

/// Add one event queue's kernel counters (SimPerfCounters, clamped_past).
void harvest_queue(RunResult& r, const EventQueue& q);

/// harvest_queue over every shard of `engine`; a multi-shard (sharded) run
/// also fills EngineRunStats.
void harvest_engine(RunResult& r, const ShardedEngine& engine);

}  // namespace uvmsim
