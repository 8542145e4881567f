// UvmDriver: the GPU software runtime + GMMU pair that manages unified
// memory (paper §II-A) — now a thin facade wiring the four layers of the
// fault-service pipeline (docs/architecture.md):
//
//   FaultServiceBackend intake, batch formation and service timing — the
//                       pluggable seam (src/faultsvc): the classic host
//                       driver (FaultBatcher + fault_latency_us) or the
//                       GPUVM-style GPU-driven handler (--fault-backend)
//   FramePool           frame accounting, oversubscription cap, live pressure
//   EvictionEngine      room-making: demand eviction + pre-eviction
//   MigrationScheduler  plan timing, PCIe scheduling, completion + wake
//
// The facade keeps what genuinely spans the layers: the far-fault entry
// point, merging the batch's prefetch plans into one migration, pinning the
// chunks a plan touches, and the post-completion step (pre-evict, free the
// slot, admit the next batch):
//
//   fault -> (coalesce with in-flight?) -> admission backlog ->
//   batch of <= fault_batch faults -> prefetcher plans merged/deduped ->
//   evict chunks until frames free -> 20 us fault service + PCIe H2D
//   occupancy -> map pages, fill chain, wake stalled warps.
//
// Evictions write back over the D2H direction of the link (PCIe is full
// duplex) and invalidate TLBs through registered shootdown handlers.
//
// Demand-touch visibility: the GPU calls `note_touch` on every L1-TLB-miss
// access to a resident page. This models the driver harvesting PTE access
// bits when it manipulates page tables — exactly the visibility MHPE needs
// (untouch levels of *evicted* chunks) without the per-access GPU-to-driver
// traffic the paper rules out for HPE.
//
// Multi-tenancy (src/tenancy/, docs/multitenancy.md): one driver serves all
// tenants. configure_tenancy attaches the TenantTable and sharing mode;
// plans are clipped to the faulting tenant's namespace, admission respects
// per-tenant quotas (FramePool::admissible_frames), room-making is scoped
// to the initiator, and the partitioned/quota modes split the chunk chain
// into per-tenant domains with their own policy instances. Single-tenant
// runs never call configure_tenancy and are bit-for-bit unchanged.
#pragma once

#include <cassert>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "faultsvc/fault_backend.hpp"
#include "mem/bandwidth_link.hpp"
#include "obs/flight_recorder.hpp"
#include "policy/eviction_policy.hpp"
#include "prefetch/prefetcher.hpp"
#include "sim/event_queue.hpp"
#include "tenancy/tenant.hpp"
#include "tlb/page_table.hpp"
#include "uvm/chain_set.hpp"
#include "uvm/driver_types.hpp"
#include "uvm/eviction_engine.hpp"
#include "uvm/fabric_port.hpp"
#include "uvm/frame_pool.hpp"
#include "uvm/large_frames.hpp"
#include "uvm/migration_scheduler.hpp"

namespace uvmsim {

class UvmDriver final : public ResidencyView {
 public:
  using WakeCallback = uvmsim::WakeCallback;
  using ShootdownHandler = uvmsim::ShootdownHandler;
  /// Driver-wide counters (kept under the historical name).
  using Stats = DriverStats;

  UvmDriver(EventQueue& eq, const SystemConfig& sys, const PolicyConfig& pol,
            u64 footprint_pages, u64 capacity_pages);
  ~UvmDriver() override;

  UvmDriver(const UvmDriver&) = delete;
  UvmDriver& operator=(const UvmDriver&) = delete;

  /// Install the policy/prefetcher pair (see core/policy_factory). The
  /// policy lands in domain 0 — the only domain for single-tenant runs and
  /// the shared tenant mode.
  void set_policy(std::unique_ptr<EvictionPolicy> policy);
  void set_prefetcher(std::unique_ptr<Prefetcher> prefetcher);
  /// Register a shootdown observer (one per GPU sharing the driver); the
  /// returned handle removes it again when that GPU is destroyed before the
  /// driver (fleet job teardown, gpu/gpu.cpp).
  u64 add_shootdown_handler(ShootdownHandler h) {
    return evictor_.add_shootdown_handler(std::move(h));
  }
  void remove_shootdown_handler(u64 handle) {
    evictor_.remove_shootdown_handler(handle);
  }
  /// Legacy single-observer form: replaces all registered handlers.
  void set_shootdown_handler(ShootdownHandler h) {
    evictor_.set_shootdown_handler(std::move(h));
  }

  // --- Large-pages mode (docs/memory.md) -------------------------------------
  /// Is transparent 2 MB frame management on (--large-pages)? Decided once
  /// at construction from PolicyConfig::large_pages.
  [[nodiscard]] bool large_pages_enabled() const noexcept {
    return lfm_ != nullptr;
  }
  /// Register a 2 MB-entry TLB shootdown observer (one per GPU); fired on
  /// splinter and whole-frame eviction. No-op (handle 0) when large pages
  /// are off; remove is equally a no-op then.
  u64 add_large_shootdown_handler(LargeShootdownHandler h) {
    return lfm_ != nullptr ? lfm_->add_shootdown_handler(std::move(h)) : 0;
  }
  void remove_large_shootdown_handler(u64 handle) {
    if (lfm_ != nullptr) lfm_->remove_shootdown_handler(handle);
  }
  /// The coalescing/splintering subsystem; nullptr when large pages are off.
  [[nodiscard]] LargeFrameManager* large_frames() noexcept { return lfm_.get(); }
  /// Attach the flight recorder (nullptr = tracing off); forwarded to every
  /// layer and to the installed policy and prefetcher, in whichever order
  /// they arrive.
  void set_recorder(FlightRecorder* rec);

  // --- Multi-tenancy ---------------------------------------------------------
  /// Attach the tenant table and sharing mode (tenancy/tenant.hpp). Call
  /// once, before launch and before installing per-domain policies. The
  /// partitioned/quota modes split the chunk chain per tenant — install a
  /// policy per domain with set_domain_policy afterwards; the shared mode
  /// keeps the single domain-0 chain/policy.
  void configure_tenancy(TenantTable* table, TenantMode mode,
                         EvictionScope scope);
  void set_domain_policy(u64 domain, std::unique_ptr<EvictionPolicy> policy);
  [[nodiscard]] ChainSet& chains() noexcept { return chains_; }
  [[nodiscard]] const TenantTable* tenant_table() const noexcept { return table_; }
  /// Tear down a departing arena tenant's residency (fleet serving): unmap
  /// and release every frame in its namespace, drop the chain entries, and
  /// purge its chunk range from the prefetcher's learned state so a later
  /// job recycling the namespace never inherits stale patterns. The caller
  /// guarantees the tenant's warps have all finished (no in-flight
  /// migrations, so nothing in the range is pinned). Returns the number of
  /// pages reclaimed. The caller detaches from the TenantTable afterwards.
  u64 detach_tenant(TenantId t);

  // --- Multi-GPU fabric (src/fabric, docs/fabric.md) -------------------------
  /// Attach this driver to the fabric as device `device`. Faults are routed
  /// through the port (remote access / peer fetch / forward), evictions may
  /// spill to a peer when `spill` is set, and migrations update the fabric
  /// directory. Never called in single-GPU runs — the driver is then
  /// bit-for-bit the pre-fabric driver.
  void attach_fabric(FabricPort* fabric, u32 device, bool spill);
  [[nodiscard]] u32 device_id() const noexcept { return device_; }
  /// Has attach_fabric been called?
  [[nodiscard]] bool fabric_attached() const noexcept { return fabric_ != nullptr; }
  /// Is a migration covering `p` in flight on this device?
  [[nodiscard]] bool migration_in_flight(PageId p) const {
    return scheduler_.in_flight(p);
  }
  /// Bring `p` in from peer `src` (fabric-routed fault). `hopback` marks a
  /// spill second chance. Peer fetches are single-page and bypass both the
  /// fault batcher and the driver-concurrency slots.
  void peer_fetch(PageId p, u32 src, bool hopback, WakeCallback wake);
  /// A peer finished fetching `p` from us: unmap and free our (pinned) copy.
  void surrender_page(PageId p);
  /// Adopt a chunk spilled from a peer: reserve frames, map the pages and
  /// insert (or extend) the chain entry, marked `spilled`. The fabric has
  /// already charged the link transfer.
  void adopt_spilled_chunk(ChunkId c, const TouchBits& resident);
  /// Pin a chunk against eviction while a peer transfer reads from it.
  void pin_for_transfer(ChunkId c);

  // --- GPU-side interface ----------------------------------------------------
  /// Is the page mapped right now (TLB-fillable)?
  [[nodiscard]] bool page_resident(PageId p) const { return pt_.resident(p); }

  /// Record a demand touch on a resident page (called on L1 TLB misses).
  void note_touch(PageId p);

  /// Raise a replayable far fault for `p` from SM `sm`; `wake` fires once
  /// `p` is mapped. The SM id selects the GPU-driven backend's per-SM fault
  /// queue; the host backend ignores it.
  void fault(PageId p, u32 sm, WakeCallback wake);
  /// Source-less fault (fabric forwards, retries, direct driver calls):
  /// lands in SM queue 0 under the GPU-driven backend.
  void fault(PageId p, WakeCallback wake) { fault(p, 0, std::move(wake)); }

  /// The fault-service backend in charge (--fault-backend; docs/faultsvc.md).
  [[nodiscard]] const FaultServiceBackend& fault_backend() const noexcept {
    return *backend_;
  }
  [[nodiscard]] FaultBackendKind fault_backend_kind() const noexcept {
    return backend_->kind();
  }
  [[nodiscard]] const FaultBackendStats& backend_stats() const noexcept {
    return backend_->backend_stats();
  }

  // --- ResidencyView (prefetcher oracle: resident OR already in flight) ------
  /// On a fabric, pages a peer holds (or is fetching, or that placement
  /// homes elsewhere) also read as "resident": prefetch plans must never
  /// pull them from the host.
  [[nodiscard]] bool is_resident(PageId p) const override {
    return pt_.resident(p) || scheduler_.in_flight(p) ||
           (fabric_ != nullptr && !fabric_->host_fetchable(device_, p));
  }
  [[nodiscard]] PageId footprint_pages() const override { return footprint_pages_; }

  // --- Introspection -----------------------------------------------------------
  [[nodiscard]] ChunkChain& chain() noexcept { return chains_.chain(0); }
  [[nodiscard]] const ChunkChain& chain() const noexcept { return chains_.chain(0); }
  [[nodiscard]] EvictionPolicy& policy() noexcept { return *chains_.policy(0); }
  [[nodiscard]] Prefetcher& prefetcher() noexcept { return *prefetcher_; }
  [[nodiscard]] const PageTable& page_table() const noexcept { return pt_; }
  [[nodiscard]] const FramePool& frame_pool() const noexcept { return frames_; }
  [[nodiscard]] u64 capacity_pages() const noexcept { return frames_.capacity(); }
  [[nodiscard]] u64 free_frames() const noexcept { return frames_.free_frames(); }
  /// "Memory full" in the paper's sense: live oversubscription pressure
  /// (FramePool::under_pressure) — a whole-chunk migration no longer fits
  /// beyond the pre-eviction headroom. Clears again if frames free up.
  [[nodiscard]] bool memory_full() const noexcept {
    return frames_.under_pressure();
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const BandwidthLink& h2d() const noexcept { return scheduler_.h2d(); }
  [[nodiscard]] const BandwidthLink& d2h() const noexcept { return evictor_.d2h(); }

 private:
  /// Owning tenant of `p`; kNoTenant when tenancy is off.
  [[nodiscard]] TenantId tenant_of(PageId p) const noexcept {
    return table_ != nullptr ? table_->tenant_of_page(p) : kNoTenant;
  }
  /// Service a formed batch of still-pending faults: merge the prefetcher's
  /// plans, pin, make room (retrying later if every chunk is pinned), then
  /// hand the migration to the scheduler.
  void service_batch(std::vector<PageId> leads);
  /// Service a single-page peer fetch (no batcher, no slot): make room for
  /// one frame, then dispatch a src-device migration.
  void service_peer(PageId p, u32 src);
  /// Post-completion: pre-evict back to the watermark (scoped to the
  /// completed batch's tenant), free the driver slot and admit the next
  /// batch. Peer batches never held a slot, so they skip the slot release.
  void post_migration(TenantId tenant, bool peer);
  /// Hand a free driver slot to the next formed batch, if any.
  void dispatch_pending();

  EventQueue& eq_;
  SystemConfig sys_;
  PolicyConfig pol_;
  u64 footprint_pages_;

  PageTable pt_;
  ChainSet chains_;
  std::unique_ptr<Prefetcher> prefetcher_;
  FlightRecorder* rec_ = nullptr;
  Stats stats_;
  TenantTable* table_ = nullptr;
  TenantMode mode_ = TenantMode::kShared;
  FabricPort* fabric_ = nullptr;
  u32 device_ = kHostDevice;

  FramePool frames_;
  /// The pluggable fault-service seam (src/faultsvc): intake, batch
  /// formation and service timing. Chosen once at construction from
  /// SystemConfig::fault_backend.
  std::unique_ptr<FaultServiceBackend> backend_;
  EvictionEngine evictor_;
  MigrationScheduler scheduler_;
  /// Coalescing/splintering subsystem — created only when
  /// PolicyConfig::large_pages is set; default runs never construct it.
  std::unique_ptr<LargeFrameManager> lfm_;
};

}  // namespace uvmsim
