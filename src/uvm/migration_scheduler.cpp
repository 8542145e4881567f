#include "uvm/migration_scheduler.hpp"

#include <algorithm>
#include <cassert>

#include "faultsvc/fault_backend.hpp"
#include "uvm/large_frames.hpp"

namespace uvmsim {

MigrationScheduler::MigrationScheduler(EventQueue& eq, const SystemConfig& sys,
                                       const PolicyConfig& pol,
                                       u64 footprint_pages, FramePool& frames,
                                       PageTable& pt, ChainSet& chains,
                                       DriverStats& stats)
    : eq_(eq),
      frames_(frames),
      pt_(pt),
      chains_(chains),
      stats_(stats),
      h2d_(sys.pcie_page_cycles()),
      fault_latency_cycles_(sys.fault_latency_cycles()),
      evict_service_cycles_(sys.evict_service_cycles()),
      fault_batch_(std::max(1u, pol.fault_batch)),
      max_concurrent_migrations_(std::max(1u, pol.driver_concurrency)),
      inflight_(0, footprint_pages) {}

void MigrationScheduler::merge_plan(std::vector<PageId>& merged,
                                    const std::vector<PageId>& plan) {
  for (const PageId p : plan) {
    if (std::find(merged.begin(), merged.end(), p) == merged.end())
      merged.push_back(p);
  }
}

void MigrationScheduler::dispatch(MigrationBatch&& m, u64 demand_evictions) {
  // Service happens first — the backend's timing model (the classic 20 us
  // host round trip, or the GPU-driven handler's occupancy), lengthened by
  // any eviction work that had to run synchronously on this batch's
  // critical path (pre-eviction exists to keep demand_evictions at zero) —
  // then the pages occupy the H2D link.
  const Cycle service_done =
      backend_ != nullptr
          ? backend_->reserve_service(eq_.now(), m.lead, m.faults,
                                      demand_evictions)
          : eq_.now() + fault_latency_cycles_ +
                demand_evictions * evict_service_cycles_;
  // Peer batches cross the fabric instead of the host H2D link.
  const Cycle transfer_done =
      m.src_device != kHostDevice && fabric_ != nullptr
          ? fabric_->reserve_transfer(m.src_device, device_, m.pages.size(),
                                      service_done)
          : h2d_.reserve(service_done, m.pages.size());
  record_event(rec_, EventType::kMigrationPlanned, m.lead, m.pages.size(),
               transfer_done - service_done);
  eq_.schedule_at(transfer_done, [this, mig = std::move(m)]() mutable {
    complete(std::move(mig));
  });
}

void MigrationScheduler::complete(MigrationBatch m) {
  // Batches are tenant-homogeneous: every page of the plan lives in the
  // batch tenant's namespace, so one chain/policy domain covers the batch.
  ChunkChain& chain = chains_.chain_for(m.tenant);
  EvictionPolicy* policy = chains_.policy_for(m.tenant);
  assert(policy != nullptr);
  TenantStats* ts =
      tenants_ != nullptr && m.tenant != kNoTenant ? &tenants_->stats(m.tenant)
                                                   : nullptr;
  const bool peer = m.src_device != kHostDevice;
  for (const PageId page : m.pages) {
    // Bind a physical frame (accounting was done at service time); the
    // slot-binding allocator is a plain allocate() outside large mode.
    pt_.map(page, frames_.allocate_for(page));
    if (fabric_ != nullptr) {
      fabric_->note_page_mapped(device_, page);
      // Peer fetch: the source now surrenders its (pinned) copy.
      if (peer) fabric_->surrender_at(m.src_device, page);
    }

    const ChunkId c = chunk_of_page(page);
    ChunkEntry* e = chain.find(c);
    if (e == nullptr) {
      const bool at_head = policy->insert_position(c) == InsertPosition::kHead;
      e = &chain.insert(c, at_head);
      policy->on_chunk_inserted(*e);
    }
    const u32 idx = page_index_in_chunk(page);
    e->resident.set(idx);
    ++e->hpe_counter;  // HPE's counter counts *migrated* pages — the
                       // prefetch pollution the paper's Inefficiency 1 describes

    // Wake any warps that faulted on this page; their presence marks the
    // page as demanded (touched) rather than purely prefetched.
    if (PendingFault pf; inflight_.take(page, pf) && !pf.waiters.empty()) {
      e->touched.set(idx);
      e->last_touch_interval = chain.current_interval();
      ++stats_.pages_demanded;
      if (ts != nullptr) ++ts->pages_demanded;
      if (pf.faulted) {
        stats_.fault_wait_cycles += eq_.now() - pf.raised_at;
        if (ts != nullptr) ts->fault_wait_cycles += eq_.now() - pf.raised_at;
      }
      policy->on_page_touched(*e, idx);
      // Lazy coalescing trigger: a chunk whose every page has now been
      // demanded may complete its 2 MB region — scan off the critical path.
      if (lfm_ != nullptr && e->touched.full())
        lfm_->schedule_scan(large_of_chunk(c));
      for (auto& wake : pf.waiters) wake();
    } else {
      ++stats_.pages_prefetched;
      if (ts != nullptr) ++ts->pages_prefetched;
    }
  }
  stats_.pages_migrated_in += m.pages.size();
  if (ts != nullptr) ts->pages_migrated_in += m.pages.size();

  // Release service-time pins.
  for (const ChunkId c : m.pinned) {
    ChunkEntry& e = chain.entry(c);  // pinned chunks cannot have been evicted
    assert(e.pin_count > 0);
    --e.pin_count;
  }

  // Advance the interval clock by migrated pages (64 pages = 4 chunks per
  // interval with whole-chunk prefetch, matching §IV-B). A batch larger than
  // one interval crosses several boundaries at once (a 512-page tree-
  // prefetch plan crosses 8): the policy's per-interval work (threshold
  // checks, accumulator resets) must run once per boundary, not once per
  // batch. Per-tenant domains advance their own interval clocks.
  const u64 crossed = chain.note_pages_migrated(m.pages.size());
  for (u64 i = 0; i < crossed; ++i) {
    record_event_for(rec_, m.tenant, EventType::kIntervalBoundary,
                     chain.current_interval() - crossed + i + 1,
                     chain.pages_migrated());
    policy->on_interval_boundary();
  }

  if (fault_batch_ > 1)
    record_event(rec_, EventType::kBatchServiced, m.lead, m.faults,
                 (eq_.now() - m.formed_at) / std::max<u64>(1, m.faults));

  // Driver facade: pre-evict ahead of the next fault, release the slot and
  // admit the next batch.
  hook_(m.tenant, peer);
}

}  // namespace uvmsim
