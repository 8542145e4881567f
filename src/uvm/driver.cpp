#include "uvm/driver.hpp"

#include <algorithm>

namespace uvmsim {

UvmDriver::UvmDriver(EventQueue& eq, const SystemConfig& sys,
                     const PolicyConfig& pol, u64 footprint_pages,
                     u64 capacity_pages)
    : eq_(eq),
      sys_(sys),
      pol_(pol),
      footprint_pages_(footprint_pages),
      pt_(footprint_pages),
      chains_(pol.interval_faults),
      frames_(capacity_pages, u64{pol.pre_evict_watermark_chunks} * kChunkPages),
      backend_(make_fault_backend(sys, pol, footprint_pages)),
      evictor_(eq, chains_, pt_, frames_, sys.pcie_page_cycles(), stats_),
      scheduler_(eq, sys, pol, footprint_pages, frames_, pt_, chains_,
                 stats_) {
  scheduler_.set_completion_hook(
      [this](TenantId t, bool peer) { post_migration(t, peer); });
  scheduler_.set_backend(backend_.get());
  chains_.reserve_chunks(capacity_pages / kChunkPages + 1);
  if (pol.large_pages) {
    frames_.enable_large_frames();
    lfm_ = std::make_unique<LargeFrameManager>(eq_, sys_, pt_, chains_, stats_);
    evictor_.set_large_manager(lfm_.get(), sys_.bulk_dma_percent);
    scheduler_.set_large_manager(lfm_.get());
  }
}

UvmDriver::~UvmDriver() = default;

void UvmDriver::set_policy(std::unique_ptr<EvictionPolicy> policy) {
  if (policy) policy->set_recorder(rec_);
  chains_.set_policy(0, std::move(policy));
}
void UvmDriver::set_domain_policy(u64 domain,
                                  std::unique_ptr<EvictionPolicy> policy) {
  if (policy) policy->set_recorder(rec_);
  chains_.set_policy(domain, std::move(policy));
}
void UvmDriver::set_prefetcher(std::unique_ptr<Prefetcher> prefetcher) {
  prefetcher_ = std::move(prefetcher);
  evictor_.set_prefetcher(prefetcher_.get());
  if (prefetcher_) prefetcher_->set_recorder(rec_);
}
void UvmDriver::set_recorder(FlightRecorder* rec) {
  rec_ = rec;
  backend_->set_recorder(rec_);
  evictor_.set_recorder(rec_);
  scheduler_.set_recorder(rec_);
  chains_.set_recorder(rec_);
  if (lfm_) lfm_->set_recorder(rec_);
  if (prefetcher_) prefetcher_->set_recorder(rec_);
}

void UvmDriver::configure_tenancy(TenantTable* table, TenantMode mode,
                                  EvictionScope scope) {
  assert(table != nullptr);
  table_ = table;
  mode_ = mode;
  table_->compute_quotas(frames_.capacity());
  frames_.attach_tenants(table, mode);
  evictor_.set_tenancy(table, mode, scope);
  scheduler_.set_tenant_table(table);
  if (mode == TenantMode::kShared)
    chains_.set_tenant_table(table);
  else
    chains_.configure_domains(table->size(), table);
}

u64 UvmDriver::detach_tenant(TenantId t) {
  assert(table_ != nullptr && table_->active(t));
  const PageId base = table_->info(t).base;
  const u64 span = table_->namespace_pages(t);
  ChunkChain& chain = chains_.chain_for(t);
  u64 reclaimed = 0;
  const ChunkId first = chunk_of_page(base);
  const ChunkId last = chunk_of_page(base + span - 1);
  for (ChunkId c = first; c <= last; ++c) {
    ChunkEntry* e = chain.find(c);
    if (e == nullptr) continue;
    assert(e->pin_count == 0 && "detach only after the tenant's warps finish");
    if (lfm_ != nullptr && lfm_->coalesced(large_of_chunk(c)))
      lfm_->splinter(large_of_chunk(c), SplinterReason::kSurrender);
    const PageId chunk_base = first_page_of_chunk(c);
    for (u32 i = 0; i < kChunkPages; ++i) {
      if (!e->resident.test(i)) continue;
      e->resident.clear(i);
      e->touched.clear(i);
      const FrameId frame = pt_.unmap(chunk_base + i);
      frames_.release(frame, t);
      ++reclaimed;
      evictor_.shootdown(chunk_base + i, frame);
    }
    // Teardown is not an eviction: no policy notification (a recycled
    // namespace must not seed the next job's wrong-eviction buffer) and no
    // pattern recording or D2H write-back — the job is done, its data dies.
    chain.erase(c);
  }
  if (prefetcher_) prefetcher_->forget_range(base, span);
  return reclaimed;
}

void UvmDriver::attach_fabric(FabricPort* fabric, u32 device, bool spill) {
  assert(fabric != nullptr);
  fabric_ = fabric;
  device_ = device;
  evictor_.set_fabric(fabric, device, spill);
  scheduler_.set_fabric(fabric, device);
}

void UvmDriver::note_touch(PageId p) {
  const ChunkId c = chunk_of_page(p);
  const u64 domain = chains_.domain_of_chunk(c);
  ChunkChain& chain = chains_.chain(domain);
  ChunkEntry* e = chain.find(c);
  if (e == nullptr) return;  // resident page always has a chain entry, but be safe
  const u32 idx = page_index_in_chunk(p);
  if (!e->touched.test(idx)) {
    e->touched.set(idx);
    ++e->hpe_counter;
    // Lazy coalescing trigger (large-pages mode): this chunk just became
    // fully demand-touched — its 2 MB region may now qualify. The scan runs
    // deferred, off this access's critical path.
    if (lfm_ != nullptr && e->touched.full())
      lfm_->schedule_scan(large_of_chunk(c));
  }
  e->last_touch_interval = chain.current_interval();
  EvictionPolicy* policy = chains_.policy(domain);
  if (policy->reorder_on_touch()) chain.move_to_tail(e->id);
  policy->on_page_touched(*e, idx);
}

void UvmDriver::fault(PageId p, u32 sm, WakeCallback wake) {
  assert(p < footprint_pages_);
  if (pt_.resident(p)) {  // raced with a completing migration
    note_touch(p);
    wake();
    return;
  }
  const TenantId t = tenant_of(p);
  if (scheduler_.in_flight(p)) {
    // A migration covering this page is in flight: the fault coalesces
    // (replayable far faults simply replay once the page lands).
    ++stats_.faults_coalesced;
    if (t != kNoTenant) ++table_->stats(t).faults_coalesced;
    record_event(rec_, EventType::kFaultCoalesced, p, 1);
    scheduler_.add_waiter(p, std::move(wake));
    return;
  }
  if (backend_->coalesce(p, std::move(wake))) {
    ++stats_.faults_coalesced;  // fault already raised, not yet serviced
    if (t != kNoTenant) ++table_->stats(t).faults_coalesced;
    record_event(rec_, EventType::kFaultCoalesced, p, 0);
    return;
  }
  if (fabric_ != nullptr) {
    const FabricDecision d = fabric_->route_fault(device_, p);
    switch (d.route) {
      case FabricRoute::kHostFetch:
        break;  // fall through to the normal host-migration path
      case FabricRoute::kRemoteAccess: {
        // Map the access over NVLink: one cache line crosses the fabric and
        // the warp resumes; the page stays on its owner.
        ++stats_.remote_accesses;
        const Cycle done = fabric_->charge_remote(device_, d.device, p);
        record_event(rec_, EventType::kRemoteAccess, p, d.device,
                     done - eq_.now());
        eq_.schedule_at(done, std::move(wake));
        return;
      }
      case FabricRoute::kPeerFetch:
        peer_fetch(p, d.device, d.hopback, std::move(wake));
        return;
      case FabricRoute::kForward:
        // Placement homes the page elsewhere: the home device services the
        // fault with its own chain/policy; the reply crosses back as one
        // remote access.
        ++stats_.faults_forwarded;
        fabric_->forward_fault(device_, d.device, p, std::move(wake));
        return;
      case FabricRoute::kRetry:
        // Another device is fetching the page right now; re-route once its
        // migration has had time to land.
        eq_.schedule_in(sys_.fault_latency_cycles() / 4 + 1,
                        [this, p, sm, w = std::move(wake)]() mutable {
                          fault(p, sm, std::move(w));
                        });
        return;
    }
  }
  ++stats_.page_faults;
  if (t != kNoTenant) ++table_->stats(t).page_faults;
  record_event(rec_, EventType::kFaultRaised, p, chunk_of_page(p));
  // Wrong-eviction detection happens per fault event, in the domain that
  // evicted (and may re-admit) the page's chunk.
  chains_.policy_for(t)->on_fault(p);
  backend_->raise(p, sm, std::move(wake), eq_.now());
  dispatch_pending();
}

void UvmDriver::service_batch(std::vector<PageId> leads) {
  // Any of the batch's faults may have been absorbed into another plan (or
  // even completed) between formation/retry and now; if none are left,
  // release the slot and move on.
  std::erase_if(leads, [&](PageId p) { return !backend_->pending(p); });
  if (leads.empty()) {
    scheduler_.release_slot();
    dispatch_pending();
    return;
  }
  if (pol_.fault_batch > 1)
    record_event(rec_, EventType::kFaultBatchFormed, leads.front(),
                 leads.size(), backend_->queued());
  const TenantId t = tenant_of(leads.front());
  ChunkChain& chain = chains_.chain_for(t);

  // 1. Let the prefetcher plan the migration set, one plan per fault in the
  //    batch, merged and deduped. A lead page already swept into an earlier
  //    lead's plan is absorbed intra-batch (its waiters ride along). When
  //    prefetching under oversubscription is disabled (Fig 10's variant), a
  //    full memory demands the faulted pages only. Tenant pressure is
  //    scoped: partitioned tenants gate on their own quota headroom.
  MigrationBatch m;
  m.formed_at = eq_.now();
  m.tenant = t;
  const bool gated = !pol_.prefetch_when_full && frames_.under_pressure(t);
  for (const PageId p : leads) {
    if (std::find(m.pages.begin(), m.pages.end(), p) != m.pages.end()) continue;
    if (gated) {
      m.pages.push_back(p);
      continue;
    }
    std::vector<PageId> plan = prefetcher_->plan(p, *this);
    // Clip the plan to the faulting tenant's namespace: a prefetcher
    // planning near a namespace edge must not migrate another tenant's (or
    // an alignment gap's) pages.
    if (table_ != nullptr)
      std::erase_if(plan,
                    [&](PageId q) { return !table_->owns_page(t, q); });
    // Defensive: guarantee the faulted page is transferred even if a
    // prefetcher mis-plans around it.
    if (std::find(plan.begin(), plan.end(), p) == plan.end())
      plan.push_back(p);
    MigrationScheduler::merge_plan(m.pages, plan);
  }

  // Keep the faulted pages at the front (in batch order) so plan trimming
  // never drops them first, and clamp oversized plans (the tree prefetcher
  // can request up to 2 MB) to the physical capacity — the tenant's quota
  // in partitioned mode.
  for (std::size_t i = 0; i < leads.size(); ++i) {
    auto it = std::find(m.pages.begin() + static_cast<std::ptrdiff_t>(i),
                        m.pages.end(), leads[i]);
    assert(it != m.pages.end());
    std::iter_swap(m.pages.begin() + static_cast<std::ptrdiff_t>(i), it);
  }
  u64 admission_cap = capacity_pages();
  if (table_ != nullptr && mode_ == TenantMode::kPartitioned)
    admission_cap = std::min(admission_cap, table_->quota_frames(t));
  if (m.pages.size() > admission_cap) m.pages.resize(admission_cap);
  while (leads.size() > m.pages.size()) {  // window wider than capacity
    backend_->requeue_front(leads.back());
    leads.pop_back();
  }

  // 2. Make room. Chunks touched by this plan are pinned before any eviction
  //    so a victim search can never select what we are about to fill. All
  //    planned pages live in the batch tenant's namespace, hence its chain.
  for (const PageId page : m.pages) {
    if (ChunkEntry* e = chain.find(chunk_of_page(page))) {
      ++e->pin_count;
      m.pinned.push_back(e->id);
    }
  }
  const auto unpin_page = [&](PageId page) {
    if (ChunkEntry* e = chain.find(chunk_of_page(page))) {
      auto it = std::find(m.pinned.begin(), m.pinned.end(), e->id);
      if (it != m.pinned.end()) {
        --e->pin_count;
        m.pinned.erase(it);
      }
    }
  };
  const auto room = evictor_.make_room(m.pages.size(), t);
  if (room.starved) {
    // Every candidate chunk is pinned by concurrent migrations. If even the
    // faulted pages cannot fit, release our pins and retry once a
    // concurrent migration has completed (one must exist — pins come only
    // from active migrations). Otherwise shrink the plan to what fits now;
    // a trimmed lead fault goes back to the front of the backlog.
    if (frames_.admissible_frames(t) == 0) {
      for (const ChunkId c : m.pinned) --chain.entry(c).pin_count;
      eq_.schedule_in(sys_.fault_latency_cycles() / 4 + 1,
                      [this, ls = std::move(leads)]() mutable {
                        service_batch(std::move(ls));
                      });
      return;
    }
    while (m.pages.size() > frames_.admissible_frames(t)) {
      const PageId dropped = m.pages.back();
      unpin_page(dropped);
      m.pages.pop_back();
      if (m.pages.size() < leads.size()) {
        assert(leads.back() == dropped);
        backend_->requeue_front(dropped);
        leads.pop_back();
      }
    }
  }
  assert(frames_.admissible_frames(t) >= m.pages.size());
  frames_.reserve(m.pages.size(), t);

  // 3. Mark every planned page in flight, absorbing pending faults: their
  //    waiters ride this migration and their backlog entries will be
  //    skipped at batch formation.
  for (const PageId page : m.pages)
    scheduler_.mark_in_flight(page, backend_->extract(page));

  // 4. Hand over to the scheduler for timing and completion.
  m.lead = leads.front();
  m.faults = static_cast<u32>(leads.size());
  ++stats_.migration_ops;
  stats_.demand_evictions += room.evicted;
  scheduler_.dispatch(std::move(m), room.evicted);
}

void UvmDriver::peer_fetch(PageId p, u32 src, bool hopback, WakeCallback wake) {
  ++stats_.page_faults;
  ++stats_.peer_fetches;
  if (hopback) ++stats_.spill_hopbacks;
  record_event(rec_, EventType::kFaultRaised, p, chunk_of_page(p));
  record_event(rec_, EventType::kPeerMigration, p, src, hopback ? 1 : 0);
  // Wrong-eviction detection sees hop-backs exactly as the paper intends: a
  // re-fault on a chunk this device evicted (spilled) is a wrong eviction.
  chains_.policy_for(tenant_of(p))->on_fault(p);
  PendingFault pf;
  pf.waiters.push_back(std::move(wake));
  pf.raised_at = eq_.now();
  pf.faulted = true;
  scheduler_.mark_in_flight(p, std::move(pf));
  service_peer(p, src);
}

void UvmDriver::service_peer(PageId p, u32 src) {
  const TenantId t = tenant_of(p);
  ChunkChain& chain = chains_.chain_for(t);
  MigrationBatch m;
  m.formed_at = eq_.now();
  m.tenant = t;
  m.src_device = src;
  m.lead = p;
  m.pages.push_back(p);
  if (ChunkEntry* e = chain.find(chunk_of_page(p))) {
    ++e->pin_count;
    m.pinned.push_back(e->id);
  }
  const auto room = evictor_.make_room(1, t);
  if (room.starved && frames_.admissible_frames(t) == 0) {
    // Every candidate chunk is pinned by concurrent migrations; retry once
    // one of them has completed (the page stays marked in flight, so peer
    // and local faults keep coalescing onto it).
    for (const ChunkId c : m.pinned) --chain.entry(c).pin_count;
    eq_.schedule_in(sys_.fault_latency_cycles() / 4 + 1,
                    [this, p, src] { service_peer(p, src); });
    return;
  }
  frames_.reserve(1, t);
  ++stats_.migration_ops;
  stats_.demand_evictions += room.evicted;
  scheduler_.dispatch(std::move(m), room.evicted);
}

void UvmDriver::surrender_page(PageId p) {
  // A coalesced region cannot lose a single page: splinter first (the 2 MB
  // translation disappears; per-page frames stay put until unmapped below).
  if (lfm_ != nullptr && lfm_->coalesced(large_of_page(p)))
    lfm_->splinter(large_of_page(p), SplinterReason::kSurrender);
  const ChunkId c = chunk_of_page(p);
  ChunkChain& chain = chains_.chain_of_chunk(c);
  ChunkEntry& e = chain.entry(c);
  assert(e.pin_count > 0);  // pinned by route_fault when the fetch was routed
  --e.pin_count;
  const u32 idx = page_index_in_chunk(p);
  if (e.resident.test(idx)) {
    e.resident.clear(idx);
    e.touched.clear(idx);
    const FrameId frame = pt_.unmap(p);
    frames_.release(frame, tenant_of(p));
    ++stats_.pages_surrendered;
    evictor_.shootdown(p, frame);
  }
  // A migration-away is not an eviction: no policy notification, no pattern
  // recording, no D2H write-back. Drop the entry once nothing is left.
  if (e.resident.count() == 0 && e.pin_count == 0) chain.erase(c);
}

void UvmDriver::adopt_spilled_chunk(ChunkId c, const TouchBits& resident) {
  const PageId base = first_page_of_chunk(c);
  const TenantId t = tenant_of(base);
  const u64 domain = chains_.domain_of_chunk(c);
  ChunkChain& chain = chains_.chain(domain);
  ChunkEntry* e = chain.find(c);
  if (e == nullptr) {
    e = &chain.insert(c, /*at_head=*/false);
    chains_.policy(domain)->on_chunk_inserted(*e);
  }
  e->spilled = true;
  for (u32 i = 0; i < kChunkPages; ++i) {
    if (!resident.test(i) || e->resident.test(i)) continue;
    frames_.reserve(1, t);
    pt_.map(base + i, frames_.allocate_for(base + i));
    e->resident.set(i);
  }
  // Touched bits start empty: the spilled copy is a second chance, and only
  // genuine demand touches here should count toward MHPE's untouch levels.
}

void UvmDriver::pin_for_transfer(ChunkId c) {
  ChunkEntry* e = chains_.chain_of_chunk(c).find(c);
  assert(e != nullptr);
  ++e->pin_count;
}

void UvmDriver::post_migration(TenantId tenant, bool peer) {
  // Pre-evict ahead of the next fault: keep the configured watermark of
  // frames free so eviction work stays off fault critical paths. Only
  // meaningful when memory is actually oversubscribed — with the footprint
  // fully cacheable nothing will ever need the headroom. Scoped to the
  // tenant whose batch just completed: its chain (partitioned/quota) or
  // its scope preference (shared) supplies the victims.
  if (frames_.capacity() < footprint_pages_) {
    const u64 watermark = frames_.watermark_pages();
    if (frames_.admissible_frames(tenant) < watermark)
      record_event_for(rec_, tenant, EventType::kPreEvictionTriggered,
                       frames_.free_frames(), watermark);
    stats_.pre_evictions += evictor_.make_room(watermark, tenant).evicted;
  }

  // Admit backlogged faults into the freed driver slot. Peer fetches never
  // held a slot (they bypass the batcher), so there is nothing to release.
  if (peer) return;
  scheduler_.release_slot();
  dispatch_pending();
}

void UvmDriver::dispatch_pending() {
  if (!scheduler_.has_free_slot()) return;
  std::vector<PageId> leads = backend_->take_batch(table_);
  if (leads.empty()) return;
  scheduler_.acquire_slot();
  service_batch(std::move(leads));
}

}  // namespace uvmsim
