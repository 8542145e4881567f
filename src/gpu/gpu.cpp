#include "gpu/gpu.hpp"

#include <algorithm>

#include "common/rng.hpp"

namespace uvmsim {
namespace {

/// L1D blocks are the device's frames, plus — on a fabric device — the
/// workload's pages, since remote lines are tagged page-as-frame
/// (finish_access).
u64 l1d_block_count(const UvmDriver& driver, const Workload& workload) {
  const u64 frames = driver.capacity_pages();
  if (!driver.fabric_attached()) return frames;
  return std::max(frames, workload.first_page() + workload.footprint_pages());
}

}  // namespace

Gpu::Gpu(EventQueue& eq, const SystemConfig& cfg, UvmDriver& driver,
         const Workload& workload, u64 seed)
    : eq_(eq),
      cfg_(cfg),
      driver_(driver),
      dram_(cfg),
      l2_tlb_("L2TLB", cfg.l2_tlb_entries, cfg.l2_tlb_ways, cfg.l2_tlb_latency,
              cfg.l2_tlb_ports),
      l2_cache_(cfg.l2_cache_bytes / cfg.cache_line_bytes, cfg.l2_cache_ways,
                static_cast<u32>(kPageBytes) / cfg.cache_line_bytes),
      // Bind the walker to the member copy, not the ctor argument: callers
      // may pass a temporary config (multi-tenant SM slices do).
      walker_(eq, driver.page_table(), cfg_, workload.first_page(),
              workload.footprint_pages()),
      lines_per_page_(static_cast<u32>(kPageBytes) / cfg.cache_line_bytes),
      tlb_sharers_(cfg.num_sms, workload.first_page(),
                   workload.footprint_pages()),
      l1d_sharers_(cfg.num_sms, 0, l1d_block_count(driver, workload)) {
  SplitMix64 seeder(seed);
  sms_.resize(cfg.num_sms);
  for (u32 s = 0; s < cfg.num_sms; ++s) {
    Sm& sm = sms_[s];
    sm.l1_tlb = std::make_unique<Tlb>("L1TLB." + std::to_string(s),
                                      cfg.l1_tlb_entries, cfg.l1_tlb_ways,
                                      cfg.l1_tlb_latency);
    sm.l1d = std::make_unique<DataCache>(
        cfg.l1_cache_bytes / cfg.cache_line_bytes, cfg.l1_cache_ways,
        lines_per_page_);
    sm.warps.resize(cfg.warps_per_sm);
    for (u32 w = 0; w < cfg.warps_per_sm; ++w) {
      const WarpContext ctx{
          .global_index = s * cfg.warps_per_sm + w,
          .total_warps = cfg.num_sms * cfg.warps_per_sm,
          .seed = seeder.next(),
      };
      sm.warps[w].stream = workload.make_stream(ctx);
      ++live_warps_;
    }
  }
  // Evictions invalidate translations everywhere (TLB shootdown) and the
  // physically-indexed cache lines of the departing frame. The driver's
  // EvictionEngine (uvm/eviction_engine.hpp) invokes this synchronously,
  // once per evicted page, before the page's frame is recycled — so the
  // frame number still uniquely identifies the departing lines. Registered
  // additively: multi-tenant runs share one driver across several Gpu
  // instances, and every one must observe every shootdown.
  shootdown_handle_ = driver_.add_shootdown_handler(
      [this](PageId p, FrameId f) { shootdown(p, f); });
  // Large-pages mode: gated 2 MB sub-arrays beside the small TLBs, plus the
  // large-entry shootdown (splinter / whole-frame eviction). Only the 2 MB
  // translation dies there — per-page entries and cache lines are handled
  // by the per-page shootdown above when frames are actually unmapped.
  if (driver_.large_pages_enabled()) {
    l2_tlb_.configure_large(cfg.l2_tlb_large_entries);
    for (auto& sm : sms_) sm.l1_tlb->configure_large(cfg.l1_tlb_large_entries);
    large_handle_ = driver_.add_large_shootdown_handler([this](LargeId l) {
      l2_tlb_.invalidate_large(l);
      for (auto& sm : sms_) sm.l1_tlb->invalidate_large(l);
    });
  }
}

Gpu::~Gpu() {
  // Fleet runs destroy a job's Gpu while the shared driver lives on: the
  // handlers above capture `this`, so they must not outlive it.
  driver_.remove_shootdown_handler(shootdown_handle_);
  if (driver_.large_pages_enabled())
    driver_.remove_large_shootdown_handler(large_handle_);
}

void Gpu::launch() {
  for (u32 s = 0; s < sms_.size(); ++s)
    for (u32 w = 0; w < sms_[s].warps.size(); ++w)
      warp_step(s, w);
}

void Gpu::warp_step(u32 sm, u32 warp) {
  Warp& wp = sms_[sm].warps[warp];
  Access a;
  if (!wp.stream->next(a)) {
    wp.done = true;
    warp_finished();
    return;
  }
  ++accesses_;
  auto ev = [this, sm, warp, page = a.page] { do_access(sm, warp, page); };
  // One event per access: the capture must stay in the SBO buffer, or the
  // simulator is back to one heap allocation per simulated access.
  static_assert(EventQueue::Callback::fits_inline<decltype(ev)>);
  eq_.schedule_in(a.think, std::move(ev));
}

void Gpu::do_access(u32 sm, u32 warp, PageId page) {
  // (1) per-SM L1 TLB.
  const Tlb::Result l1 = sms_[sm].l1_tlb->lookup(eq_.now(), page);
  if (l1.hit) {
    finish_access(sm, warp, page, l1.ready_at);
    return;
  }
  // (2) shared L2 TLB. A hit anywhere below L1 is a demand touch the driver
  // can observe (PTE access bits).
  const Tlb::Result l2 = l2_tlb_.lookup(l1.ready_at, page);
  if (l2.hit) {
    // A large-entry L2 hit propagates the 2 MB translation to the L1.
    if (l2.large)
      sms_[sm].l1_tlb->fill_large(large_of_page(page));
    else
      fill_l1_tlb(sm, page);
    driver_.note_touch(page);
    finish_access(sm, warp, page, l2.ready_at);
    return;
  }
  // (3)-(5) page table walk.
  auto done = [this, sm, warp](PageId p, bool resident) {
    if (resident) {
      // A walk that ended on a level-1 large leaf fills 2 MB entries.
      if (l2_tlb_.large_enabled() &&
          driver_.page_table().large_mapped(large_of_page(p))) {
        l2_tlb_.fill_large(large_of_page(p));
        sms_[sm].l1_tlb->fill_large(large_of_page(p));
      } else {
        l2_tlb_.fill(p);
        fill_l1_tlb(sm, p);
      }
      driver_.note_touch(p);
      finish_access(sm, warp, p, eq_.now());
      return;
    }
    // Replayable far fault: the warp parks until the page is migrated; the
    // SM continues with its other warps (they have their own events).
    ++far_faults_;
    auto wake = [this, sm, warp, p] {
      l2_tlb_.fill(p);
      fill_l1_tlb(sm, p);
      finish_access(sm, warp, p, eq_.now());
    };
    static_assert(WakeCallback::fits_inline<decltype(wake)>);
    driver_.fault(p, sm, std::move(wake));
  };
  static_assert(PageWalker::WalkDone::fits_inline<decltype(done)>);
  walker_.walk(page, std::move(done));
}

void Gpu::finish_access(u32 sm, u32 warp, PageId page, Cycle ready) {
  // Charge the data access through the cache hierarchy (Table I). The line
  // within the page advances deterministically every second access: a warp
  // issues back-to-back accesses to the same coalesced 128 B transaction
  // (short-range reuse the L1D catches), then moves to another line.
  const FrameId f0 = driver_.page_table().frame_of(page);
  const FrameId f = f0 == kInvalidFrame ? page : f0;
  Warp& wp = sms_[sm].warps[warp];
  const u64 line =
      f * lines_per_page_ + (wp.access_count++ / 2 * 7) % lines_per_page_;

  Cycle done;
  const DataCache::Access l1d = sms_[sm].l1d->access(line);
  if (l1d.hit) {
    ++l1d_hits_;
    done = ready + cfg_.l1_cache_latency;
  } else {
    ++l1d_misses_;
    // Keep the L1D sharer mask exact: this SM joins the page's sharers with
    // its first line here and leaves a page when its last line goes.
    if (l1d.closed) l1d_sharers_.remove(l1d.evicted / lines_per_page_, sm);
    if (l1d.opened) l1d_sharers_.add(f, sm);
    if (l2_cache_.access(line).hit) {
      ++l2c_hits_;
      done = ready + cfg_.l2_cache_latency;
    } else {
      ++l2c_misses_;
      done = dram_.access(ready + cfg_.l2_cache_latency, f);
    }
  }
  auto ev = [this, sm, warp] { warp_step(sm, warp); };
  static_assert(EventQueue::Callback::fits_inline<decltype(ev)>);
  eq_.schedule_at(done, std::move(ev));
}

void Gpu::fill_l1_tlb(u32 sm, PageId p) {
  const PageId displaced = sms_[sm].l1_tlb->fill(p);
  if (displaced != kInvalidPage) tlb_sharers_.remove(displaced, sm);
  tlb_sharers_.add(p, sm);
}

void Gpu::shootdown(PageId p, u64 block) {
  l2_tlb_.invalidate(p);
  tlb_sharers_.drain(p, [&](u32 s) { sms_[s].l1_tlb->invalidate(p); });
  l2_cache_.invalidate_block(block);
  l1d_sharers_.drain(block, [&](u32 s) { sms_[s].l1d->invalidate_block(block); });
}

// Remote lines are tagged with the page-as-frame fallback (finish_access).
void Gpu::remote_shootdown(PageId p) { shootdown(p, p); }

bool Gpu::caches_page(PageId p, u64 block) const {
  if (l2_tlb_.contains(p) || l2_cache_.holds_block(block)) return true;
  for (const auto& sm : sms_)
    if (sm.l1_tlb->contains(p) || sm.l1d->holds_block(block)) return true;
  return false;
}

bool Gpu::sharers_cover(PageId p, u64 block) const {
  for (u32 s = 0; s < sms_.size(); ++s) {
    if (sms_[s].l1_tlb->contains(p) && !tlb_sharers_.has(p, s)) return false;
    if (sms_[s].l1d->holds_block(block) && !l1d_sharers_.has(block, s))
      return false;
  }
  return true;
}

void Gpu::warp_finished() {
  assert(live_warps_ > 0);
  if (--live_warps_ == 0) {
    finish_cycle_ = eq_.now();
    if (on_finished_) on_finished_();
  }
}

Gpu::Stats Gpu::stats() const {
  Stats st;
  st.accesses = accesses_;
  st.far_faults = far_faults_;
  st.l2_tlb_hits = l2_tlb_.hits();
  st.l2_tlb_misses = l2_tlb_.misses();
  st.l2_tlb_large_hits = l2_tlb_.large_hits();
  st.l1d_hits = l1d_hits_;
  st.l1d_misses = l1d_misses_;
  st.l2c_hits = l2c_hits_;
  st.l2c_misses = l2c_misses_;
  st.walks_performed = walker_.walks_performed();
  st.walk_cycles = walker_.walk_cycles();
  st.large_walks = walker_.large_walks();
  for (const auto& sm : sms_) {
    st.l1_tlb_hits += sm.l1_tlb->hits();
    st.l1_tlb_misses += sm.l1_tlb->misses();
    st.l1_tlb_large_hits += sm.l1_tlb->large_hits();
  }
  return st;
}

}  // namespace uvmsim
