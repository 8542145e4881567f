// FaultBatcher: far-fault intake, coalescing and batch formation.
//
// Faults arrive one page at a time but the driver services them in batches
// (the real CUDA driver drains its whole fault buffer per wakeup). The
// batcher owns the raised-but-unserviced fault set and the admission
// backlog, and forms batches of up to `window` still-pending faults per
// driver wakeup. A window of 1 reproduces the classic one-fault-per-wakeup
// driver exactly.
//
// A queued fault whose page gets swept into another fault's migration plan
// is "absorbed": its entry is extracted (waiters ride that migration) and
// its stale backlog slot is skipped during batch formation — this is how
// one driver operation serves a whole batch of faults, the amortisation
// prefetching exists to provide.
#pragma once

#include <algorithm>
#include <cassert>
#include <deque>
#include <utility>
#include <vector>

#include "common/dense_id_map.hpp"
#include "common/types.hpp"
#include "tenancy/tenant.hpp"
#include "uvm/driver_types.hpp"

namespace uvmsim {

class FaultBatcher {
 public:
  /// Batches of up to `window` faults over pages [0, pages).
  FaultBatcher(u32 window, u64 pages)
      : window_(std::max(1u, window)), pending_(0, pages) {}

  [[nodiscard]] u32 window() const noexcept { return window_; }
  [[nodiscard]] bool pending(PageId p) const { return pending_.contains(p); }
  /// Faults raised and backlogged, including entries already absorbed.
  [[nodiscard]] u64 queued() const noexcept { return fault_queue_.size(); }

  /// A fault for an already-raised page: attach the waiter, no new entry.
  /// Returns false when the page has no pending fault (caller must raise).
  bool coalesce(PageId p, WakeCallback&& wake) {
    PendingFault* f = pending_.find(p);
    if (f == nullptr) return false;
    f->waiters.push_back(std::move(wake));
    return true;
  }

  /// Raise a new fault: create the pending entry (stamped for the latency
  /// statistic) and append it to the admission backlog.
  void raise(PageId p, WakeCallback&& wake, Cycle now) {
    assert(!pending_.contains(p));
    PendingFault& f = pending_[p];
    f.waiters.push_back(std::move(wake));
    f.raised_at = now;
    f.faulted = true;
    fault_queue_.push_back(p);
  }

  /// Form the next batch: up to `window` backlogged faults that are still
  /// pending (absorbed entries are discarded as they are encountered).
  ///
  /// With a tenant table attached, batches are tenant-homogeneous: one
  /// migration plan serves one tenant's namespace, so a fault from a
  /// different tenant than the batch lead ends the batch and stays queued
  /// to lead the next one. Global FIFO order across tenants is preserved.
  [[nodiscard]] std::vector<PageId> take_batch(
      const TenantTable* tenants = nullptr) {
    std::vector<PageId> batch;
    TenantId batch_tenant = kNoTenant;
    while (!fault_queue_.empty() && batch.size() < window_) {
      const PageId next = fault_queue_.front();
      if (!pending_.contains(next)) {  // absorbed by an earlier plan
        fault_queue_.pop_front();
        continue;
      }
      if (tenants != nullptr) {
        const TenantId t = tenants->tenant_of_page(next);
        if (batch.empty())
          batch_tenant = t;
        else if (t != batch_tenant)
          break;  // different tenant: it leads the next batch
      }
      fault_queue_.pop_front();
      batch.push_back(next);
    }
    return batch;
  }

  /// Absorb `p` into a migration plan: remove and return its pending entry
  /// (empty default when the page was planned purely as a prefetch).
  [[nodiscard]] PendingFault extract(PageId p) {
    PendingFault out;
    pending_.take(p, out);  // leaves the empty default when not pending
    return out;
  }

  /// A still-pending lead fault was trimmed out of an admitted plan: put it
  /// at the backlog front so it is serviced next.
  void requeue_front(PageId p) {
    assert(pending_.contains(p));
    fault_queue_.push_front(p);
  }

 private:
  u32 window_;
  /// Faults raised but not yet covered by a migration plan (page -> entry).
  DenseIdMap<PendingFault> pending_;
  std::deque<PageId> fault_queue_;  ///< admission-controlled backlog
};

}  // namespace uvmsim
