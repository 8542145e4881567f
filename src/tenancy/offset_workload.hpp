// OffsetWorkload: a Workload relocated into a tenant's page namespace.
//
// Multi-tenant runs place each tenant's workload at a disjoint, 2 MB
// aligned base offset (TenantTable). The wrapper shifts every emitted page
// by the base and leaves everything else — footprint, pattern, per-warp
// streams, think times — untouched, so a tenant's access behaviour is
// identical to its solo run modulo the address shift.
#pragma once

#include <memory>

#include "tenancy/tenant.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {

class OffsetWorkload final : public Workload {
 public:
  OffsetWorkload(const Workload& inner, PageId base)
      : inner_(inner), base_(base) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::string abbr() const override { return inner_.abbr(); }
  [[nodiscard]] u64 footprint_pages() const override {
    return inner_.footprint_pages();
  }
  [[nodiscard]] PatternType pattern() const override { return inner_.pattern(); }
  [[nodiscard]] PageId first_page() const override {
    return base_ + inner_.first_page();
  }

  [[nodiscard]] std::unique_ptr<AccessStream> make_stream(
      const WarpContext& ctx) const override {
    return std::make_unique<Stream>(inner_.make_stream(ctx), base_);
  }

 private:
  class Stream final : public AccessStream {
   public:
    Stream(std::unique_ptr<AccessStream> inner, PageId base)
        : inner_(std::move(inner)), base_(base) {}
    bool next(Access& out) override {
      if (!inner_->next(out)) return false;
      out.page += base_;
      return true;
    }

   private:
    std::unique_ptr<AccessStream> inner_;
    PageId base_;
  };

  const Workload& inner_;
  PageId base_;
};

}  // namespace uvmsim
