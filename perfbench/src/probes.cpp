#include "probes.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/policy_registry.hpp"

namespace perfbench {

using namespace uvmsim;

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kPolicy: return "policy";
    case Layer::kPrefetch: return "prefetch";
    case Layer::kWorkloads: return "workloads";
    case Layer::kCount: break;
  }
  return "?";
}

const char* call_name(Call c) {
  switch (c) {
    case Call::kOnChunkInserted: return "on_chunk_inserted";
    case Call::kOnPageTouched: return "on_page_touched";
    case Call::kOnFault: return "on_fault";
    case Call::kOnIntervalBoundary: return "on_interval_boundary";
    case Call::kSelectVictim: return "select_victim";
    case Call::kSelectVictims: return "select_victims";
    case Call::kSelectVictimsFiltered: return "select_victims_filtered";
    case Call::kOnChunkEvicted: return "on_chunk_evicted";
    case Call::kInsertPosition: return "insert_position";
    case Call::kReorderOnTouch: return "reorder_on_touch";
    case Call::kPolicySetRecorder: return "set_recorder";
    case Call::kPolicyName: return "name";
    case Call::kPlan: return "plan";
    case Call::kPrefetchOnChunkEvicted: return "on_chunk_evicted";
    case Call::kForgetRange: return "forget_range";
    case Call::kPrefetchSetRecorder: return "set_recorder";
    case Call::kPrefetchName: return "name";
    case Call::kMakeStream: return "make_stream";
    case Call::kNext: return "next";
    case Call::kCount: break;
  }
  return "?";
}

Layer layer_of(Call c) {
  if (c < Call::kPlan) return Layer::kPolicy;
  if (c < Call::kMakeStream) return Layer::kPrefetch;
  return Layer::kWorkloads;
}

// --- ProbeSet ----------------------------------------------------------------

void ProbeSet::reset() {
  const std::lock_guard lock(mu_);
  probes_.clear();
  experiment_ = 0;
  epoch_ = Clock::now();
}

void ProbeSet::set_experiment(std::uint32_t e) {
  const std::lock_guard lock(mu_);
  experiment_ = e;
}

Probe& ProbeSet::make(Layer layer) {
  const std::lock_guard lock(mu_);
  probes_.push_back(std::make_unique<Probe>());
  probes_.back()->layer = layer;
  probes_.back()->experiment = experiment_;
  return *probes_.back();
}

std::array<CallStat, static_cast<std::size_t>(Call::kCount)> ProbeSet::totals()
    const {
  const std::lock_guard lock(mu_);
  std::array<CallStat, static_cast<std::size_t>(Call::kCount)> out{};
  for (const auto& p : probes_)
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].calls += p->stats[i].calls;
      out[i].ns += p->stats[i].ns;
    }
  return out;
}

std::array<u64, static_cast<std::size_t>(Layer::kCount)> ProbeSet::items() const {
  const std::lock_guard lock(mu_);
  std::array<u64, static_cast<std::size_t>(Layer::kCount)> out{};
  for (const auto& p : probes_) out[static_cast<std::size_t>(p->layer)] += p->items;
  return out;
}

std::vector<Span> ProbeSet::spans(std::size_t cap) const {
  const std::lock_guard lock(mu_);
  std::array<std::vector<Span>, static_cast<std::size_t>(Call::kCount)> by_call;
  for (const auto& p : probes_)
    for (const Span& s : p->spans)
      by_call[static_cast<std::size_t>(s.call)].push_back(s);
  std::vector<Span> out;
  for (auto& v : by_call) {
    std::sort(v.begin(), v.end(),
              [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
    const std::size_t stride = std::max<std::size_t>(1, (v.size() + cap - 1) / cap);
    for (std::size_t i = 0; i < v.size(); i += stride) out.push_back(v[i]);
  }
  return out;
}

ProbeSet& probes() {
  static ProbeSet set;
  return set;
}

double clock_overhead_ns() {
  static const double overhead = [] {
    std::vector<double> samples;
    for (int trial = 0; trial < 101; ++trial) {
      constexpr int kReps = 1000;
      u64 sum = 0;
      for (int i = 0; i < kReps; ++i) {
        const auto t0 = Clock::now();
        const auto t1 = Clock::now();
        sum += static_cast<u64>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
      }
      samples.push_back(static_cast<double>(sum) / kReps);
    }
    std::nth_element(samples.begin(), samples.begin() + 50, samples.end());
    return samples[50];
  }();
  return overhead;
}

Timed::~Timed() {
  const auto t1 = Clock::now();
  const u64 dur = static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0_).count());
  CallStat& s = p_.stats[static_cast<std::size_t>(c_)];
  ++s.calls;
  s.ns += dur;
  if (s.calls % Probe::kSpanStride == 1 && p_.spans.size() < Probe::kSpanCap) {
    const u64 start = static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t0_ - probes().epoch())
            .count());
    p_.spans.push_back(Span{c_, p_.experiment, start, dur});
  }
}

// --- TimedEvictionPolicy -------------------------------------------------------

void TimedEvictionPolicy::on_chunk_inserted(ChunkEntry& e) {
  const Timed t(probe_, Call::kOnChunkInserted);
  inner_->on_chunk_inserted(e);
}

void TimedEvictionPolicy::on_page_touched(ChunkEntry& e, u32 page) {
  const Timed t(probe_, Call::kOnPageTouched);
  inner_->on_page_touched(e, page);
}

void TimedEvictionPolicy::on_fault(PageId page) {
  const Timed t(probe_, Call::kOnFault);
  inner_->on_fault(page);
}

void TimedEvictionPolicy::on_interval_boundary() {
  const Timed t(probe_, Call::kOnIntervalBoundary);
  inner_->on_interval_boundary();
}

ChunkId TimedEvictionPolicy::select_victim() {
  const Timed t(probe_, Call::kSelectVictim);
  return inner_->select_victim();
}

std::vector<ChunkId> TimedEvictionPolicy::select_victims(u64 max) {
  const Timed t(probe_, Call::kSelectVictims);
  return inner_->select_victims(max);
}

std::vector<ChunkId> TimedEvictionPolicy::select_victims(u64 max,
                                                         const ChunkFilter& allow) {
  const Timed t(probe_, Call::kSelectVictimsFiltered);
  return inner_->select_victims(max, allow);
}

void TimedEvictionPolicy::on_chunk_evicted(const ChunkEntry& e) {
  const Timed t(probe_, Call::kOnChunkEvicted);
  ++probe_.items;
  inner_->on_chunk_evicted(e);
}

InsertPosition TimedEvictionPolicy::insert_position(ChunkId chunk) {
  const Timed t(probe_, Call::kInsertPosition);
  return inner_->insert_position(chunk);
}

bool TimedEvictionPolicy::reorder_on_touch() const {
  const Timed t(probe_, Call::kReorderOnTouch);
  return inner_->reorder_on_touch();
}

std::string TimedEvictionPolicy::name() const {
  const Timed t(probe_, Call::kPolicyName);
  return inner_->name();
}

void TimedEvictionPolicy::set_recorder(FlightRecorder* rec) {
  const Timed t(probe_, Call::kPolicySetRecorder);
  inner_->set_recorder(rec);
}

// --- TimedPrefetcher -----------------------------------------------------------

std::vector<PageId> TimedPrefetcher::plan(PageId faulted, const ResidencyView& view) {
  const Timed t(probe_, Call::kPlan);
  std::vector<PageId> out = inner_->plan(faulted, view);
  probe_.items += out.size();
  return out;
}

void TimedPrefetcher::on_chunk_evicted(ChunkId chunk, TouchBits touched) {
  const Timed t(probe_, Call::kPrefetchOnChunkEvicted);
  inner_->on_chunk_evicted(chunk, touched);
}

void TimedPrefetcher::forget_range(PageId base, u64 pages) {
  const Timed t(probe_, Call::kForgetRange);
  inner_->forget_range(base, pages);
}

std::string TimedPrefetcher::name() const {
  const Timed t(probe_, Call::kPrefetchName);
  return inner_->name();
}

void TimedPrefetcher::set_recorder(FlightRecorder* rec) {
  const Timed t(probe_, Call::kPrefetchSetRecorder);
  inner_->set_recorder(rec);
}

// --- TimedWorkload -------------------------------------------------------------

namespace {

class TimedStream final : public AccessStream {
 public:
  TimedStream(std::unique_ptr<AccessStream> inner, Probe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  bool next(Access& out) override {
    const Timed t(probe_, Call::kNext);
    const bool more = inner_->next(out);
    if (more) ++probe_.items;
    return more;
  }

 private:
  std::unique_ptr<AccessStream> inner_;
  Probe& probe_;
};

}  // namespace

std::unique_ptr<AccessStream> TimedWorkload::make_stream(const WarpContext& ctx) const {
  Probe& probe = probes().make(Layer::kWorkloads);
  std::unique_ptr<AccessStream> inner;
  {
    const Timed t(probe, Call::kMakeStream);
    inner = inner_.make_stream(ctx);
  }
  return std::make_unique<TimedStream>(std::move(inner), probe);
}

// --- CountingSink --------------------------------------------------------------

void CountingSink::emit(const TraceEvent& e) {
  ++by_type_[static_cast<std::size_t>(e.type)];
}

u64 CountingSink::total() const {
  u64 n = 0;
  for (const u64 v : by_type_) n += v;
  return n;
}

// --- Registration --------------------------------------------------------------

void register_timed_policies() {
  auto& reg = PolicyRegistry::instance();
  if (reg.has_eviction(kTimedEviction)) return;
  reg.register_eviction(kTimedEviction, [](const PolicyConfig& cfg, ChunkChain& chain) {
    auto inner = PolicyRegistry::instance().make_eviction(
        registry_key(cfg.eviction), cfg, chain);
    return std::make_unique<TimedEvictionPolicy>(std::move(inner), chain,
                                                 probes().make(Layer::kPolicy));
  });
  reg.register_prefetch(kTimedPrefetch, [](const PolicyConfig& cfg) {
    auto inner =
        PolicyRegistry::instance().make_prefetch(registry_key(cfg.prefetch), cfg);
    return std::make_unique<TimedPrefetcher>(std::move(inner), probes().make(Layer::kPrefetch));
  });
}

PolicyConfig traced(PolicyConfig cfg) {
  if (!cfg.eviction_name.empty() || !cfg.prefetch_name.empty())
    throw std::invalid_argument("traced(): preset must select policies by enum");
  cfg.eviction_name = kTimedEviction;
  cfg.prefetch_name = kTimedPrefetch;
  return cfg;
}

}  // namespace perfbench
