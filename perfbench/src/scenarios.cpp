#include "scenarios.hpp"

#include <bit>
#include <cstdio>

#include "common/rng.hpp"
#include "core/policy_factory.hpp"
#include "fabric/fabric_system.hpp"
#include "fleet/arrival.hpp"
#include "fleet/fleet_system.hpp"
#include "fleet/job.hpp"
#include "harness/experiment.hpp"
#include "harness/runner.hpp"
#include "workloads/benchmarks.hpp"

namespace perfbench {

using namespace uvmsim;

namespace {

/// Safety net only: every experiment must complete long before it, and
/// one that does not is reported as failed.
constexpr Cycle kCycleCap = 20'000'000'000ull;

/// One access-pattern type each: Types I-VI of Table II.
const std::vector<std::string> kFabricWorkloads = {"2DC", "KMN", "NW",
                                                   "SRD", "HWL", "HYB"};

struct Fig8Spec {
  std::string abbr;
  std::string preset;  ///< "baseline" or "CPPE"
  double oversub;
};

std::vector<Fig8Spec> fig8_specs(bool small) {
  std::vector<std::string> abbrs = benchmark_abbrs();
  if (small) abbrs = {"HOT", "NW"};
  std::vector<Fig8Spec> out;
  for (const double oversub : {0.75, 0.5})
    for (const char* preset : {"baseline", "CPPE"})
      for (const auto& a : abbrs) out.push_back({a, preset, oversub});
  return out;
}

PolicyConfig preset_of(const std::string& label, u64 seed) {
  PolicyConfig p = label == "CPPE" ? presets::cppe() : presets::baseline();
  p.seed = seed;
  return p;
}

FabricConfig fabric4_config() {
  FabricConfig f;
  f.gpus = 4;
  f.topology = FabricKind::kSwitch;
  return f;
}

FleetConfig fleet8_config(bool small) {
  FleetConfig f;
  f.enabled = true;
  f.devices = 8;
  f.jobs = small ? 100 : 1000;
  f.arrival_rate = 40.0;
  f.admission = AdmissionKind::kHeadroom;
  f.scheduler = FleetSchedKind::kLeastLoaded;
  f.oversub = 0.5;
  return f;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Fnv {
 public:
  void add(u64 v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  void add(double v) { add(std::bit_cast<u64>(v)); }
  void add(const std::string& s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001B3ull;
    }
    add(u64{s.size()});
  }
  [[nodiscard]] u64 value() const { return h_; }

 private:
  u64 h_ = 0xCBF29CE484222325ull;
};

void add_driver(Fnv& h, const DriverStats& d) {
  for (const u64 v :
       {d.page_faults, d.faults_coalesced, d.pages_migrated_in, d.pages_demanded,
        d.pages_prefetched, d.pages_evicted, d.chunks_evicted, d.migration_ops,
        d.demand_evictions, d.pre_evictions, d.fault_wait_cycles,
        d.remote_accesses, d.peer_fetches, d.spill_hopbacks, d.faults_forwarded,
        d.chunks_spilled, d.pages_spilled, d.pages_surrendered, d.coalesces,
        d.splinters, d.large_frames_evicted})
    h.add(v);
}

void add_gpu(Fnv& h, const Gpu::Stats& g) {
  for (const u64 v :
       {g.accesses, g.l1_tlb_hits, g.l1_tlb_misses, g.l2_tlb_hits,
        g.l2_tlb_misses, g.far_faults, g.l1d_hits, g.l1d_misses, g.l2c_hits,
        g.l2c_misses, g.l1_tlb_large_hits, g.l2_tlb_large_hits,
        g.walks_performed, g.walk_cycles, g.large_walks})
    h.add(v);
}

/// Pages resident on a device by its own accounting: everything brought in
/// (from host or a peer) minus everything evicted.
long long resident_pages(const DriverStats& d) {
  return static_cast<long long>(d.pages_demanded + d.pages_prefetched +
                                d.peer_fetches) -
         static_cast<long long>(d.pages_evicted);
}

ExperimentOutcome finish(Scenario s, std::string name, double setup_s,
                         double build_s, Clock::time_point t0, RunResult r) {
  ExperimentOutcome o;
  o.name = std::move(name);
  o.setup_s = setup_s;
  o.workload_build_s = build_s;
  o.wall_s = seconds_since(t0);
  o.digest = digest_of(r);
  o.failures = check_result(s, r);
  o.result = std::move(r);
  return o;
}

}  // namespace

std::optional<Scenario> parse_scenario(const std::string& s) {
  if (s == "fig8") return Scenario::kFig8;
  if (s == "fabric4") return Scenario::kFabric4;
  if (s == "fleet8") return Scenario::kFleet8;
  return std::nullopt;
}

const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kFig8: return "fig8";
    case Scenario::kFabric4: return "fabric4";
    case Scenario::kFleet8: return "fleet8";
  }
  return "?";
}

bool uses_engine(Scenario s) { return s != Scenario::kFig8; }

u64 digest_of(const RunResult& r) {
  Fnv h;
  h.add(r.workload);
  h.add(u64{r.completed});
  for (const u64 v : {r.cycles, r.footprint_pages, r.capacity_pages, r.h2d_pages,
                      r.d2h_pages, r.clamped_past, r.sim.events_executed})
    h.add(v);
  add_driver(h, r.driver);
  add_gpu(h, r.gpu);
  for (const DeviceRunResult& d : r.devices) {
    for (const u64 v : {u64{d.id}, d.capacity_pages, d.finish_cycle,
                        u64{d.completed}, d.h2d_pages, d.d2h_pages})
      h.add(v);
    add_driver(h, d.driver);
  }
  for (const LinkRunResult& l : r.links) {
    h.add(l.name);
    h.add(l.units_moved);
  }
  const FleetRunResult& f = r.fleet;
  if (f.enabled) {
    for (const u64 v : {f.jobs_submitted, f.jobs_completed, f.jobs_rejected,
                        f.rejected_queue_full, f.rejected_never_fits,
                        f.rejected_policy, f.peak_queue_depth})
      h.add(v);
    for (const double v : {f.goodput, f.mean_queue_wait, f.p95_queue_wait,
                           f.mean_slowdown, f.slowdown_p50, f.slowdown_p95,
                           f.slowdown_p99, f.fairness_min, f.fairness_mean})
      h.add(v);
  }
  return h.value();
}

std::vector<std::string> check_result(Scenario s, const RunResult& r) {
  std::vector<std::string> bad;
  if (!r.completed) bad.push_back("did not complete before the cycle cap");
  if (r.clamped_past != 0)
    bad.push_back("clamped_past = " + std::to_string(r.clamped_past));

  // Frame conservation. A fleet device also frees frames when a job
  // detaches, which is not an eviction, so only the lower bound holds there.
  const auto conserve = [&](const std::string& who, const DriverStats& d,
                            u64 capacity, bool upper) {
    const long long res = resident_pages(d);
    if (res < 0 || (upper && res > static_cast<long long>(capacity)))
      bad.push_back(who + ": resident pages " + std::to_string(res) +
                    " outside [0, " + std::to_string(capacity) + "]");
  };
  if (r.devices.empty()) {
    conserve("device", r.driver, r.capacity_pages, true);
  } else {
    for (const DeviceRunResult& d : r.devices)
      conserve("device " + std::to_string(d.id), d.driver, d.capacity_pages,
               s != Scenario::kFleet8);
  }

  if (s == Scenario::kFleet8) {
    const FleetRunResult& f = r.fleet;
    if (!f.enabled) bad.push_back("fleet slice missing");
    if (f.jobs_completed + f.jobs_rejected != f.jobs_submitted)
      bad.push_back("jobs completed " + std::to_string(f.jobs_completed) +
                    " + rejected " + std::to_string(f.jobs_rejected) +
                    " != submitted " + std::to_string(f.jobs_submitted));
  }
  return bad;
}

std::vector<ExperimentOutcome> run_pass(Scenario s, const PassOptions& opt) {
  std::vector<ExperimentOutcome> out;
  const EngineConfig engine{EngineKind::kSharded, opt.threads};
  std::uint32_t index = 0;
  const auto policy = [&](const std::string& preset) {
    const PolicyConfig p = preset_of(preset, opt.seed);
    return opt.traced ? traced(p) : p;
  };
  // Each experiment is built, run and destroyed inside one scope, so its
  // wall time includes construction and teardown.
  switch (s) {
    case Scenario::kFig8:
      for (const Fig8Spec& e : fig8_specs(opt.small)) {
        probes().set_experiment(index++);
        char name[64];
        std::snprintf(name, sizeof name, "%s/%s@%.2f", e.abbr.c_str(),
                      e.preset.c_str(), e.oversub);
        double setup = 0.0, build = 0.0;
        RunResult r;
        const auto t0 = Clock::now();
        {
          const auto wl = make_benchmark(e.abbr);
          build = seconds_since(t0);
          const TimedWorkload timed_wl(*wl);
          const Workload& w =
              opt.traced ? static_cast<const Workload&>(timed_wl) : *wl;
          UvmSystem sys(SystemConfig{}, policy(e.preset), w, e.oversub);
          if (opt.sink != nullptr) sys.recorder().add_sink(opt.sink);
          setup = seconds_since(t0);
          r = sys.run(kCycleCap);
        }
        out.push_back(finish(s, name, setup, build, t0, std::move(r)));
      }
      break;

    case Scenario::kFabric4: {
      const std::vector<std::string> abbrs =
          opt.small ? std::vector<std::string>{"HWL"} : kFabricWorkloads;
      for (const std::string& abbr : abbrs) {
        probes().set_experiment(index++);
        double setup = 0.0, build = 0.0;
        RunResult r;
        const auto t0 = Clock::now();
        {
          const auto wl = make_benchmark(abbr);
          build = seconds_since(t0);
          const TimedWorkload timed_wl(*wl);
          const Workload& w =
              opt.traced ? static_cast<const Workload&>(timed_wl) : *wl;
          FabricSystem sys(SystemConfig{}, policy("CPPE"), w, 0.5,
                           fabric4_config(), engine);
          if (opt.sink != nullptr) sys.add_sink(opt.sink);
          setup = seconds_since(t0);
          r = sys.run(kCycleCap);
        }
        out.push_back(
            finish(s, abbr + "/switch4@0.50", setup, build, t0, std::move(r)));
      }
      break;
    }

    case Scenario::kFleet8: {
      probes().set_experiment(index++);
      double setup = 0.0;
      RunResult r;
      const auto t0 = Clock::now();
      {
        FleetSystem sys(SystemConfig{}, policy("CPPE"), fleet8_config(opt.small),
                        engine);
        if (opt.sink != nullptr) sys.add_sink(opt.sink);
        setup = seconds_since(t0);
        r = sys.run(kCycleCap);
      }
      out.push_back(finish(s, "fleet8", setup, 0.0, t0, std::move(r)));
      break;
    }
  }
  return out;
}

std::vector<ExperimentOutcome> run_fig8_sweep(u64 seed, unsigned threads,
                                              bool small) {
  std::vector<ExperimentSpec> specs;
  for (const Fig8Spec& e : fig8_specs(small)) {
    ExperimentSpec spec;
    spec.workload = e.abbr;
    spec.label = e.preset;
    spec.policy = preset_of(e.preset, seed);
    spec.oversub = e.oversub;
    spec.max_cycles = kCycleCap;
    specs.push_back(std::move(spec));
  }
  std::vector<ExperimentOutcome> out;
  for (LabelledResult& lr : run_sweep(specs, threads)) {
    ExperimentOutcome o;
    o.name = lr.spec.workload + "/" + lr.spec.label;
    o.digest = digest_of(lr.result);
    o.failures = check_result(Scenario::kFig8, lr.result);
    o.result = std::move(lr.result);
    out.push_back(std::move(o));
  }
  return out;
}

std::vector<std::unique_ptr<Workload>> scenario_workloads(Scenario s) {
  std::vector<std::unique_ptr<Workload>> out;
  switch (s) {
    case Scenario::kFig8:
      for (const auto& a : benchmark_abbrs()) out.push_back(make_benchmark(a));
      break;
    case Scenario::kFabric4:
      for (const auto& a : kFabricWorkloads) out.push_back(make_benchmark(a));
      break;
    case Scenario::kFleet8:
      out = make_fleet_job_mix();
      break;
  }
  return out;
}

u64 inputs_digest(Scenario s, u64 seed) {
  // The per-warp seeds follow the Gpu's derivation (one SplitMix64 draw per
  // warp, from the experiment seed), so these are the streams a run sees.
  constexpr u32 kWarps = 28 * 8;
  constexpr int kAccessesPerWarp = 64;
  Fnv h;
  for (const auto& wl : scenario_workloads(s)) {
    SplitMix64 seeder(seed);
    for (u32 g = 0; g < kWarps; ++g) {
      const auto stream = wl->make_stream(
          WarpContext{.global_index = g, .total_warps = kWarps, .seed = seeder.next()});
      Access a{};
      for (int i = 0; i < kAccessesPerWarp && stream->next(a); ++i) {
        h.add(a.page);
        h.add(u64{a.think});
      }
    }
  }
  if (s == Scenario::kFleet8) {
    const FleetConfig cfg = fleet8_config(false);
    ArrivalStream arrivals(cfg, seed, static_cast<u32>(scenario_workloads(s).size()));
    for (u64 i = 0; i < cfg.jobs; ++i) {
      const auto a = arrivals.next();
      h.add(a.gap);
      h.add(u64{a.tpl});
    }
  }
  return h.value();
}

}  // namespace perfbench
