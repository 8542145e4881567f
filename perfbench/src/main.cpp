// perfbench_sim: one benchmark run of one workload (see ../README.md).
//
//   perfbench_sim --workload fig8|fabric4|fleet8 --seed N --seconds S
//                 --trace 0|1 [--spans FILE]
//   perfbench_sim --inputs-digest --workload W --seed N
//   perfbench_sim --list-metrics
//   perfbench_sim --selftest
//
// A run repeats untraced passes until --seconds is spent (half of it with
// --trace 1, which then adds one traced pass and the standalone replays) and
// prints one JSON line: attempted/failed experiment counts, the failures,
// and every metric of the mode with its unit and sample count.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "probes.hpp"
#include "replay.hpp"
#include "scenarios.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
int selftest();
}

using namespace perfbench;
using namespace uvmsim;

namespace {

/// Worker threads of the multi-threaded pass (wall_mt_s).
constexpr u32 kMtThreads = 2;

struct Args {
  std::string workload;
  u64 seed = 0x5EED;
  double seconds = 10.0;
  int trace = 0;
  std::string spans;
  bool inputs_digest = false;
  bool list_metrics = false;
  bool selftest = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench_sim: %s\n", why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    try {
      if (k == "--workload") a.workload = value();
      else if (k == "--seed") a.seed = std::stoull(value());
      else if (k == "--seconds") a.seconds = std::stod(value());
      else if (k == "--trace") a.trace = std::stoi(value());
      else if (k == "--spans") a.spans = value();
      else if (k == "--inputs-digest") a.inputs_digest = true;
      else if (k == "--list-metrics") a.list_metrics = true;
      else if (k == "--selftest") a.selftest = true;
      else usage("unknown argument " + k);
    } catch (const std::logic_error&) {
      usage("bad value for " + k);
    }
  }
  if (!(a.seconds > 0.0) || a.seconds > 3600.0) usage("--seconds out of range");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Timings and checks accumulated over every pass of a run.
struct Tally {
  std::size_t experiments = 0;
  std::vector<std::vector<double>> wall;     ///< [experiment][pass], 1 thread
  std::vector<std::vector<double>> setup;    ///< [experiment][pass], 1 thread
  std::vector<std::vector<double>> wall_mt;  ///< [experiment][pass], 2 threads
  std::vector<double> sweep_mt;              ///< fig8: whole-pass sweep times
  std::vector<u64> reference;                ///< digest of the first pass
  std::vector<std::string> names;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> failures;

  std::vector<ExperimentOutcome> last;     ///< latest 1-thread pass
  std::vector<ExperimentOutcome> last_mt;  ///< latest multi-threaded pass

  /// Count each outcome, check its invariants and compare its digest with
  /// the first 1-thread pass's.
  void check(const std::vector<ExperimentOutcome>& pass, const char* label) {
    if (reference.empty()) {
      experiments = pass.size();
      wall.resize(experiments);
      setup.resize(experiments);
      wall_mt.resize(experiments);
      for (const auto& o : pass) {
        reference.push_back(o.digest);
        names.push_back(o.name);
      }
    }
    if (pass.size() != experiments) {
      ++failed;
      note(std::string(label) + ": pass ran " + std::to_string(pass.size()) +
           " experiments, expected " + std::to_string(experiments));
      return;
    }
    for (std::size_t e = 0; e < pass.size(); ++e) {
      ++attempted;
      std::vector<std::string> bad = pass[e].failures;
      if (pass[e].digest != reference[e]) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "digest %016" PRIx64 " != reference %016" PRIx64,
                      pass[e].digest, reference[e]);
        bad.emplace_back(buf);
      }
      if (bad.empty()) continue;
      ++failed;
      for (const auto& b : bad) note(std::string(label) + " " + names[e] + ": " + b);
    }
  }

  void note(std::string s) {
    if (failures.size() < 20) failures.push_back(std::move(s));
  }

  [[nodiscard]] double sum_of_medians(const std::vector<std::vector<double>>& t) const {
    double sum = 0.0;
    for (const auto& v : t) sum += median(v);
    return sum;
  }
  [[nodiscard]] std::size_t samples(const std::vector<std::vector<double>>& t) const {
    return t.empty() ? 0 : t.front().size();
  }
};

/// Run untraced rounds until `budget_s` would be exceeded by another one;
/// always at least one. A round is a 1-thread pass, followed, when
/// `with_mt`, by the 2-thread pass (fig8: the 2-worker harness sweep).
void untraced_rounds(Scenario s, u64 seed, double budget_s, bool with_mt, Tally& t) {
  const auto start = Clock::now();
  double last_round = 0.0;
  do {
    const auto r0 = Clock::now();
    PassOptions opt;
    opt.seed = seed;
    opt.threads = 1;
    auto pass = run_pass(s, opt);
    t.check(pass, "1-thread");
    for (std::size_t e = 0; e < pass.size() && e < t.experiments; ++e) {
      t.wall[e].push_back(pass[e].wall_s);
      t.setup[e].push_back(pass[e].setup_s);
    }
    t.last = std::move(pass);

    if (with_mt && uses_engine(s)) {
      opt.threads = kMtThreads;
      auto mt = run_pass(s, opt);
      t.check(mt, "2-thread");
      for (std::size_t e = 0; e < mt.size() && e < t.experiments; ++e)
        t.wall_mt[e].push_back(mt[e].wall_s);
      t.last_mt = std::move(mt);
    } else if (with_mt) {
      const auto m0 = Clock::now();
      auto mt = run_fig8_sweep(seed, kMtThreads);
      t.sweep_mt.push_back(seconds_since(m0));
      t.check(mt, "2-worker sweep");
      t.last_mt = std::move(mt);
    }
    last_round = seconds_since(r0);
  } while (seconds_since(start) + last_round <= budget_s);
}

/// Metric values by name, with the number of samples behind each.
struct Emitted {
  std::map<std::string, std::pair<double, std::size_t>> values;
  void set(const std::string& name, double v, std::size_t samples = 1) {
    values[name] = {v, samples};
  }
};

/// Peak resident set of this process image, in kB. VmHWM, not getrusage:
/// Linux carries ru_maxrss across execve, so a child spawned by a larger
/// parent would report the parent's peak.
double peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

void emit_end_to_end(const Tally& t, Emitted& out) {
  const std::size_t n = t.samples(t.wall);
  out.set("wall_s", t.sum_of_medians(t.wall), n);
  out.set("setup_s", t.sum_of_medians(t.setup), n);
  out.set("peak_rss_mb", peak_rss_kb() / 1024.0);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct TracedPass {
  double wall_s = 0.0;
  double workload_build_s = 0.0;
  std::array<CallStat, static_cast<std::size_t>(Call::kCount)> totals{};
  std::array<u64, static_cast<std::size_t>(Layer::kCount)> items{};
  u64 trace_events = 0;
  std::array<u64, 256> event_types{};
};

void emit_per_layer(Scenario s, u64 seed, const Tally& t, const TracedPass& tp,
                    Emitted& out) {
  const std::size_t n = t.samples(t.wall);
  const double wall_s = t.sum_of_medians(t.wall);
  const double setup_s = t.sum_of_medians(t.setup);
  double wall_mt_s = 0.0;
  if (uses_engine(s)) wall_mt_s = t.sum_of_medians(t.wall_mt);
  else wall_mt_s = median(t.sweep_mt);

  // Simulated counts: deterministic, so the latest pass stands for all.
  DriverStats d;
  Gpu::Stats g;
  u64 events = 0, heap_peak = 0, oversize = 0, h2d = 0, d2h = 0, link_units = 0;
  u64 wrong = 0, mhpe_evicted = 0, matches = 0, mismatches = 0;
  double util = 0.0;
  const RunResult* fleet = nullptr;
  for (const ExperimentOutcome& o : t.last) {
    const RunResult& r = o.result;
    const DriverStats& x = r.driver;
    d.page_faults += x.page_faults;
    d.faults_coalesced += x.faults_coalesced;
    d.pages_migrated_in += x.pages_migrated_in;
    d.pages_evicted += x.pages_evicted;
    d.demand_evictions += x.demand_evictions;
    d.pre_evictions += x.pre_evictions;
    d.migration_ops += x.migration_ops;
    d.fault_wait_cycles += x.fault_wait_cycles;
    d.remote_accesses += x.remote_accesses;
    d.peer_fetches += x.peer_fetches;
    d.faults_forwarded += x.faults_forwarded;
    g.accesses += r.gpu.accesses;
    g.far_faults += r.gpu.far_faults;
    g.l1_tlb_hits += r.gpu.l1_tlb_hits;
    g.l1_tlb_misses += r.gpu.l1_tlb_misses;
    g.l2_tlb_hits += r.gpu.l2_tlb_hits;
    g.l2_tlb_misses += r.gpu.l2_tlb_misses;
    g.walks_performed += r.gpu.walks_performed;
    g.walk_cycles += r.gpu.walk_cycles;
    events += r.sim.events_executed;
    heap_peak = std::max(heap_peak, r.sim.event_heap_peak);
    oversize += r.sim.oversize_events;
    h2d += r.h2d_pages;
    d2h += r.d2h_pages;
    util += r.h2d_utilisation;
    for (const LinkRunResult& l : r.links) link_units += l.units_moved;
    if (r.mhpe_used) {
      wrong += r.mhpe_wrong_evictions;
      mhpe_evicted += r.driver.chunks_evicted;
    }
    matches += r.pattern_matches;
    mismatches += r.pattern_mismatches;
    if (r.fleet.enabled) fleet = &r;
  }
  EngineRunStats eng;
  for (const ExperimentOutcome& o : t.last_mt) {
    const EngineRunStats& e = o.result.engine_stats;
    eng.windows += e.windows;
    eng.messages += e.messages;
    eng.barrier_waits += e.barrier_waits;
    eng.stall_windows += e.stall_windows;
  }

  out.set("sim.events", static_cast<double>(events));
  out.set("sim.ns_per_event", ratio((wall_s - setup_s) * 1e9, static_cast<double>(events)), n);
  out.set("sim.replay_ns_per_event", event_queue_replay_ns_per_event(heap_peak, seed));
  out.set("sim.heap_peak", static_cast<double>(heap_peak));
  out.set("sim.oversize_events", static_cast<double>(oversize));
  out.set("sim.engine.windows", static_cast<double>(eng.windows));
  out.set("sim.engine.messages", static_cast<double>(eng.messages));
  out.set("sim.engine.barrier_waits", static_cast<double>(eng.barrier_waits));
  out.set("sim.engine.stall_windows", static_cast<double>(eng.stall_windows));
  out.set("sim.engine.events_per_window",
          ratio(static_cast<double>(events), static_cast<double>(eng.windows)));
  out.set("wall_mt_s", wall_mt_s, uses_engine(s) ? t.samples(t.wall_mt) : t.sweep_mt.size());
  out.set("sim.engine.speedup_mt", ratio(wall_s, wall_mt_s), n);

  // Self times have the probes' own clock cost removed, call by call.
  const double oh = clock_overhead_ns();
  const auto self_ns = [&](Call c) {
    const CallStat& cs = tp.totals[static_cast<std::size_t>(c)];
    return std::max(0.0, static_cast<double>(cs.ns) - oh * static_cast<double>(cs.calls));
  };
  const auto calls = [&](Call c) {
    return static_cast<double>(tp.totals[static_cast<std::size_t>(c)].calls);
  };
  std::array<double, static_cast<std::size_t>(Layer::kCount)> layer_ns{};
  std::array<double, static_cast<std::size_t>(Layer::kCount)> layer_calls{};
  double probe_ns = 0.0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(Call::kCount); ++i) {
    const Call c = static_cast<Call>(i);
    layer_ns[static_cast<std::size_t>(layer_of(c))] += self_ns(c);
    layer_calls[static_cast<std::size_t>(layer_of(c))] += calls(c);
    probe_ns += oh * calls(c);
  }
  const auto L = [](Layer l) { return static_cast<std::size_t>(l); };

  out.set("workloads.accesses", static_cast<double>(tp.items[L(Layer::kWorkloads)]));
  out.set("workloads.self_ms", layer_ns[L(Layer::kWorkloads)] / 1e6);
  out.set("workloads.ns_per_access", ratio(self_ns(Call::kNext), calls(Call::kNext)));
  out.set("workloads.setup_ms",
          (tp.workload_build_s * 1e9 + self_ns(Call::kMakeStream)) / 1e6);

  out.set("policy.calls", layer_calls[L(Layer::kPolicy)]);
  out.set("policy.select_calls", calls(Call::kSelectVictim) + calls(Call::kSelectVictims) +
                                     calls(Call::kSelectVictimsFiltered));
  out.set("policy.victims", static_cast<double>(tp.items[L(Layer::kPolicy)]));
  out.set("policy.self_ms", layer_ns[L(Layer::kPolicy)] / 1e6);
  out.set("policy.ns_per_call",
          ratio(layer_ns[L(Layer::kPolicy)], layer_calls[L(Layer::kPolicy)]));
  out.set("policy.wrong_eviction_ratio",
          ratio(static_cast<double>(wrong), static_cast<double>(mhpe_evicted)));

  out.set("prefetch.plan_calls", calls(Call::kPlan));
  out.set("prefetch.pages_planned", static_cast<double>(tp.items[L(Layer::kPrefetch)]));
  out.set("prefetch.self_ms", layer_ns[L(Layer::kPrefetch)] / 1e6);
  out.set("prefetch.ns_per_plan", ratio(self_ns(Call::kPlan), calls(Call::kPlan)));
  out.set("prefetch.pattern_hit_ratio",
          ratio(static_cast<double>(matches), static_cast<double>(matches + mismatches)));

  out.set("uvm.page_faults", static_cast<double>(d.page_faults));
  out.set("uvm.faults_coalesced", static_cast<double>(d.faults_coalesced));
  out.set("uvm.pages_migrated_in", static_cast<double>(d.pages_migrated_in));
  out.set("uvm.pages_evicted", static_cast<double>(d.pages_evicted));
  out.set("uvm.demand_evictions", static_cast<double>(d.demand_evictions));
  out.set("uvm.pre_evictions", static_cast<double>(d.pre_evictions));
  out.set("uvm.migration_ops", static_cast<double>(d.migration_ops));
  out.set("uvm.fault_wait_cycles_mean",
          ratio(static_cast<double>(d.fault_wait_cycles), static_cast<double>(d.page_faults)));

  out.set("gpu.accesses", static_cast<double>(g.accesses));
  out.set("gpu.far_faults", static_cast<double>(g.far_faults));
  out.set("tlb.l1_hit_ratio", ratio(static_cast<double>(g.l1_tlb_hits),
                                    static_cast<double>(g.l1_tlb_hits + g.l1_tlb_misses)));
  out.set("tlb.l2_hit_ratio", ratio(static_cast<double>(g.l2_tlb_hits),
                                    static_cast<double>(g.l2_tlb_hits + g.l2_tlb_misses)));
  out.set("tlb.walks", static_cast<double>(g.walks_performed));
  out.set("tlb.walk_cycles", static_cast<double>(g.walk_cycles));
  out.set("tlb.replay_ns_per_lookup", tlb_replay_ns_per_lookup(s, seed));

  out.set("mem.h2d_pages", static_cast<double>(h2d));
  out.set("mem.d2h_pages", static_cast<double>(d2h));
  out.set("mem.h2d_utilisation", ratio(util, static_cast<double>(t.last.size())));

  out.set("fabric.remote_accesses", static_cast<double>(d.remote_accesses));
  out.set("fabric.peer_fetches", static_cast<double>(d.peer_fetches));
  out.set("fabric.faults_forwarded", static_cast<double>(d.faults_forwarded));
  out.set("fabric.link_units", static_cast<double>(link_units));

  const FleetRunResult f = fleet != nullptr ? fleet->fleet : FleetRunResult{};
  out.set("fleet.host_ms_per_job",
          ratio(wall_s * 1e3, static_cast<double>(f.jobs_submitted)), n);
  out.set("fleet.jobs_completed", static_cast<double>(f.jobs_completed));
  out.set("fleet.jobs_rejected", static_cast<double>(f.jobs_rejected));
  out.set("fleet.goodput_sim", f.goodput);
  out.set("fleet.slowdown_p99_sim", f.slowdown_p99);

  out.set("obs.trace_events", static_cast<double>(tp.trace_events));
  out.set("obs.emit_ns_per_event", recorder_replay_ns_per_event(tp.event_types, seed));
  out.set("obs.traced_overhead_pct", 100.0 * ratio(tp.wall_s - wall_s, wall_s), n);

  double wrapped_ns = 0.0;
  for (const double v : layer_ns) wrapped_ns += v;
  out.set("rest.self_ms", (tp.wall_s * 1e9 - wrapped_ns - probe_ns) / 1e6);
  out.set("failed_frac",
          ratio(static_cast<double>(t.failed), static_cast<double>(t.attempted)));
}

TracedPass traced_pass(Scenario s, u64 seed, Tally& t, const std::string& spans_path) {
  TracedPass tp;
  CountingSink sink;
  probes().reset();
  PassOptions opt;
  opt.seed = seed;
  opt.threads = 1;
  opt.traced = true;
  opt.sink = &sink;
  const auto t0 = Clock::now();
  const auto pass = run_pass(s, opt);
  tp.wall_s = seconds_since(t0);
  t.check(pass, "traced");
  for (const auto& o : pass) tp.workload_build_s += o.workload_build_s;
  tp.totals = probes().totals();
  tp.items = probes().items();
  tp.trace_events = sink.total();
  tp.event_types = sink.by_type();

  if (!spans_path.empty()) {
    std::ofstream f(spans_path);
    if (!f) throw std::runtime_error("cannot write " + spans_path);
    const double oh = clock_overhead_ns();
    for (std::size_t i = 0; i < tp.totals.size(); ++i) {
      const Call c = static_cast<Call>(i);
      const CallStat& cs = tp.totals[i];
      if (cs.calls == 0) continue;
      const double self = std::max(0.0, static_cast<double>(cs.ns) -
                                            oh * static_cast<double>(cs.calls));
      f << "{\"kind\":\"aggregate\",\"layer\":\"" << layer_name(layer_of(c))
        << "\",\"call\":\"" << call_name(c) << "\",\"calls\":" << cs.calls
        << ",\"self_ns\":" << static_cast<u64>(self) << "}\n";
    }
    for (const Span& sp : probes().spans(256))
      f << "{\"kind\":\"span\",\"layer\":\"" << layer_name(layer_of(sp.call))
        << "\",\"call\":\"" << call_name(sp.call) << "\",\"parent\":\""
        << (sp.experiment < pass.size() ? pass[sp.experiment].name : "?")
        << "\",\"start_ns\":" << sp.start_ns << ",\"dur_ns\":" << sp.dur_ns << "}\n";
  }
  probes().reset();
  return tp;
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    std::putchar(c);
  }
  std::putchar('"');
}

int run(const Args& a) {
  const auto scenario = parse_scenario(a.workload);
  if (!scenario) usage("unknown workload '" + a.workload + "'");
  const Scenario s = *scenario;
  register_timed_policies();

  Tally t;
  Emitted out;
  if (a.trace == 0) {
    untraced_rounds(s, a.seed, a.seconds, false, t);
    emit_end_to_end(t, out);
  } else {
    untraced_rounds(s, a.seed, a.seconds / 2.0, true, t);
    const TracedPass tp = traced_pass(s, a.seed, t, a.spans);
    emit_per_layer(s, a.seed, t, tp, out);
  }

  // Every metric of the mode, in catalogue order, with its unit.
  std::printf("{\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64 ",\"failures\":[",
              t.attempted, t.failed);
  for (std::size_t i = 0; i < t.failures.size(); ++i) {
    if (i > 0) std::putchar(',');
    print_json_string(t.failures[i]);
  }
  std::printf("],\"info\":{\"build_type\":\"%s\",\"compiler\":\"%s\","
              "\"engine_threads\":[%s],\"experiments\":%zu,\"passes\":%zu},"
              "\"metrics\":{",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, a.trace == 0 ? "1" : "1,2",
              t.experiments, t.samples(t.wall));
  bool first = true;
  for (const MetricDef& m : metric_catalogue()) {
    if (m.end_to_end != (a.trace == 0)) continue;
    const auto it = out.values.find(m.name);
    if (it == out.values.end()) throw std::logic_error(std::string("unset metric ") + m.name);
    const double v = it->second.first;
    if (!std::isfinite(v)) throw std::logic_error(std::string("non-finite metric ") + m.name);
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"samples\":%zu}",
                first ? "" : ",", m.name, v, m.unit, it->second.second);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    if (a.selftest) return selftest();
    if (a.list_metrics) {
      for (const MetricDef& m : metric_catalogue())
        std::printf("%s %s %s\n", m.end_to_end ? "end_to_end" : "per_layer", m.name,
                    m.unit);
      return 0;
    }
    if (a.inputs_digest) {
      const auto s = parse_scenario(a.workload);
      if (!s) usage("unknown workload '" + a.workload + "'");
      std::printf("%016" PRIx64 "\n", inputs_digest(*s, a.seed));
      return 0;
    }
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_sim: %s\n", e.what());
    return 1;
  }
}
