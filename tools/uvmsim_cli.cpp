// uvmsim — command-line front end for single simulations.
//
// The flags become one ExperimentSpec, run through run_experiment
// (harness/experiment.hpp) exactly as the sweep and report tools run
// theirs; this file only parses flags and prints results.
//
// Run any Table II workload (or a recorded trace) under any eviction policy
// / prefetcher combination, with every paper threshold overridable:
//
//   uvmsim --workload NW --oversub 0.5 --eviction mhpe --prefetch pattern
//   uvmsim --workload SRD --eviction reserved --reserved 0.1
//   uvmsim --workload MVT --record-trace mvt.trc
//   uvmsim --trace mvt.trc --eviction lru --prefetch locality --csv
//   uvmsim --list
//
// Observability (docs/observability.md):
//
//   uvmsim --workload NW --oversub 0.5 --trace-out t.jsonl
//   uvmsim --workload NW --trace-out t.jsonl --trace-events fault_raised,eviction_chosen
//   uvmsim --workload NW --interval-metrics intervals.csv
//
// Multi-tenancy (docs/multitenancy.md):
//
//   uvmsim --tenants NW,BFS --oversub 0.5 --tenant-mode quota
//   uvmsim --tenants NW,BFS,MVT --tenant-mode shared --tenant-evict self
#include <algorithm>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/policy_registry.hpp"
#include "harness/cli.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "obs/trace_sink.hpp"
#include "trace/trace_io.hpp"
#include "workloads/benchmarks.hpp"

using namespace uvmsim;

namespace {

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += " | ";
    out += n;
  }
  return out;
}

// Resolve --eviction / --prefetch through the PolicyRegistry. Built-in
// canonical names also set the matching PolicyConfig enum (anything keyed on
// the enum — presets, reports — keeps working bit-for-bit); every other
// registered name goes through the name field. Unknown names list what IS
// registered.
bool resolve_eviction(const std::string& s, PolicyConfig& pol) {
  if (s == "lru") pol.eviction = EvictionKind::kLru;
  else if (s == "fifo") pol.eviction = EvictionKind::kFifo;
  else if (s == "random") pol.eviction = EvictionKind::kRandom;
  else if (s == "reserved") pol.eviction = EvictionKind::kReservedLru;
  else if (s == "hpe") pol.eviction = EvictionKind::kHpe;
  else if (s == "mhpe") pol.eviction = EvictionKind::kMhpe;
  else if (PolicyRegistry::instance().has_eviction(s)) pol.eviction_name = s;
  else return false;
  return true;
}

bool resolve_prefetch(const std::string& s, PolicyConfig& pol) {
  if (s == "none") pol.prefetch = PrefetchKind::kNone;
  else if (s == "locality") pol.prefetch = PrefetchKind::kLocality;
  else if (s == "tree") pol.prefetch = PrefetchKind::kTreeNeighborhood;
  else if (s == "pattern") pol.prefetch = PrefetchKind::kPatternAware;
  else if (PolicyRegistry::instance().has_prefetch(s)) pol.prefetch_name = s;
  else return false;
  return true;
}

// Parse an enum-valued flag into `out`; false after a usage message when
// the name is unknown.
template <typename T, typename Parse>
bool parse_enum(const CliParser& cli, const char* flag, Parse parse, T& out) {
  const auto v = parse(cli.get(flag));
  if (!v) {
    std::cerr << "unknown --" << flag << ": " << cli.get(flag) << "\n";
    return false;
  }
  out = *v;
  return true;
}

void print_text(const RunResult& r) {
  TextTable t({"metric", "value"});
  t.add_row({"workload", r.workload});
  t.add_row({"eviction / prefetcher", r.eviction_name + " / " + r.prefetcher_name});
  t.add_row({"oversubscription", fmt(r.oversub * 100, 0) + "% of footprint fits"});
  t.add_row({"footprint / capacity (pages)",
             std::to_string(r.footprint_pages) + " / " + std::to_string(r.capacity_pages)});
  t.add_row({"cycles", std::to_string(r.cycles)});
  t.add_row({"completed", r.completed ? "yes" : "NO (cycle cap hit)"});
  t.add_row({"page faults (coalesced)", std::to_string(r.driver.page_faults) + " (" +
                                            std::to_string(r.driver.faults_coalesced) + ")"});
  t.add_row({"driver migration ops", std::to_string(r.driver.migration_ops)});
  t.add_row({"pages in (demand/prefetch)",
             std::to_string(r.driver.pages_migrated_in) + " (" +
                 std::to_string(r.driver.pages_demanded) + "/" +
                 std::to_string(r.driver.pages_prefetched) + ")"});
  t.add_row({"pages evicted", std::to_string(r.driver.pages_evicted)});
  t.add_row({"H2D link utilisation", fmt(r.h2d_utilisation * 100, 1) + "%"});
  if (r.mhpe_used) {
    t.add_row({"MHPE strategy", r.mhpe_switched_to_lru ? "switched to LRU" : "stayed MRU"});
    t.add_row({"MHPE forward distance", std::to_string(r.mhpe_forward_distance)});
    t.add_row({"MHPE wrong evictions", std::to_string(r.mhpe_wrong_evictions)});
  }
  if (r.pattern_buffer_peak > 0) {
    t.add_row({"pattern buffer peak/capacity",
               std::to_string(r.pattern_buffer_peak) + "/" +
                   std::to_string(r.pattern_buffer_capacity)});
    t.add_row({"pattern match/mismatch", std::to_string(r.pattern_matches) + "/" +
                                             std::to_string(r.pattern_mismatches)});
    if (r.pattern_capacity_evictions > 0)
      t.add_row({"pattern capacity evictions",
                 std::to_string(r.pattern_capacity_evictions)});
  }
  if (r.adaptive_used) {
    t.add_row({"adaptive switches (evict/prefetch)",
               std::to_string(r.adaptive_eviction_switches) + "/" +
                   std::to_string(r.adaptive_prefetch_switches)});
    std::string phases;
    for (const auto& [at, p] : r.adaptive_phase_history) {
      if (!phases.empty()) phases += " -> ";
      phases += to_string(p);
    }
    t.add_row({"adaptive phase changes", phases.empty() ? "none" : phases});
  }
  if (r.large_pages) {
    t.add_row({"2MB coalesces / splinters",
               std::to_string(r.driver.coalesces) + " / " +
                   std::to_string(r.driver.splinters)});
    t.add_row({"2MB frames evicted whole",
               std::to_string(r.driver.large_frames_evicted)});
    t.add_row({"large TLB hits (L1/L2)",
               std::to_string(r.gpu.l1_tlb_large_hits) + "/" +
                   std::to_string(r.gpu.l2_tlb_large_hits)});
  }
  if (r.gpu_fault_backend) {
    t.add_row({"fault backend", r.fault_backend});
    t.add_row({"faults enqueued (queue-full)",
               std::to_string(r.faultsvc.faults_enqueued) + " (" +
                   std::to_string(r.faultsvc.queue_full_stalls) + ")"});
    t.add_row({"handler pickups / busy cycles",
               std::to_string(r.faultsvc.handler_pickups) + " / " +
                   std::to_string(r.faultsvc.handler_busy_cycles)});
    t.add_row({"max fault-queue depth",
               std::to_string(r.faultsvc.max_queue_depth)});
  }
  if (r.trace_events_recorded > 0)
    t.add_row({"trace events recorded", std::to_string(r.trace_events_recorded)});
  if (r.clamped_past > 0)
    t.add_row({"events clamped to now (BUG?)", std::to_string(r.clamped_past)});
  std::cout << t.str();
}

// --sim-stats: simulator-overhead counters (the cost of simulating, not the
// simulated cost — docs/performance.md). Off by default so the standard
// report stays byte-identical across simulator-internals changes.
void print_sim_stats(const RunResult& r) {
  TextTable t({"sim-perf metric", "value"});
  t.add_row({"events executed", std::to_string(r.sim.events_executed)});
  t.add_row({"event heap peak/capacity",
             std::to_string(r.sim.event_heap_peak) + "/" +
                 std::to_string(r.sim.event_heap_capacity)});
  t.add_row({"oversize (pooled) events", std::to_string(r.sim.oversize_events)});
  t.add_row({"chunk-chain slab slots", std::to_string(r.sim.chain_slab_capacity)});
  t.add_row({"page-table slots (load)",
             std::to_string(r.sim.page_table_capacity) + " (" +
                 fmt(r.sim.page_table_load, 3) + ")"});
  std::cout << "\nsimulator overhead:\n" << t.str();
  // Sharded-engine counters only exist under --engine sharded; omitting the
  // whole table otherwise keeps --engine seq output byte-identical.
  if (r.engine_stats.sharded) {
    TextTable e({"sharded-engine metric", "value"});
    e.add_row({"shards x threads",
               std::to_string(r.engine_stats.shards) + " x " +
                   std::to_string(r.engine_stats.threads)});
    e.add_row({"lookahead (cycles)",
               std::to_string(r.engine_stats.lookahead_cycles)});
    e.add_row({"barrier windows", std::to_string(r.engine_stats.windows)});
    e.add_row({"cross-shard messages",
               std::to_string(r.engine_stats.messages)});
    e.add_row({"stall windows (<=1 shard active)",
               std::to_string(r.engine_stats.stall_windows)});
    e.add_row({"barrier waits", std::to_string(r.engine_stats.barrier_waits)});
    e.add_row({"max end-of-window clock skew",
               std::to_string(r.engine_stats.max_skew)});
    std::cout << "\nsharded engine:\n" << e.str();
  }
}

void print_fabric(const RunResult& r) {
  TextTable t({"device", "capacity", "finish", "done", "faults", "remote",
               "peer in", "hopbacks", "fwd", "spilled", "h2d", "d2h"});
  for (const DeviceRunResult& d : r.devices)
    t.add_row({std::to_string(d.id), std::to_string(d.capacity_pages),
               std::to_string(d.finish_cycle), d.completed ? "yes" : "NO",
               std::to_string(d.driver.page_faults),
               std::to_string(d.driver.remote_accesses),
               std::to_string(d.driver.peer_fetches),
               std::to_string(d.driver.spill_hopbacks),
               std::to_string(d.driver.faults_forwarded),
               std::to_string(d.driver.pages_spilled),
               std::to_string(d.h2d_pages), std::to_string(d.d2h_pages)});
  std::cout << "\nper-device (" << r.fabric << " fabric, " << r.gpus
            << " GPUs):\n"
            << t.str();
  if (!r.links.empty()) {
    TextTable lt({"link", "units moved", "utilisation"});
    for (const LinkRunResult& l : r.links)
      lt.add_row({l.name, std::to_string(l.units_moved),
                  fmt(l.utilisation * 100, 1) + "%"});
    std::cout << "\nper-link:\n" << lt.str();
  }
}

void print_fabric_csv(const RunResult& r) {
  std::cout << "device,fabric,capacity_pages,finish_cycle,completed,"
               "page_faults,remote_accesses,peer_fetches,spill_hopbacks,"
               "faults_forwarded,chunks_spilled,pages_spilled,h2d_pages,"
               "d2h_pages\n";
  for (const DeviceRunResult& d : r.devices)
    std::cout << d.id << ',' << r.fabric << ',' << d.capacity_pages << ','
              << d.finish_cycle << ',' << d.completed << ','
              << d.driver.page_faults << ',' << d.driver.remote_accesses << ','
              << d.driver.peer_fetches << ',' << d.driver.spill_hopbacks << ','
              << d.driver.faults_forwarded << ',' << d.driver.chunks_spilled
              << ',' << d.driver.pages_spilled << ',' << d.h2d_pages << ','
              << d.d2h_pages << "\n";
  std::cout << "link,units_moved,utilisation\n";
  for (const LinkRunResult& l : r.links)
    std::cout << l.name << ',' << l.units_moved << ',' << l.utilisation << "\n";
}

void print_fleet(const RunResult& r) {
  const FleetRunResult& fl = r.fleet;
  TextTable t({"fleet metric", "value"});
  t.add_row({"admission / scheduler", fl.admission + " / " + fl.scheduler});
  t.add_row({"devices x arrival rate",
             std::to_string(fl.devices) + " x " + fmt(fl.arrival_rate, 1) +
                 " jobs/Mcycle"});
  t.add_row({"jobs submitted / completed / rejected",
             std::to_string(fl.jobs_submitted) + " / " +
                 std::to_string(fl.jobs_completed) + " / " +
                 std::to_string(fl.jobs_rejected)});
  t.add_row({"rejections (queue-full/never-fits/policy)",
             std::to_string(fl.rejected_queue_full) + "/" +
                 std::to_string(fl.rejected_never_fits) + "/" +
                 std::to_string(fl.rejected_policy)});
  t.add_row({"rejection rate", fmt(fl.rejection_rate * 100, 2) + "%"});
  t.add_row({"goodput", fmt(fl.goodput, 3) + " jobs/Mcycle"});
  t.add_row({"queue wait mean / p95 (cycles)",
             fmt(fl.mean_queue_wait, 0) + " / " + fmt(fl.p95_queue_wait, 0)});
  t.add_row({"peak queue depth", std::to_string(fl.peak_queue_depth)});
  t.add_row({"slowdown mean / p50 / p95 / p99",
             fmt(fl.mean_slowdown, 2) + "x / " + fmt(fl.slowdown_p50, 2) +
                 "x / " + fmt(fl.slowdown_p95, 2) + "x / " +
                 fmt(fl.slowdown_p99, 2) + "x"});
  t.add_row({"windowed fairness min / mean",
             fmt(fl.fairness_min, 4) + " / " + fmt(fl.fairness_mean, 4)});
  std::cout << "\nfleet serving (" << fl.admission << " admission, "
            << fl.scheduler << " placement):\n"
            << t.str();

  TextTable d({"device", "capacity", "faults", "pages in", "evicted", "h2d",
               "d2h"});
  for (const DeviceRunResult& dev : r.devices)
    d.add_row({std::to_string(dev.id), std::to_string(dev.capacity_pages),
               std::to_string(dev.driver.page_faults),
               std::to_string(dev.driver.pages_migrated_in),
               std::to_string(dev.driver.pages_evicted),
               std::to_string(dev.h2d_pages), std::to_string(dev.d2h_pages)});
  std::cout << "\nper-device:\n" << d.str();
}

void print_fleet_csv(const RunResult& r) {
  const FleetRunResult& fl = r.fleet;
  std::cout << "admission,scheduler,devices,arrival_rate,jobs_submitted,"
               "jobs_completed,jobs_rejected,rejected_queue_full,"
               "rejected_never_fits,rejected_policy,peak_queue_depth,"
               "rejection_rate,goodput,mean_queue_wait,p95_queue_wait,"
               "mean_slowdown,slowdown_p50,slowdown_p95,slowdown_p99,"
               "fairness_min,fairness_mean\n"
            << fl.admission << ',' << fl.scheduler << ',' << fl.devices << ','
            << fl.arrival_rate << ',' << fl.jobs_submitted << ','
            << fl.jobs_completed << ',' << fl.jobs_rejected << ','
            << fl.rejected_queue_full << ',' << fl.rejected_never_fits << ','
            << fl.rejected_policy << ',' << fl.peak_queue_depth << ','
            << fl.rejection_rate << ',' << fl.goodput << ','
            << fl.mean_queue_wait << ',' << fl.p95_queue_wait << ','
            << fl.mean_slowdown << ',' << fl.slowdown_p50 << ','
            << fl.slowdown_p95 << ',' << fl.slowdown_p99 << ','
            << fl.fairness_min << ',' << fl.fairness_mean << "\n";
}

std::vector<std::string> split_csv_list(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else if (c != ' ') {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

void print_tenants(const RunResult& r, bool have_solos) {
  TextTable t({"tenant", "workload", "quota", "finish", "done", "slowdown",
               "faults", "evicted", "by self", "by others", "of others"});
  for (const TenantRunResult& tr : r.tenants)
    t.add_row({std::to_string(tr.id), tr.workload,
               tr.quota_frames ? std::to_string(tr.quota_frames) : "-",
               std::to_string(tr.finish_cycle), tr.completed ? "yes" : "NO",
               have_solos ? fmt(tr.slowdown_vs_solo, 2) + "x" : "-",
               std::to_string(tr.stats.page_faults),
               std::to_string(tr.stats.pages_evicted),
               std::to_string(tr.stats.evicted_by_self),
               std::to_string(tr.stats.evicted_by_others),
               std::to_string(tr.stats.evictions_of_others)});
  std::cout << "\nper-tenant (" << r.tenant_mode << " mode):\n" << t.str();
  if (have_solos)
    std::cout << "Jain fairness index: " << fmt(r.jain_fairness, 4) << "\n";
}

void print_tenant_csv(const RunResult& r) {
  std::cout << "tenant,workload,tenant_mode,quota_frames,finish_cycle,"
               "completed,slowdown_vs_solo,jain_fairness,page_faults,"
               "pages_evicted,evicted_by_self,evicted_by_others,"
               "evictions_of_others\n";
  for (const TenantRunResult& tr : r.tenants)
    std::cout << tr.id << ',' << tr.workload << ',' << r.tenant_mode << ','
              << tr.quota_frames << ',' << tr.finish_cycle << ','
              << tr.completed << ',' << tr.slowdown_vs_solo << ','
              << r.jain_fairness << ',' << tr.stats.page_faults << ','
              << tr.stats.pages_evicted << ',' << tr.stats.evicted_by_self
              << ',' << tr.stats.evicted_by_others << ','
              << tr.stats.evictions_of_others << "\n";
}

void print_csv(const RunResult& r) {
  // The extra fault-backend columns appear only under --fault-backend
  // gpu-driven, so default CSV artefacts stay byte-identical.
  std::cout << "workload,eviction,prefetcher,oversub,cycles,completed,faults,"
               "migration_ops,pages_in,pages_demanded,pages_prefetched,"
               "pages_evicted,mhpe_switched,pattern_matches,pattern_mismatches";
  if (r.gpu_fault_backend)
    std::cout << ",fault_backend,faults_enqueued,queue_full_stalls,"
                 "handler_pickups,handler_busy_cycles,max_queue_depth";
  std::cout << "\n"
            << r.workload << ',' << r.eviction_name << ',' << r.prefetcher_name
            << ',' << r.oversub << ',' << r.cycles << ',' << r.completed << ','
            << r.driver.page_faults << ',' << r.driver.migration_ops << ','
            << r.driver.pages_migrated_in << ',' << r.driver.pages_demanded << ','
            << r.driver.pages_prefetched << ',' << r.driver.pages_evicted << ','
            << r.mhpe_switched_to_lru << ',' << r.pattern_matches << ','
            << r.pattern_mismatches;
  if (r.gpu_fault_backend)
    std::cout << ',' << r.fault_backend << ',' << r.faultsvc.faults_enqueued
              << ',' << r.faultsvc.queue_full_stalls << ','
              << r.faultsvc.handler_pickups << ','
              << r.faultsvc.handler_busy_cycles << ','
              << r.faultsvc.max_queue_depth;
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "uvmsim — GPU unified-memory oversubscription simulator (CPPE, IPDPS'20)");
  cli.add_option("workload",
                 "Table II abbreviation (see --list), or an extension: "
                 "BFR (BFS frontier), MLT (ML-training phases)", "NW");
  cli.add_option("trace", "replay a recorded trace file instead of a workload");
  cli.add_option("record-trace", "record the workload's streams to a file and exit");
  cli.add_option("oversub", "fraction of the footprint that fits in memory", "0.5");
  cli.add_option("eviction",
                 "eviction policy by registered name (--list-policies)", "mhpe");
  cli.add_option("prefetch",
                 "prefetcher by registered name (--list-policies)", "pattern");
  cli.add_option("deletion", "pattern-buffer deletion: scheme1 | scheme2", "scheme2");
  cli.add_option("reserved", "reserved-LRU protected fraction", "0.2");
  cli.add_option("t1", "MHPE per-interval untouch switch threshold", "32");
  cli.add_option("t2", "MHPE first-four-intervals switch threshold", "40");
  cli.add_option("t3", "MHPE forward-distance limit", "32");
  cli.add_option("interval", "interval length in migrated pages", "64");
  cli.add_option("fault-batch",
                 "pending faults drained per driver wakeup (1 = classic)", "1");
  cli.add_option("fault-backend",
                 "fault-service backend: host | gpu-driven (docs/faultsvc.md)",
                 "host");
  cli.add_option("fault-latency-us",
                 "host-driver far-fault handling latency in microseconds", "20");
  cli.add_option("evict-service-us",
                 "driver service time per demand eviction in microseconds",
                 "2.5");
  cli.add_option("gpu-fault-queue-depth",
                 "gpu-driven backend: per-SM fault queue depth", "32");
  cli.add_option("tenants",
                 "comma-separated workloads co-scheduled on one GPU, e.g. NW,BFS");
  cli.add_option("tenant-mode", "shared | partitioned | quota", "shared");
  cli.add_option("tenant-evict",
                 "victim scope in shared mode: global | self", "global");
  cli.add_flag("no-solo", "skip the solo baselines (no slowdown/Jain output)");
  cli.add_flag("fleet",
               "fleet serving: open-loop job arrivals with admission control "
               "over --gpus devices (docs/fleet.md)");
  cli.add_option("jobs", "fleet: total jobs the arrival stream submits", "1000");
  cli.add_option("arrival-rate",
                 "fleet: offered load in jobs per million cycles", "20");
  cli.add_option("admission", "fleet: always | headroom | quota", "always");
  cli.add_option("fleet-sched",
                 "fleet: first-fit | least-loaded | pattern-affinity",
                 "first-fit");
  cli.add_option("arrival-trace",
                 "fleet: interarrival trace file (one gap per line) instead "
                 "of Poisson arrivals");
  cli.add_option("gpus", "number of GPUs on the NVLink fabric (>=2 enables it)", "1");
  cli.add_option("fabric", "link topology: pcie | ring | switch", "ring");
  cli.add_option("placement",
                 "page homing: first-touch | round-robin | affinity",
                 "first-touch");
  cli.add_option("remote-threshold",
                 "remote accesses before a page migrates to the accessor "
                 "(0 = always migrate)", "4");
  cli.add_flag("spill", "evict to the least-loaded peer instead of the host");
  cli.add_option("engine",
                 "simulation engine for multi-GPU fabric / fleet runs: "
                 "seq | sharded (docs/performance.md)", "seq");
  cli.add_option("engine-threads",
                 "sharded engine worker threads (0 = hardware, capped at the "
                 "shard count)", "0");
  cli.add_option("sms", "number of SMs", "28");
  cli.add_option("warps", "warps per SM", "8");
  cli.add_option("seed", "experiment seed", "24301");
  cli.add_option("pattern-capacity", "pattern-buffer capacity in entries", "1024");
  cli.add_option("trace-out", "write the flight-recorder event stream (JSONL) here");
  cli.add_option("trace-events",
                 "comma-separated event names to trace, or 'all' (see docs)", "all");
  cli.add_option("interval-metrics",
                 "write per-interval metrics here (.jsonl extension = JSONL, else CSV)");
  cli.add_flag("no-prefetch-when-full", "disable prefetching once memory fills");
  cli.add_flag("large-pages",
               "transparent 2 MB frames: coalesce fully-touched aligned "
               "regions, splinter under eviction pressure (docs/memory.md)");
  cli.add_flag("sim-stats",
               "append simulator-overhead counters (event heap, slab, hash "
               "sizing) to the report");
  cli.add_flag("csv", "emit one CSV row instead of the text report");
  cli.add_flag("list", "list the Table II workloads and exit");
  cli.add_flag("list-policies",
               "list the registered eviction policies / prefetchers and exit");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;

  if (cli.get_flag("list-policies")) {
    const auto& reg = PolicyRegistry::instance();
    std::cout << "eviction:  " << join_names(reg.eviction_names()) << "\n"
              << "prefetch:  " << join_names(reg.prefetch_names()) << "\n";
    return 0;
  }

  if (cli.get_flag("list")) {
    TextTable t({"abbr", "name", "suite", "type", "pages (scaled)"});
    for (const auto& b : benchmark_table())
      t.add_row({b.abbr, b.name, b.suite, to_string(b.type),
                 std::to_string(scaled_pages(b.paper_mb))});
    std::cout << t.str();
    return 0;
  }

  // Every flag lands in one ExperimentSpec; run_experiment validates it,
  // picks the system and writes the trace and interval-metrics files.
  ExperimentSpec spec;
  spec.max_cycles = std::numeric_limits<Cycle>::max();  // run to completion
  PolicyConfig& pol = spec.policy;
  if (!resolve_eviction(cli.get("eviction"), pol)) {
    std::cerr << "unknown eviction policy: " << cli.get("eviction")
              << " (registered: "
              << join_names(PolicyRegistry::instance().eviction_names())
              << ")\n";
    return 2;
  }
  if (!resolve_prefetch(cli.get("prefetch"), pol)) {
    std::cerr << "unknown prefetcher: " << cli.get("prefetch")
              << " (registered: "
              << join_names(PolicyRegistry::instance().prefetch_names())
              << ")\n";
    return 2;
  }
  pol.deletion = cli.get("deletion") == "scheme1" ? DeletionScheme::kScheme1
                                                  : DeletionScheme::kScheme2;
  pol.reserved_fraction = cli.get_double("reserved");
  pol.t1_untouch = static_cast<u32>(cli.get_int("t1"));
  pol.t2_untouch_first4 = static_cast<u32>(cli.get_int("t2"));
  pol.t3_forward_limit = static_cast<u32>(cli.get_int("t3"));
  pol.interval_faults = static_cast<u32>(cli.get_int("interval"));
  pol.pattern_buffer_entries = static_cast<u32>(cli.get_int("pattern-capacity"));
  pol.seed = static_cast<u64>(cli.get_int("seed"));
  pol.prefetch_when_full = !cli.get_flag("no-prefetch-when-full");
  pol.large_pages = cli.get_flag("large-pages");

  const auto event_mask = parse_event_mask(cli.get("trace-events"));
  if (!event_mask) {
    std::cerr << "unknown event name in --trace-events: " << cli.get("trace-events")
              << "\n";
    return 2;
  }
  spec.trace_event_mask = *event_mask;
  if (cli.was_set("trace-out")) spec.trace_out = cli.get("trace-out");
  if (cli.was_set("interval-metrics"))
    spec.interval_metrics = cli.get("interval-metrics");

  SystemConfig& sys = spec.system;
  sys.num_sms = static_cast<u32>(cli.get_int("sms"));
  sys.warps_per_sm = static_cast<u32>(cli.get_int("warps"));
  const long long fault_batch = cli.get_int("fault-batch");
  const long long queue_depth = cli.get_int("gpu-fault-queue-depth");
  const long long engine_threads = cli.get_int("engine-threads");
  sys.fault_latency_us = cli.get_double("fault-latency-us");
  sys.evict_service_us = cli.get_double("evict-service-us");
  for (const auto& [bad, message] :
       {std::pair{fault_batch < 1, "--fault-batch must be >= 1"},
        {sys.fault_latency_us <= 0, "--fault-latency-us must be > 0"},
        {sys.evict_service_us <= 0, "--evict-service-us must be > 0"},
        {queue_depth < 1, "--gpu-fault-queue-depth must be >= 1"},
        {engine_threads < 0, "--engine-threads must be >= 0"}}) {
    if (bad) {
      std::cerr << message << "\n";
      return 2;
    }
  }
  pol.fault_batch = static_cast<u32>(fault_batch);
  sys.gpu_fault_queue_depth = static_cast<u32>(queue_depth);
  spec.engine.threads = static_cast<u32>(engine_threads);

  FleetConfig& fl = spec.fleet;
  FabricConfig& fab = spec.fabric;
  if (!parse_enum(cli, "fault-backend", parse_fault_backend_kind,
                  sys.fault_backend) ||
      !parse_enum(cli, "engine", parse_engine_kind, spec.engine.kind) ||
      !parse_enum(cli, "tenant-mode", parse_tenant_mode, spec.tenant_mode) ||
      !parse_enum(cli, "tenant-evict", parse_eviction_scope, spec.tenant_scope) ||
      !parse_enum(cli, "admission", parse_admission_kind, fl.admission) ||
      !parse_enum(cli, "fleet-sched", parse_fleet_sched_kind, fl.scheduler) ||
      !parse_enum(cli, "fabric", parse_fabric_kind, fab.topology) ||
      !parse_enum(cli, "placement", parse_placement_kind, fab.placement))
    return 2;

  spec.workload = cli.get("workload");
  if (cli.was_set("trace")) spec.replay_trace = cli.get("trace");
  spec.oversub = cli.get_double("oversub");

  if (cli.was_set("tenants")) spec.tenants = split_csv_list(cli.get("tenants"));
  spec.tenant_solo_baselines = !cli.get_flag("no-solo");

  // --gpus sizes the fleet under --fleet and the NVLink fabric otherwise.
  const u32 gpus = static_cast<u32>(std::max(1ll, cli.get_int("gpus")));
  fl.enabled = cli.get_flag("fleet");
  if (fl.enabled && cli.was_set("gpus")) fl.devices = gpus;
  fl.jobs = static_cast<u64>(std::max(1ll, cli.get_int("jobs")));
  fl.arrival_rate = cli.get_double("arrival-rate");
  if (cli.was_set("oversub")) fl.oversub = spec.oversub;
  if (cli.was_set("arrival-trace")) fl.arrival_trace = cli.get("arrival-trace");

  if (!fl.enabled) fab.gpus = gpus;
  fab.remote_threshold = static_cast<u32>(cli.get_int("remote-threshold"));
  fab.spill = cli.get_flag("spill");

  try {
    if (cli.was_set("record-trace")) {
      // Recording runs no system, so it stays outside run_experiment.
      validate(spec);
      if (mode_of(spec) != ExperimentMode::kSingle)
        throw std::invalid_argument(
            "--record-trace records one single-GPU workload "
            "(not with --fleet, --tenants or --gpus >= 2)");
      const auto workload = make_workload(spec);
      const Trace t =
          record_trace(*workload, sys.num_sms * sys.warps_per_sm, pol.seed);
      save_trace(cli.get("record-trace"), t);
      u64 total = 0;
      for (const auto& s : t.streams) total += s.accesses.size();
      std::cout << "recorded " << t.streams.size() << " warp streams, " << total
                << " accesses -> " << cli.get("record-trace") << "\n";
      return 0;
    }

    const RunResult r = run_experiment(spec).result;
    const ExperimentMode run_mode = mode_of(spec);
    const bool csv = cli.get_flag("csv");
    if (run_mode == ExperimentMode::kFleet && csv) {
      print_fleet_csv(r);
    } else if (run_mode == ExperimentMode::kFleet) {
      print_fleet(r);
    } else if (csv) {
      print_csv(r);
      if (run_mode == ExperimentMode::kTenants) print_tenant_csv(r);
      if (run_mode == ExperimentMode::kFabric) print_fabric_csv(r);
    } else {
      print_text(r);
      if (run_mode == ExperimentMode::kTenants)
        print_tenants(r, spec.tenant_solo_baselines);
      if (run_mode == ExperimentMode::kFabric) print_fabric(r);
    }
    if (!csv && cli.get_flag("sim-stats")) print_sim_stats(r);
    return r.completed ? 0 : 1;
  } catch (const std::exception& e) {
    // Invalid flag combinations (std::invalid_argument from validate) and
    // unreadable or unwritable files are usage / IO errors alike.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
