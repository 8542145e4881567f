#include "harness/results_io.hpp"

#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace uvmsim {
namespace {

std::string escape_json(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string escape_csv(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string results_csv_header() {
  return "workload,label,eviction,prefetcher,oversub,cycles,completed,"
         "page_faults,faults_coalesced,migration_ops,pages_in,pages_demanded,"
         "pages_prefetched,pages_evicted,chunks_evicted,h2d_pages,d2h_pages,"
         "mhpe_used,mhpe_switched_to_lru,mhpe_forward_distance,"
         "mhpe_wrong_evictions,pattern_buffer_peak,pattern_matches,"
         "pattern_mismatches,final_chain_length";
}

std::string to_csv_row(const LabelledResult& r) {
  const RunResult& x = r.result;
  std::ostringstream os;
  os << escape_csv(x.workload) << ',' << escape_csv(r.spec.label) << ','
     << escape_csv(x.eviction_name) << ',' << escape_csv(x.prefetcher_name) << ','
     << x.oversub << ',' << x.cycles << ',' << (x.completed ? 1 : 0) << ','
     << x.driver.page_faults << ',' << x.driver.faults_coalesced << ','
     << x.driver.migration_ops << ',' << x.driver.pages_migrated_in << ','
     << x.driver.pages_demanded << ',' << x.driver.pages_prefetched << ','
     << x.driver.pages_evicted << ',' << x.driver.chunks_evicted << ','
     << x.h2d_pages << ',' << x.d2h_pages << ',' << (x.mhpe_used ? 1 : 0) << ','
     << (x.mhpe_switched_to_lru ? 1 : 0) << ',' << x.mhpe_forward_distance << ','
     << x.mhpe_wrong_evictions << ',' << x.pattern_buffer_peak << ','
     << x.pattern_matches << ',' << x.pattern_mismatches << ','
     << x.final_chain_length;
  return os.str();
}

void write_csv(std::ostream& os, const std::vector<LabelledResult>& results) {
  os << results_csv_header() << '\n';
  for (const auto& r : results) os << to_csv_row(r) << '\n';
  if (!os) throw std::runtime_error("results: CSV write failed");
}

std::string tenant_csv_header() {
  return "workload,label,eviction,prefetcher,oversub,tenant_mode,tenant,"
         "tenant_workload,footprint_pages,quota_frames,finish_cycle,completed,"
         "slowdown_vs_solo,jain_fairness,page_faults,faults_coalesced,"
         "pages_in,pages_demanded,pages_prefetched,pages_evicted,"
         "chunks_evicted,evicted_by_self,evicted_by_others,"
         "evictions_of_others,fault_wait_cycles";
}

void write_tenant_csv(std::ostream& os,
                      const std::vector<LabelledResult>& results) {
  os << tenant_csv_header() << '\n';
  for (const auto& r : results) {
    const RunResult& x = r.result;
    for (const TenantRunResult& t : x.tenants) {
      os << escape_csv(x.workload) << ',' << escape_csv(r.spec.label) << ','
         << escape_csv(x.eviction_name) << ','
         << escape_csv(x.prefetcher_name) << ',' << x.oversub << ','
         << escape_csv(x.tenant_mode) << ',' << t.id << ','
         << escape_csv(t.workload) << ',' << t.footprint_pages << ','
         << t.quota_frames << ',' << t.finish_cycle << ','
         << (t.completed ? 1 : 0) << ',' << t.slowdown_vs_solo << ','
         << x.jain_fairness << ',' << t.stats.page_faults << ','
         << t.stats.faults_coalesced << ',' << t.stats.pages_migrated_in << ','
         << t.stats.pages_demanded << ',' << t.stats.pages_prefetched << ','
         << t.stats.pages_evicted << ',' << t.stats.chunks_evicted << ','
         << t.stats.evicted_by_self << ',' << t.stats.evicted_by_others << ','
         << t.stats.evictions_of_others << ',' << t.stats.fault_wait_cycles
         << '\n';
    }
  }
  if (!os) throw std::runtime_error("results: tenant CSV write failed");
}

std::string fleet_csv_header() {
  return "label,eviction,prefetcher,admission,scheduler,devices,arrival_rate,"
         "jobs_submitted,jobs_completed,jobs_rejected,rejected_queue_full,"
         "rejected_never_fits,rejected_policy,peak_queue_depth,rejection_rate,"
         "goodput,mean_queue_wait,p95_queue_wait,mean_slowdown,slowdown_p50,"
         "slowdown_p95,slowdown_p99,fairness_min,fairness_mean,cycles";
}

void write_fleet_csv(std::ostream& os,
                     const std::vector<LabelledResult>& results) {
  os << fleet_csv_header() << '\n';
  for (const auto& r : results) {
    const RunResult& x = r.result;
    if (!x.fleet.enabled) continue;
    const FleetRunResult& fl = x.fleet;
    os << escape_csv(r.spec.label) << ',' << escape_csv(x.eviction_name) << ','
       << escape_csv(x.prefetcher_name) << ',' << escape_csv(fl.admission)
       << ',' << escape_csv(fl.scheduler) << ',' << fl.devices << ','
       << fl.arrival_rate << ',' << fl.jobs_submitted << ','
       << fl.jobs_completed << ',' << fl.jobs_rejected << ','
       << fl.rejected_queue_full << ',' << fl.rejected_never_fits << ','
       << fl.rejected_policy << ',' << fl.peak_queue_depth << ','
       << fl.rejection_rate << ',' << fl.goodput << ','
       << fl.mean_queue_wait << ',' << fl.p95_queue_wait << ','
       << fl.mean_slowdown << ',' << fl.slowdown_p50 << ','
       << fl.slowdown_p95 << ',' << fl.slowdown_p99 << ','
       << fl.fairness_min << ',' << fl.fairness_mean << ',' << x.cycles
       << '\n';
  }
  if (!os) throw std::runtime_error("results: fleet CSV write failed");
}

void write_json(std::ostream& os, const std::vector<LabelledResult>& results) {
  os << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& x = results[i].result;
    os << "  {"
       << "\"workload\":\"" << escape_json(x.workload) << "\","
       << "\"label\":\"" << escape_json(results[i].spec.label) << "\","
       << "\"eviction\":\"" << escape_json(x.eviction_name) << "\","
       << "\"prefetcher\":\"" << escape_json(x.prefetcher_name) << "\","
       << "\"oversub\":" << x.oversub << ','
       << "\"cycles\":" << x.cycles << ','
       << "\"completed\":" << (x.completed ? "true" : "false") << ','
       << "\"page_faults\":" << x.driver.page_faults << ','
       << "\"migration_ops\":" << x.driver.migration_ops << ','
       << "\"pages_in\":" << x.driver.pages_migrated_in << ','
       << "\"pages_evicted\":" << x.driver.pages_evicted << ','
       << "\"mhpe_switched_to_lru\":" << (x.mhpe_switched_to_lru ? "true" : "false") << ','
       << "\"pattern_matches\":" << x.pattern_matches;
    // Multi-tenant extension: keys only appear when tenants exist, so
    // single-tenant JSON stays byte-identical to the pre-tenancy format.
    if (!x.tenants.empty()) {
      os << ",\"tenant_mode\":\"" << escape_json(x.tenant_mode) << "\","
         << "\"jain_fairness\":" << x.jain_fairness << ','
         << "\"tenants\":[";
      for (std::size_t t = 0; t < x.tenants.size(); ++t) {
        const TenantRunResult& tr = x.tenants[t];
        os << (t ? "," : "") << "{"
           << "\"id\":" << tr.id << ','
           << "\"workload\":\"" << escape_json(tr.workload) << "\","
           << "\"footprint_pages\":" << tr.footprint_pages << ','
           << "\"quota_frames\":" << tr.quota_frames << ','
           << "\"finish_cycle\":" << tr.finish_cycle << ','
           << "\"completed\":" << (tr.completed ? "true" : "false") << ','
           << "\"slowdown_vs_solo\":" << tr.slowdown_vs_solo << ','
           << "\"page_faults\":" << tr.stats.page_faults << ','
           << "\"pages_in\":" << tr.stats.pages_migrated_in << ','
           << "\"pages_evicted\":" << tr.stats.pages_evicted << ','
           << "\"evicted_by_self\":" << tr.stats.evicted_by_self << ','
           << "\"evicted_by_others\":" << tr.stats.evicted_by_others << ','
           << "\"evictions_of_others\":" << tr.stats.evictions_of_others
           << "}";
      }
      os << "]";
    }
    // Fabric extension: same additive discipline — single-GPU runs emit no
    // fabric keys, keeping their JSON byte-identical to the pre-fabric
    // format. Fleet runs fill `devices` too but report them through the
    // fleet block below instead (they share no fabric).
    if (!x.devices.empty() && !x.fleet.enabled) {
      os << ",\"fabric\":\"" << escape_json(x.fabric) << "\","
         << "\"gpus\":" << x.gpus << ','
         << "\"devices\":[";
      for (std::size_t d = 0; d < x.devices.size(); ++d) {
        const DeviceRunResult& dr = x.devices[d];
        os << (d ? "," : "") << "{"
           << "\"id\":" << dr.id << ','
           << "\"capacity_pages\":" << dr.capacity_pages << ','
           << "\"finish_cycle\":" << dr.finish_cycle << ','
           << "\"completed\":" << (dr.completed ? "true" : "false") << ','
           << "\"page_faults\":" << dr.driver.page_faults << ','
           << "\"pages_in\":" << dr.driver.pages_migrated_in << ','
           << "\"pages_evicted\":" << dr.driver.pages_evicted << ','
           << "\"remote_accesses\":" << dr.driver.remote_accesses << ','
           << "\"peer_fetches\":" << dr.driver.peer_fetches << ','
           << "\"spill_hopbacks\":" << dr.driver.spill_hopbacks << ','
           << "\"faults_forwarded\":" << dr.driver.faults_forwarded << ','
           << "\"chunks_spilled\":" << dr.driver.chunks_spilled << ','
           << "\"pages_spilled\":" << dr.driver.pages_spilled << ','
           << "\"h2d_pages\":" << dr.h2d_pages << ','
           << "\"d2h_pages\":" << dr.d2h_pages
           << "}";
      }
      os << "],\"links\":[";
      for (std::size_t l = 0; l < x.links.size(); ++l) {
        const LinkRunResult& lr = x.links[l];
        os << (l ? "," : "") << "{"
           << "\"name\":\"" << escape_json(lr.name) << "\","
           << "\"units_moved\":" << lr.units_moved << ','
           << "\"utilisation\":" << lr.utilisation
           << "}";
      }
      os << "]";
    }
    // Fleet extension (docs/fleet.md): one nested "fleet" object plus a
    // per-device array; both keys appear only for --fleet runs, so every
    // fixed-N artefact stays byte-identical.
    if (x.fleet.enabled) {
      const FleetRunResult& fl = x.fleet;
      os << ",\"fleet\":{"
         << "\"admission\":\"" << escape_json(fl.admission) << "\","
         << "\"scheduler\":\"" << escape_json(fl.scheduler) << "\","
         << "\"devices\":" << fl.devices << ','
         << "\"arrival_rate\":" << fl.arrival_rate << ','
         << "\"jobs_submitted\":" << fl.jobs_submitted << ','
         << "\"jobs_completed\":" << fl.jobs_completed << ','
         << "\"jobs_rejected\":" << fl.jobs_rejected << ','
         << "\"rejected_queue_full\":" << fl.rejected_queue_full << ','
         << "\"rejected_never_fits\":" << fl.rejected_never_fits << ','
         << "\"rejected_policy\":" << fl.rejected_policy << ','
         << "\"peak_queue_depth\":" << fl.peak_queue_depth << ','
         << "\"rejection_rate\":" << fl.rejection_rate << ','
         << "\"goodput\":" << fl.goodput << ','
         << "\"mean_queue_wait\":" << fl.mean_queue_wait << ','
         << "\"p95_queue_wait\":" << fl.p95_queue_wait << ','
         << "\"mean_slowdown\":" << fl.mean_slowdown << ','
         << "\"slowdown_p50\":" << fl.slowdown_p50 << ','
         << "\"slowdown_p95\":" << fl.slowdown_p95 << ','
         << "\"slowdown_p99\":" << fl.slowdown_p99 << ','
         << "\"fairness_min\":" << fl.fairness_min << ','
         << "\"fairness_mean\":" << fl.fairness_mean
         << "},\"fleet_devices\":[";
      for (std::size_t d = 0; d < x.devices.size(); ++d) {
        const DeviceRunResult& dr = x.devices[d];
        os << (d ? "," : "") << "{"
           << "\"id\":" << dr.id << ','
           << "\"capacity_pages\":" << dr.capacity_pages << ','
           << "\"page_faults\":" << dr.driver.page_faults << ','
           << "\"pages_in\":" << dr.driver.pages_migrated_in << ','
           << "\"pages_evicted\":" << dr.driver.pages_evicted << ','
           << "\"h2d_pages\":" << dr.h2d_pages << ','
           << "\"d2h_pages\":" << dr.d2h_pages
           << "}";
      }
      os << "]";
    }
    // Large-pages extension (docs/memory.md): keys only appear when the run
    // had --large-pages on, so default-run JSON stays byte-identical.
    if (x.large_pages) {
      os << ",\"large_pages\":true,"
         << "\"coalesces\":" << x.driver.coalesces << ','
         << "\"splinters\":" << x.driver.splinters << ','
         << "\"large_frames_evicted\":" << x.driver.large_frames_evicted << ','
         << "\"l1_tlb_large_hits\":" << x.gpu.l1_tlb_large_hits << ','
         << "\"l2_tlb_large_hits\":" << x.gpu.l2_tlb_large_hits;
    }
    // Fault-service-backend extension (docs/faultsvc.md): keys only appear
    // under --fault-backend gpu-driven, so default-run JSON stays
    // byte-identical with the host backend.
    if (x.gpu_fault_backend) {
      os << ",\"fault_backend\":\"" << escape_json(x.fault_backend) << "\","
         << "\"faults_enqueued\":" << x.faultsvc.faults_enqueued << ','
         << "\"queue_full_stalls\":" << x.faultsvc.queue_full_stalls << ','
         << "\"handler_pickups\":" << x.faultsvc.handler_pickups << ','
         << "\"handler_busy_cycles\":" << x.faultsvc.handler_busy_cycles << ','
         << "\"max_queue_depth\":" << x.faultsvc.max_queue_depth;
    }
    // Simulator-overhead counters (docs/performance.md). Only emitted for
    // real runs (synthetic LabelledResults in tests execute no events), and
    // flat rather than nested so existing consumers' object counts hold.
    if (x.sim.events_executed != 0) {
      os << ",\"sim_events_executed\":" << x.sim.events_executed << ','
         << "\"sim_event_heap_peak\":" << x.sim.event_heap_peak << ','
         << "\"sim_event_heap_capacity\":" << x.sim.event_heap_capacity << ','
         << "\"sim_oversize_events\":" << x.sim.oversize_events << ','
         << "\"sim_chain_slab_capacity\":" << x.sim.chain_slab_capacity << ','
         << "\"sim_page_table_capacity\":" << x.sim.page_table_capacity << ','
         << "\"sim_page_table_load\":" << x.sim.page_table_load;
    }
    // Sharded-engine counters (docs/performance.md): keys only appear for
    // multi-shard runs, so single-queue JSON stays byte-identical.
    if (x.engine_stats.sharded) {
      os << ",\"engine\":{"
         << "\"kind\":\"sharded\","
         << "\"shards\":" << x.engine_stats.shards << ','
         << "\"threads\":" << x.engine_stats.threads << ','
         << "\"lookahead_cycles\":" << x.engine_stats.lookahead_cycles << ','
         << "\"windows\":" << x.engine_stats.windows << ','
         << "\"messages\":" << x.engine_stats.messages << ','
         << "\"stall_windows\":" << x.engine_stats.stall_windows << ','
         << "\"barrier_waits\":" << x.engine_stats.barrier_waits << ','
         << "\"max_skew\":" << x.engine_stats.max_skew
         << "}";
    }
    // Event-queue health: only surfaced when something actually clamped, so
    // clean runs keep the historical key set.
    if (x.clamped_past != 0) os << ",\"clamped_past\":" << x.clamped_past;
    os << "}" << (i + 1 < results.size() ? "," : "") << '\n';
  }
  os << "]\n";
  if (!os) throw std::runtime_error("results: JSON write failed");
}

void save_csv(const std::string& path, const std::vector<LabelledResult>& results) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("results: cannot open " + path);
  write_csv(os, results);
}

void save_json(const std::string& path, const std::vector<LabelledResult>& results) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("results: cannot open " + path);
  write_json(os, results);
}

void save_tenant_csv(const std::string& path,
                     const std::vector<LabelledResult>& results) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("results: cannot open " + path);
  write_tenant_csv(os, results);
}

void save_fleet_csv(const std::string& path,
                    const std::vector<LabelledResult>& results) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("results: cannot open " + path);
  write_fleet_csv(os, results);
}

}  // namespace uvmsim
