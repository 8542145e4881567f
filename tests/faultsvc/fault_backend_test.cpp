#include "faultsvc/fault_backend.hpp"

#include <gtest/gtest.h>

#include "core/policy_factory.hpp"
#include "core/uvm_system.hpp"
#include "faultsvc/gpu_backend.hpp"
#include "faultsvc/host_backend.hpp"
#include "harness/runner.hpp"
#include "workloads/benchmarks.hpp"

namespace uvmsim {
namespace {

SystemConfig gpu_cfg(u32 sms = 4, u32 depth = 32) {
  SystemConfig sys;
  sys.fault_backend = FaultBackendKind::kGpuDriven;
  sys.num_sms = sms;
  sys.gpu_fault_queue_depth = depth;
  return sys;
}

GpuDrivenBackend make_gpu(u32 sms = 4, u32 depth = 32, u32 window = 16) {
  PolicyConfig pol = presets::cppe();
  pol.fault_batch = window;  // the handler window; 1 (the default) drains
                             // one fault per pickup like the classic driver
  return GpuDrivenBackend(gpu_cfg(sms, depth), pol, /*footprint_pages=*/64);
}

// --- Factory ----------------------------------------------------------------

TEST(FaultBackendFactory, SelectsBackendFromSystemConfig) {
  SystemConfig sys;
  const PolicyConfig pol = presets::cppe();
  auto host = make_fault_backend(sys, pol, /*footprint_pages=*/64);
  EXPECT_EQ(host->kind(), FaultBackendKind::kHostDriver);
  EXPECT_STREQ(host->name(), "host");

  sys.fault_backend = FaultBackendKind::kGpuDriven;
  auto gpu = make_fault_backend(sys, pol, /*footprint_pages=*/64);
  EXPECT_EQ(gpu->kind(), FaultBackendKind::kGpuDriven);
  EXPECT_STREQ(gpu->name(), "gpu-driven");
}

TEST(FaultBackendFactory, ParseRoundTrips) {
  EXPECT_EQ(parse_fault_backend_kind("host"), FaultBackendKind::kHostDriver);
  EXPECT_EQ(parse_fault_backend_kind("host-driver"),
            FaultBackendKind::kHostDriver);
  EXPECT_EQ(parse_fault_backend_kind("gpu-driven"),
            FaultBackendKind::kGpuDriven);
  EXPECT_EQ(parse_fault_backend_kind("gpuvm"), FaultBackendKind::kGpuDriven);
  EXPECT_FALSE(parse_fault_backend_kind("bogus").has_value());
}

// --- Host backend: the byte-identity contract -------------------------------

// The host backend charges exactly the pre-seam formula and emits no events
// and no stats, so every golden artefact stays byte-identical.
TEST(HostDriverBackend, ChargesFixedLatencyAndStaysSilent) {
  SystemConfig sys;
  HostDriverBackend b(sys, presets::cppe(), /*footprint_pages=*/64);
  const Cycle done = b.reserve_service(/*now=*/1000, /*lead=*/7, /*faults=*/3,
                                       /*demand_evictions=*/2);
  EXPECT_EQ(done, 1000 + sys.fault_latency_cycles() +
                      2 * sys.evict_service_cycles());
  // A second batch at the same cycle overlaps fully — no occupancy state.
  EXPECT_EQ(b.reserve_service(1000, 9, 8, 0),
            1000 + sys.fault_latency_cycles());
  const FaultBackendStats& s = b.backend_stats();
  EXPECT_EQ(s.faults_enqueued, 0u);
  EXPECT_EQ(s.queue_full_stalls, 0u);
  EXPECT_EQ(s.handler_pickups, 0u);
  EXPECT_EQ(s.handler_busy_cycles, 0u);
  EXPECT_EQ(s.max_queue_depth, 0u);
}

// An explicit --fault-backend host run is indistinguishable from a default
// run: same cycles, same counters, zero backend stats.
TEST(HostDriverBackend, ExplicitHostMatchesDefaultRun) {
  const auto wl = make_benchmark("NW");
  SystemConfig def;
  SystemConfig host;
  host.fault_backend = FaultBackendKind::kHostDriver;

  UvmSystem a(def, presets::cppe(), *wl, 0.5);
  UvmSystem b(host, presets::cppe(), *wl, 0.5);
  const RunResult ra = a.run();
  const RunResult rb = b.run();
  EXPECT_EQ(ra.cycles, rb.cycles);
  EXPECT_EQ(ra.driver.page_faults, rb.driver.page_faults);
  EXPECT_EQ(ra.driver.fault_wait_cycles, rb.driver.fault_wait_cycles);
  EXPECT_EQ(ra.h2d_pages, rb.h2d_pages);
  EXPECT_EQ(rb.fault_backend, "host");
  EXPECT_FALSE(rb.gpu_fault_backend);
  EXPECT_EQ(rb.faultsvc.handler_pickups, 0u);
}

// --- GPU-driven backend: queues, overflow, drain order ----------------------

TEST(GpuDrivenBackend, RoundRobinDrainInterleavesSmQueues) {
  GpuDrivenBackend b = make_gpu(/*sms=*/2, /*depth=*/8);
  // SM 0 raises pages 10, 11; SM 1 raises 20, 21.
  b.raise(10, 0, WakeCallback{}, 0);
  b.raise(11, 0, WakeCallback{}, 0);
  b.raise(20, 1, WakeCallback{}, 0);
  b.raise(21, 1, WakeCallback{}, 0);
  EXPECT_EQ(b.queued(), 4u);
  // One fault per queue visit, starting at the cursor (queue 0).
  const std::vector<PageId> batch = b.take_batch(nullptr);
  EXPECT_EQ(batch, (std::vector<PageId>{10, 20, 11, 21}));
  EXPECT_EQ(b.queued(), 0u);
}

TEST(GpuDrivenBackend, WindowBoundsTheBatch) {
  SystemConfig sys = gpu_cfg(/*sms=*/1, /*depth=*/16);
  PolicyConfig pol = presets::cppe();
  pol.fault_batch = 2;
  GpuDrivenBackend b(sys, pol, /*footprint_pages=*/64);
  for (PageId p = 0; p < 5; ++p) b.raise(p, 0, WakeCallback{}, 0);
  EXPECT_EQ(b.take_batch(nullptr), (std::vector<PageId>{0, 1}));
  EXPECT_EQ(b.take_batch(nullptr), (std::vector<PageId>{2, 3}));
  EXPECT_EQ(b.take_batch(nullptr), (std::vector<PageId>{4}));
}

TEST(GpuDrivenBackend, RequeuedLeadDrainsFirst) {
  GpuDrivenBackend b = make_gpu(/*sms=*/1, /*depth=*/8);
  b.raise(1, 0, WakeCallback{}, 0);
  b.raise(2, 0, WakeCallback{}, 0);
  auto first = b.take_batch(nullptr);
  ASSERT_EQ(first.size(), 2u);
  // Page 2 was trimmed out of the plan: it must lead the next batch even
  // though newer faults have arrived since.
  b.requeue_front(2);
  b.raise(3, 0, WakeCallback{}, 0);
  const auto next = b.take_batch(nullptr);
  ASSERT_FALSE(next.empty());
  EXPECT_EQ(next.front(), 2u);
}

TEST(GpuDrivenBackend, FullQueueOverflowsAndRefills) {
  GpuDrivenBackend b = make_gpu(/*sms=*/1, /*depth=*/2);
  b.raise(1, 0, WakeCallback{}, 0);
  b.raise(2, 0, WakeCallback{}, 0);
  b.raise(3, 0, WakeCallback{}, 0);  // queue full -> overflow
  b.raise(4, 0, WakeCallback{}, 0);
  const FaultBackendStats& s = b.backend_stats();
  EXPECT_EQ(s.queue_full_stalls, 2u);
  EXPECT_EQ(s.faults_enqueued, 2u);
  EXPECT_EQ(s.max_queue_depth, 2u);
  // All four faults are still pending and queued (the spill list counts).
  EXPECT_EQ(b.queued(), 4u);
  EXPECT_TRUE(b.pending(3));
  // The first pickup drains the queue; the freed slots absorb the spill
  // list in FIFO order, so the overflowed faults are serviced on the next
  // pickup and nothing is lost.
  EXPECT_EQ(b.take_batch(nullptr), (std::vector<PageId>{1, 2}));
  EXPECT_EQ(b.queued(), 2u);
  EXPECT_EQ(b.take_batch(nullptr), (std::vector<PageId>{3, 4}));
  EXPECT_EQ(b.queued(), 0u);
}

TEST(GpuDrivenBackend, AbsorbedEntriesAreDiscardedOnDrain) {
  GpuDrivenBackend b = make_gpu(/*sms=*/1, /*depth=*/8);
  b.raise(1, 0, WakeCallback{}, 0);
  b.raise(2, 0, WakeCallback{}, 0);
  b.raise(3, 0, WakeCallback{}, 0);
  // Page 2 is absorbed into another plan before the handler picks it up.
  const PendingFault pf = b.extract(2);
  EXPECT_TRUE(pf.faulted);
  EXPECT_FALSE(b.pending(2));
  EXPECT_EQ(b.take_batch(nullptr), (std::vector<PageId>{1, 3}));
}

TEST(GpuDrivenBackend, CoalesceAttachesToPendingFaultOnly) {
  GpuDrivenBackend b = make_gpu();
  EXPECT_FALSE(b.coalesce(5, WakeCallback{}));  // nothing pending yet
  b.raise(5, 2, WakeCallback{}, 10);
  EXPECT_TRUE(b.coalesce(5, WakeCallback{}));
  const PendingFault pf = b.extract(5);
  EXPECT_EQ(pf.raised_at, 10u);
  EXPECT_EQ(pf.waiters.size(), 2u);
}

// --- GPU-driven backend: handler occupancy ----------------------------------

TEST(GpuDrivenBackend, HandlerOccupancySerializesBursts) {
  SystemConfig sys = gpu_cfg();
  GpuDrivenBackend b(sys, presets::cppe(), /*footprint_pages=*/64);
  const Cycle doorbell = sys.gpu_doorbell_cycles();
  const Cycle per_fault = sys.gpu_fault_service_cycles();

  const Cycle first = b.reserve_service(100, 1, 2, 0);
  EXPECT_EQ(first, 100 + doorbell + 2 * per_fault);
  // A second pickup at the same instant queues behind the busy handler.
  const Cycle second = b.reserve_service(100, 2, 1, 0);
  EXPECT_EQ(second, first + doorbell + per_fault);
  EXPECT_EQ(b.handler_free_at(), second);
  // Once the handler is idle again, service starts at `now`.
  const Cycle third = b.reserve_service(second + 500, 3, 1, 1);
  EXPECT_EQ(third, second + 500 + doorbell + per_fault +
                       sys.evict_service_cycles());

  const FaultBackendStats& s = b.backend_stats();
  EXPECT_EQ(s.handler_pickups, 3u);
  EXPECT_EQ(s.handler_busy_cycles,
            (third - (second + 500)) + (second - first) + (first - 100));
}

TEST(GpuDrivenBackend, PerFaultCostIsWellBelowHostRoundTrip) {
  const SystemConfig sys;
  // GPUVM's core premise, pinned so a config change cannot silently invert
  // the ablation's meaning.
  EXPECT_LT(sys.gpu_fault_service_cycles() * 4, sys.fault_latency_cycles());
  EXPECT_LT(sys.gpu_doorbell_cycles(), sys.gpu_fault_service_cycles());
}

// --- Full-system determinism ------------------------------------------------

// A threaded sweep under the GPU-driven backend is deterministic and
// thread-count independent, like every other configuration.
TEST(GpuDrivenBackend, ThreadedSweepIsDeterministic) {
  std::vector<ExperimentSpec> specs;
  for (const char* w : {"BFS", "NW"})
    for (const u32 depth : {32u, 1u}) {
      ExperimentSpec s;
      s.workload = w;
      s.label = std::string(w) + "@" + std::to_string(depth);
      s.policy = presets::cppe();
      s.oversub = 0.5;
      s.system = gpu_cfg(/*sms=*/4, depth);
      specs.push_back(std::move(s));
    }
  const auto serial = run_sweep(specs, 1);
  const auto parallel = run_sweep(specs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i].result.completed) << i;
    EXPECT_EQ(serial[i].result.cycles, parallel[i].result.cycles) << i;
    EXPECT_EQ(serial[i].result.driver.page_faults,
              parallel[i].result.driver.page_faults)
        << i;
    EXPECT_EQ(serial[i].result.faultsvc.handler_pickups,
              parallel[i].result.faultsvc.handler_pickups)
        << i;
    EXPECT_EQ(serial[i].result.faultsvc.queue_full_stalls,
              parallel[i].result.faultsvc.queue_full_stalls)
        << i;
    EXPECT_EQ(serial[i].result.fault_backend, "gpu-driven") << i;
    EXPECT_TRUE(serial[i].result.gpu_fault_backend) << i;
  }
}

}  // namespace
}  // namespace uvmsim
