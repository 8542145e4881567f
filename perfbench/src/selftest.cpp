// Benchmark self-tests (perfbench_sim --selftest; run.py --selftest adds the
// checks on metric names and on BENCHMARK.json). Each check prints one line;
// the exit code is the number of failed checks.
//
//   - decorator transparency: small runs of every workload give the same
//     simulated digests with and without the timing decorators and the
//     counting sink;
//   - engine threads: fabric4 and fleet8 give the same digests at 1 and 2
//     worker threads, untraced and traced;
//   - the harness path: fig8 through run_sweep/run_experiment gives the same
//     digests as the benchmark's direct UvmSystem construction;
//   - the decorators observe work (non-zero calls on an evicting run);
//   - seeds: a fixed seed reproduces the generated inputs and another seed
//     changes them;
//   - the invariants reject a broken result.
#include <cstdio>
#include <string>
#include <vector>

#include "probes.hpp"
#include "scenarios.hpp"

namespace perfbench {

using namespace uvmsim;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::vector<u64> digests(const std::vector<ExperimentOutcome>& pass) {
  std::vector<u64> out;
  for (const auto& o : pass) {
    out.push_back(o.digest);
    for (const auto& f : o.failures)
      std::printf("     %s: %s\n", o.name.c_str(), f.c_str());
  }
  return out;
}

bool all_pass(const std::vector<ExperimentOutcome>& pass) {
  for (const auto& o : pass)
    if (!o.failures.empty()) return false;
  return true;
}

}  // namespace

int selftest() {
  register_timed_policies();
  constexpr u64 kSeed = 0x5EED;

  for (const Scenario s : {Scenario::kFig8, Scenario::kFabric4, Scenario::kFleet8}) {
    const std::string name = scenario_name(s);
    PassOptions plain;
    plain.seed = kSeed;
    plain.small = true;
    const auto base = run_pass(s, plain);
    expect(!base.empty() && all_pass(base), name + ": small pass meets every invariant");

    PassOptions traced_opt = plain;
    CountingSink sink;
    traced_opt.traced = true;
    traced_opt.sink = &sink;
    probes().reset();
    const auto traced_run = run_pass(s, traced_opt);
    const auto totals = probes().totals();
    probes().reset();
    expect(digests(traced_run) == digests(base),
           name + ": decorators and sink leave the digests unchanged");
    expect(sink.total() > 0, name + ": the counting sink saw events");
    expect(totals[static_cast<std::size_t>(Call::kPlan)].calls > 0,
           name + ": the prefetch decorator saw plan() calls");
    expect(totals[static_cast<std::size_t>(Call::kOnChunkInserted)].calls > 0,
           name + ": the eviction decorator saw chunk insertions");
    if (s != Scenario::kFleet8)
      expect(totals[static_cast<std::size_t>(Call::kNext)].calls > 0,
             name + ": the workload wrapper saw accesses");

    if (uses_engine(s)) {
      PassOptions mt = plain;
      mt.threads = 2;
      expect(digests(run_pass(s, mt)) == digests(base),
             name + ": 1 and 2 engine threads give the same digests");
      // Decorators called from two worker threads, each with its own probe.
      mt.traced = true;
      probes().reset();
      expect(digests(run_pass(s, mt)) == digests(base),
             name + ": traced at 2 engine threads gives the same digests");
      probes().reset();
    } else {
      expect(digests(run_fig8_sweep(kSeed, 2, true)) == digests(base),
             name + ": run_sweep/run_experiment gives the same digests");
    }

    expect(inputs_digest(s, kSeed) == inputs_digest(s, kSeed),
           name + ": a fixed seed reproduces the generated inputs");
    expect(inputs_digest(s, kSeed) != inputs_digest(s, kSeed + 1),
           name + ": another seed changes the generated inputs");
  }

  // The checks must be able to fail: break a copy of a good result.
  PassOptions plain;
  plain.small = true;
  RunResult broken = run_pass(Scenario::kFig8, plain).front().result;
  broken.completed = false;
  broken.clamped_past = 1;
  broken.driver.pages_evicted = broken.driver.pages_demanded +
                                broken.driver.pages_prefetched + 1;
  expect(check_result(Scenario::kFig8, broken).size() == 3,
         "a broken result fails all three single-GPU invariants");
  RunResult fleet = run_pass(Scenario::kFleet8, plain).front().result;
  fleet.fleet.jobs_completed += 1;
  expect(!check_result(Scenario::kFleet8, fleet).empty(),
         "a fleet result that loses a job fails the accounting invariant");
  RunResult other = broken;
  other.cycles += 1;
  expect(digest_of(other) != digest_of(broken), "the digest covers cycles");

  std::printf("%d failed\n", failures);
  return failures;
}

}  // namespace perfbench
