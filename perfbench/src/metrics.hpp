// The benchmark's metric catalogue: every name it can emit, with its unit.
// BENCHMARK.json lists the same names; run.py and the self-test check that
// the two agree.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;  ///< emitted by untraced runs; per-layer otherwise
};

[[nodiscard]] const std::vector<MetricDef>& metric_catalogue();

}  // namespace perfbench
