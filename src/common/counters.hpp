// One declaration per counter struct. A struct lists its fields once, in an
// X-macro `UVMSIM_<NAME>_STATS(X)`; the helpers below expand that list into
// the members and into the field-wise merge `operator+=`, so a new counter
// is summed everywhere a run aggregates devices, tenants or jobs.
#pragma once

#include <algorithm>

#include "common/types.hpp"

#define UVMSIM_COUNTER_FIELD(name) u64 name = 0;
#define UVMSIM_COUNTER_ADD(name) name += o.name;
#define UVMSIM_COUNTER_MAX(name) name = std::max(name, o.name);
