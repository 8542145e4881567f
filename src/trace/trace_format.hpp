// On-disk trace format for recorded page-access streams.
//
// A trace file stores one access stream per warp, so a recorded workload
// replays bit-identically through TraceWorkload (same pages, same think
// times, same warp assignment). Layout (little-endian, packed manually —
// no struct dumping, so the format is portable):
//
//   [Header]
//     u64 magic      "UVMTRC01"
//     u32 version    (1)
//     u32 num_streams
//     u64 footprint_pages
//     u8  pattern_type
//     u8  name_len, name bytes
//   [Stream] x num_streams
//     u32 global_warp_index
//     u64 num_accesses
//     [Access] x num_accesses:  u64 page, u32 think
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace uvmsim {

inline constexpr u64 kTraceMagic = 0x3130'4352'544D'5655ull;  // "UVMTRC01"
inline constexpr u32 kTraceVersion = 1;

/// Largest footprint a trace may declare: 64 GB of 4 KB pages, about
/// 2,000x the largest built-in workload. The driver, the GPU and the fault
/// tables allocate per page of footprint, so an unchecked header could ask
/// for terabytes; the cap also keeps page ids within a DenseIdMap's u32
/// slot range.
inline constexpr u64 kMaxTraceFootprintPages = u64{1} << 24;

}  // namespace uvmsim
