// Trace writer/reader + the recording helper that captures any Workload's
// streams to a file.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/trace_format.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {

/// In-memory form of a trace file.
struct Trace {
  std::string name;
  u64 footprint_pages = 0;
  PatternType pattern = PatternType::kStreaming;

  struct Stream {
    u32 global_warp_index = 0;
    std::vector<Access> accesses;
  };
  std::vector<Stream> streams;
};

/// Serialise to/from a stream. Throws std::runtime_error on malformed input,
/// including a stream or access count larger than the input could hold —
/// checked before anything is allocated from it.
void write_trace(std::ostream& os, const Trace& trace);
[[nodiscard]] Trace read_trace(std::istream& is);

/// Import a text trace — the adoption path for traces captured with real
/// profilers. Format: optional header lines `# name: X`, `# pattern: 1..6`,
/// then one access per line: `warp_index page [think]` (think defaults to
/// 100 cycles). The footprint is inferred as max(page)+1 unless a
/// `# footprint_pages: N` header is present. Throws on malformed lines.
[[nodiscard]] Trace read_text_trace(std::istream& is);

/// Emit the text form (round-trips through read_text_trace).
void write_text_trace(std::ostream& os, const Trace& trace);

/// File-path convenience wrappers.
void save_trace(const std::string& path, const Trace& trace);
[[nodiscard]] Trace load_trace(const std::string& path);

/// Drain every warp stream of `workload` (for the given grid shape and
/// seed) into an in-memory trace.
[[nodiscard]] Trace record_trace(const Workload& workload, u32 total_warps,
                                 u64 seed);

}  // namespace uvmsim
