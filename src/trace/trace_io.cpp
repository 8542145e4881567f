#include "trace/trace_io.hpp"

#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"

namespace uvmsim {
namespace {

template <typename T>
void put(std::ostream& os, T v) {
  // Explicit little-endian byte serialisation: portable across hosts.
  for (std::size_t i = 0; i < sizeof(T); ++i)
    os.put(static_cast<char>((static_cast<u64>(v) >> (8 * i)) & 0xFF));
}

template <typename T>
T get(std::istream& is) {
  u64 v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    const int c = is.get();
    if (c == std::istream::traits_type::eof())
      throw std::runtime_error("trace: truncated file");
    v |= static_cast<u64>(static_cast<unsigned char>(c)) << (8 * i);
  }
  return static_cast<T>(v);
}

/// Bytes from the read position to the end of a seekable stream.
u64 bytes_left(std::istream& is) {
  const std::streampos here = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streamoff left = is.tellg() - here;
  is.seekg(here);
  return static_cast<u64>(left);
}

// The encoded sizes of a stream header (u32 warp, u64 count) and of an
// access (u64 page, u32 think): the most a count can honestly claim is the
// bytes left divided by these.
constexpr u64 kStreamHeaderBytes = 12;
constexpr u64 kAccessBytes = 12;

void check_footprint(u64 pages, const char* what) {
  if (pages > kMaxTraceFootprintPages)
    throw std::runtime_error(std::string(what) + ": footprint of " +
                             std::to_string(pages) + " pages exceeds the cap of " +
                             std::to_string(kMaxTraceFootprintPages) + " pages");
}

}  // namespace

void write_trace(std::ostream& os, const Trace& trace) {
  put<u64>(os, kTraceMagic);
  put<u32>(os, kTraceVersion);
  put<u32>(os, static_cast<u32>(trace.streams.size()));
  put<u64>(os, trace.footprint_pages);
  put<u8>(os, static_cast<u8>(trace.pattern));
  if (trace.name.size() > 255) throw std::runtime_error("trace: name too long");
  put<u8>(os, static_cast<u8>(trace.name.size()));
  os.write(trace.name.data(), static_cast<std::streamsize>(trace.name.size()));

  for (const auto& s : trace.streams) {
    put<u32>(os, s.global_warp_index);
    put<u64>(os, s.accesses.size());
    for (const Access& a : s.accesses) {
      put<u64>(os, a.page);
      put<u32>(os, a.think);
    }
  }
  if (!os) throw std::runtime_error("trace: write failed");
}

Trace read_trace(std::istream& is) {
  // Header counts are untrusted: each is bounded by the bytes the stream
  // still holds before anything is sized from it. A pipe cannot say how
  // many it holds, so it is buffered first.
  if (is.tellg() == std::streampos(-1)) {
    std::stringstream buf;
    buf << is.rdbuf();
    buf.clear();  // an empty pipe sets failbit; the magic check reports it
    return read_trace(buf);
  }
  if (get<u64>(is) != kTraceMagic) throw std::runtime_error("trace: bad magic");
  const u32 version = get<u32>(is);
  if (version != kTraceVersion)
    throw std::runtime_error("trace: unsupported version " + std::to_string(version));

  Trace t;
  const u32 num_streams = get<u32>(is);
  t.footprint_pages = get<u64>(is);
  check_footprint(t.footprint_pages, "trace");
  t.pattern = static_cast<PatternType>(get<u8>(is));
  const u8 name_len = get<u8>(is);
  t.name.resize(name_len);
  is.read(t.name.data(), name_len);
  if (!is) throw std::runtime_error("trace: truncated name");

  if (num_streams > bytes_left(is) / kStreamHeaderBytes)
    throw std::runtime_error("trace: stream count exceeds file size");
  t.streams.resize(num_streams);
  for (auto& s : t.streams) {
    s.global_warp_index = get<u32>(is);
    const u64 n = get<u64>(is);
    if (n > bytes_left(is) / kAccessBytes)
      throw std::runtime_error("trace: access count exceeds file size");
    s.accesses.resize(n);
    for (auto& a : s.accesses) {
      a.page = get<u64>(is);
      a.think = get<u32>(is);
      if (a.page >= t.footprint_pages)
        throw std::runtime_error("trace: access outside footprint");
    }
  }
  return t;
}

Trace read_text_trace(std::istream& is) {
  Trace t;
  t.name = "text-trace";
  bool footprint_given = false;
  PageId max_page = 0;
  std::map<u32, std::vector<Access>> streams;

  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream hs(line.substr(1));
      std::string key;
      hs >> key;
      if (key == "name:") {
        hs >> t.name;
      } else if (key == "pattern:") {
        int v = 0;
        hs >> v;
        if (v >= 1 && v <= 6) t.pattern = static_cast<PatternType>(v);
      } else if (key == "footprint_pages:") {
        hs >> t.footprint_pages;
        footprint_given = true;
      }
      continue;
    }
    std::istringstream ls(line);
    u32 warp = 0;
    Access a{0, 100};
    if (!(ls >> warp >> a.page))
      throw std::runtime_error("text trace: malformed line " + std::to_string(lineno));
    ls >> a.think;  // optional; keeps the default on failure
    max_page = std::max(max_page, a.page);
    streams[warp].push_back(a);
  }
  if (streams.empty()) throw std::runtime_error("text trace: no accesses");
  if (!footprint_given) t.footprint_pages = max_page + 1;
  check_footprint(t.footprint_pages, "text trace");
  if (max_page >= t.footprint_pages)
    throw std::runtime_error("text trace: access outside declared footprint");

  t.streams.reserve(streams.size());
  for (auto& [warp, accesses] : streams) {
    Trace::Stream s;
    s.global_warp_index = warp;
    s.accesses = std::move(accesses);
    t.streams.push_back(std::move(s));
  }
  return t;
}

void write_text_trace(std::ostream& os, const Trace& trace) {
  os << "# name: " << trace.name << '\n'
     << "# pattern: " << static_cast<int>(trace.pattern) << '\n'
     << "# footprint_pages: " << trace.footprint_pages << '\n';
  for (const auto& s : trace.streams)
    for (const Access& a : s.accesses)
      os << s.global_warp_index << ' ' << a.page << ' ' << a.think << '\n';
  if (!os) throw std::runtime_error("text trace: write failed");
}

void save_trace(const std::string& path, const Trace& trace) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("trace: cannot open " + path + " for writing");
  write_trace(os, trace);
}

Trace load_trace(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("trace: cannot open " + path);
  return read_trace(is);
}

Trace record_trace(const Workload& workload, u32 total_warps, u64 seed) {
  Trace t;
  t.name = workload.name();
  t.footprint_pages = workload.footprint_pages();
  t.pattern = workload.pattern();
  t.streams.resize(total_warps);

  SplitMix64 seeder(seed);
  for (u32 g = 0; g < total_warps; ++g) {
    auto& s = t.streams[g];
    s.global_warp_index = g;
    auto stream = workload.make_stream({g, total_warps, seeder.next()});
    Access a;
    while (stream->next(a)) s.accesses.push_back(a);
  }
  return t;
}

}  // namespace uvmsim
