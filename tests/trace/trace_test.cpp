// Trace record / serialise / replay, including the replay-equivalence
// property: a recorded benchmark simulates bit-identically to the original.
#include <gtest/gtest.h>

#include <sstream>
#include <streambuf>
#include <string>

#include "core/policy_factory.hpp"
#include "core/uvm_system.hpp"
#include "trace/trace_format.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_workload.hpp"
#include "workloads/benchmarks.hpp"

namespace uvmsim {
namespace {

Trace tiny_trace() {
  Trace t;
  t.name = "tiny";
  t.footprint_pages = 100;
  t.pattern = PatternType::kThrashing;
  t.streams.resize(2);
  t.streams[0].global_warp_index = 0;
  t.streams[0].accesses = {{1, 10}, {2, 20}, {1, 30}};
  t.streams[1].global_warp_index = 1;
  t.streams[1].accesses = {{99, 5}};
  return t;
}

TEST(TraceIo, RoundTripsThroughStream) {
  const Trace t = tiny_trace();
  std::stringstream ss;
  write_trace(ss, t);
  const Trace r = read_trace(ss);
  EXPECT_EQ(r.name, "tiny");
  EXPECT_EQ(r.footprint_pages, 100u);
  EXPECT_EQ(r.pattern, PatternType::kThrashing);
  ASSERT_EQ(r.streams.size(), 2u);
  ASSERT_EQ(r.streams[0].accesses.size(), 3u);
  EXPECT_EQ(r.streams[0].accesses[1].page, 2u);
  EXPECT_EQ(r.streams[0].accesses[1].think, 20u);
  EXPECT_EQ(r.streams[1].accesses[0].page, 99u);
}

TEST(TraceIo, RejectsBadMagic) {
  std::stringstream ss;
  ss << "definitely not a trace file";
  EXPECT_THROW((void)read_trace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsTruncation) {
  const Trace t = tiny_trace();
  std::stringstream ss;
  write_trace(ss, t);
  std::string bytes = ss.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream half(bytes);
  EXPECT_THROW((void)read_trace(half), std::runtime_error);
}

TEST(TraceIo, RejectsOutOfFootprintAccess) {
  Trace t = tiny_trace();
  t.streams[0].accesses.push_back({1000, 1});  // footprint is 100
  std::stringstream ss;
  write_trace(ss, t);
  EXPECT_THROW((void)read_trace(ss), std::runtime_error);
}

/// A hand-written binary header: one stream-count field the test controls.
std::string header_bytes(u32 num_streams, u64 footprint = 64) {
  std::ostringstream os;
  const auto put = [&os](u64 v, int bytes) {
    for (int i = 0; i < bytes; ++i)
      os.put(static_cast<char>((v >> (8 * i)) & 0xFF));
  };
  put(kTraceMagic, 8);
  put(kTraceVersion, 4);
  put(num_streams, 4);
  put(footprint, 8);
  put(1, 1);  // pattern
  put(0, 1);  // empty name
  return os.str();
}

// A 40-byte file claiming 2^32 - 1 streams once asked for ~128 GB before
// reading a single stream; the count is now bounded by the bytes present.
TEST(TraceIo, RejectsStreamCountBeyondFileSize) {
  std::string bytes = header_bytes(0xFFFFFFFFu);
  bytes.resize(40, '\0');
  std::stringstream ss(bytes);
  try {
    (void)read_trace(ss);
    FAIL() << "hostile stream count accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("stream count"), std::string::npos);
  }
}

TEST(TraceIo, RejectsAccessCountBeyondFileSize) {
  std::ostringstream os;
  os << header_bytes(1);
  for (int i = 0; i < 4; ++i) os.put('\0');      // warp index 0
  for (int i = 0; i < 8; ++i) os.put('\x7F');    // ~2^63 accesses
  os << std::string(24, '\0');                   // two accesses' worth
  std::stringstream ss(os.str());
  try {
    (void)read_trace(ss);
    FAIL() << "hostile access count accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("access count"), std::string::npos);
  }
}

/// Expect `read` to throw a runtime_error that names the footprint cap.
template <class Read>
void expect_footprint_cap_error(Read read) {
  try {
    (void)read();
    FAIL() << "footprint beyond the cap accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(std::to_string(kMaxTraceFootprintPages)),
              std::string::npos)
        << e.what();
  }
}

// Page-indexed tables allocate per page of footprint, so a 62-byte file
// declaring 2^40 pages once reached std::bad_alloc; the header is now
// rejected by the named cap before any stream is read.
TEST(TraceIo, RejectsFootprintBeyondCap) {
  std::ostringstream os;
  os << header_bytes(1, u64{1} << 40);
  for (int i = 0; i < 4; ++i) os.put('\0');  // warp index 0
  os.put('\2');                               // two accesses
  for (int i = 0; i < 7; ++i) os.put('\0');
  os << std::string(24, '\0');                // pages 0 and 0
  std::stringstream ss(os.str());
  expect_footprint_cap_error([&] { return read_trace(ss); });

  std::stringstream over(header_bytes(0, kMaxTraceFootprintPages + 1));
  expect_footprint_cap_error([&] { return read_trace(over); });
  std::stringstream at_cap(header_bytes(0, kMaxTraceFootprintPages));
  EXPECT_EQ(read_trace(at_cap).footprint_pages, kMaxTraceFootprintPages);
}

/// A stream buffer that cannot seek, like a pipe's.
class PipeBuf : public std::streambuf {
 public:
  explicit PipeBuf(std::string& bytes) {
    setg(bytes.data(), bytes.data(), bytes.data() + bytes.size());
  }
};

TEST(TraceIo, ReadsUnseekableStreams) {
  std::stringstream ss;
  write_trace(ss, tiny_trace());
  std::string bytes = ss.str();
  PipeBuf pipe(bytes);
  std::istream is(&pipe);
  ASSERT_EQ(is.tellg(), std::streampos(-1));
  const Trace r = read_trace(is);
  EXPECT_EQ(r.streams.size(), tiny_trace().streams.size());

  std::string hostile = header_bytes(0xFFFFFFFFu);
  PipeBuf hostile_pipe(hostile);
  std::istream his(&hostile_pipe);
  EXPECT_THROW((void)read_trace(his), std::runtime_error);

  std::string none;
  PipeBuf empty_pipe(none);
  std::istream eis(&empty_pipe);
  EXPECT_THROW((void)read_trace(eis), std::runtime_error);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/uvmsim_trace_test.trc";
  save_trace(path, tiny_trace());
  const Trace r = load_trace(path);
  EXPECT_EQ(r.streams.size(), 2u);
}

TEST(TraceIo, LoadMissingFileThrows) {
  EXPECT_THROW((void)load_trace("/nonexistent/dir/x.trc"), std::runtime_error);
}

TEST(TraceRecord, CapturesAllWarpStreams) {
  const auto wl = make_benchmark("STN");
  const Trace t = record_trace(*wl, /*total_warps=*/16, /*seed=*/42);
  EXPECT_EQ(t.streams.size(), 16u);
  EXPECT_EQ(t.footprint_pages, wl->footprint_pages());
  u64 total = 0;
  for (const auto& s : t.streams) total += s.accesses.size();
  EXPECT_GT(total, 0u);
}

TEST(TraceWorkloadTest, ReplaysRecordedAccesses) {
  const Trace t = tiny_trace();
  TraceWorkload wl{Trace(t)};
  auto s0 = wl.make_stream({0, 2, 999});  // seed irrelevant for replay
  Access a;
  ASSERT_TRUE(s0->next(a));
  EXPECT_EQ(a.page, 1u);
  EXPECT_EQ(a.think, 10u);
  ASSERT_TRUE(s0->next(a));
  ASSERT_TRUE(s0->next(a));
  EXPECT_FALSE(s0->next(a));
}

TEST(TraceWorkloadTest, WarpWithoutStreamIsEmpty) {
  TraceWorkload wl{tiny_trace()};
  auto s = wl.make_stream({7, 8, 0});
  Access a;
  EXPECT_FALSE(s->next(a));
}

TEST(TextTrace, ParsesHeaderAndAccesses) {
  std::stringstream ss;
  ss << "# name: mykernel\n# pattern: 4\n# footprint_pages: 50\n"
     << "0 1 10\n0 2\n3 49 77\n";
  const Trace t = read_text_trace(ss);
  EXPECT_EQ(t.name, "mykernel");
  EXPECT_EQ(t.pattern, PatternType::kThrashing);
  EXPECT_EQ(t.footprint_pages, 50u);
  ASSERT_EQ(t.streams.size(), 2u);  // warps 0 and 3
  EXPECT_EQ(t.streams[0].accesses.size(), 2u);
  EXPECT_EQ(t.streams[0].accesses[1].think, 100u);  // default think
  EXPECT_EQ(t.streams[1].global_warp_index, 3u);
  EXPECT_EQ(t.streams[1].accesses[0].think, 77u);
}

TEST(TextTrace, InfersFootprintWhenAbsent) {
  std::stringstream ss;
  ss << "0 10\n1 99\n";
  EXPECT_EQ(read_text_trace(ss).footprint_pages, 100u);
}

TEST(TextTrace, RejectsGarbageAndEmpty) {
  std::stringstream bad;
  bad << "0 not-a-page\n";
  EXPECT_THROW((void)read_text_trace(bad), std::runtime_error);
  std::stringstream empty;
  EXPECT_THROW((void)read_text_trace(empty), std::runtime_error);
}

TEST(TextTrace, RejectsAccessOutsideDeclaredFootprint) {
  std::stringstream ss;
  ss << "# footprint_pages: 5\n0 9\n";
  EXPECT_THROW((void)read_text_trace(ss), std::runtime_error);
}

TEST(TextTrace, RejectsFootprintBeyondCap) {
  std::stringstream declared;
  declared << "# footprint_pages: 1099511627776\n0 1\n";
  expect_footprint_cap_error([&] { return read_text_trace(declared); });
  // An inferred footprint (max page + 1) is held to the same cap.
  std::stringstream inferred;
  inferred << "0 1\n0 " << kMaxTraceFootprintPages << "\n";
  expect_footprint_cap_error([&] { return read_text_trace(inferred); });
  std::stringstream at_cap;
  at_cap << "0 " << kMaxTraceFootprintPages - 1 << "\n";
  EXPECT_EQ(read_text_trace(at_cap).footprint_pages, kMaxTraceFootprintPages);
}

TEST(TextTrace, RoundTripsThroughTextForm) {
  const Trace original = tiny_trace();
  std::stringstream ss;
  write_text_trace(ss, original);
  const Trace back = read_text_trace(ss);
  EXPECT_EQ(back.footprint_pages, original.footprint_pages);
  EXPECT_EQ(back.pattern, original.pattern);
  ASSERT_EQ(back.streams.size(), original.streams.size());
  for (std::size_t i = 0; i < back.streams.size(); ++i) {
    ASSERT_EQ(back.streams[i].accesses.size(), original.streams[i].accesses.size());
    for (std::size_t j = 0; j < back.streams[i].accesses.size(); ++j) {
      EXPECT_EQ(back.streams[i].accesses[j].page,
                original.streams[i].accesses[j].page);
      EXPECT_EQ(back.streams[i].accesses[j].think,
                original.streams[i].accesses[j].think);
    }
  }
}

// The headline property: record -> replay produces a bit-identical run.
TEST(TraceWorkloadTest, ReplayEquivalence) {
  SystemConfig sys;
  sys.num_sms = 4;  // keep the recording small
  const PolicyConfig pol = presets::cppe();

  const auto original = make_benchmark("NW");
  UvmSystem direct(sys, pol, *original, 0.5);
  const RunResult a = direct.run();

  const Trace t =
      record_trace(*original, sys.num_sms * sys.warps_per_sm, pol.seed);
  TraceWorkload replay{Trace(t)};
  UvmSystem traced(sys, pol, replay, 0.5);
  const RunResult b = traced.run();

  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.driver.page_faults, b.driver.page_faults);
  EXPECT_EQ(a.driver.pages_migrated_in, b.driver.pages_migrated_in);
  EXPECT_EQ(a.driver.pages_evicted, b.driver.pages_evicted);
  EXPECT_EQ(a.gpu.accesses, b.gpu.accesses);
}

}  // namespace
}  // namespace uvmsim
