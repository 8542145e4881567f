// ArrivalStream: Poisson determinism, mean-gap calibration, trace-driven
// replay and trace-file parsing.
#include "fleet/arrival.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace uvmsim {
namespace {

FleetConfig config_with_rate(double rate) {
  FleetConfig cfg;
  cfg.enabled = true;
  cfg.arrival_rate = rate;
  return cfg;
}

TEST(ArrivalStream, SameSeedSameSequence) {
  const FleetConfig cfg = config_with_rate(20.0);
  ArrivalStream a(cfg, 42, 12);
  ArrivalStream b(cfg, 42, 12);
  for (int i = 0; i < 1000; ++i) {
    const auto xa = a.next();
    const auto xb = b.next();
    EXPECT_EQ(xa.gap, xb.gap) << "draw " << i;
    EXPECT_EQ(xa.tpl, xb.tpl) << "draw " << i;
  }
}

TEST(ArrivalStream, DifferentSeedsDiverge) {
  const FleetConfig cfg = config_with_rate(20.0);
  ArrivalStream a(cfg, 1, 12);
  ArrivalStream b(cfg, 2, 12);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next().gap == b.next().gap) ++same;
  EXPECT_LT(same, 5);
}

TEST(ArrivalStream, MeanGapMatchesOfferedRate) {
  // 20 jobs per million cycles -> mean gap 50000. Exponential draws, so
  // allow the sample mean a generous band.
  ArrivalStream s(config_with_rate(20.0), 7, 12);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(s.next().gap);
  const double mean = sum / n;
  EXPECT_GT(mean, 45000.0);
  EXPECT_LT(mean, 55000.0);
}

TEST(ArrivalStream, TemplateIndicesCoverRange) {
  ArrivalStream s(config_with_rate(20.0), 9, 12);
  std::vector<int> hits(12, 0);
  for (int i = 0; i < 2000; ++i) {
    const u32 tpl = s.next().tpl;
    ASSERT_LT(tpl, 12u);
    ++hits[tpl];
  }
  for (int t = 0; t < 12; ++t) EXPECT_GT(hits[t], 0) << "template " << t;
}

TEST(ArrivalStream, TraceDrivenCyclesGaps) {
  ArrivalStream s(config_with_rate(20.0), 5, 12, {100, 200, 300});
  EXPECT_TRUE(s.trace_driven());
  const Cycle expect[] = {100, 200, 300, 100, 200, 300, 100};
  for (Cycle g : expect) EXPECT_EQ(s.next().gap, g);
}

TEST(ArrivalStream, TraceDoesNotPerturbTemplateDraws) {
  // The template stream is independent of the gap source: Poisson and
  // trace-driven streams with one seed draw identical template sequences.
  const FleetConfig cfg = config_with_rate(20.0);
  ArrivalStream poisson(cfg, 11, 12);
  ArrivalStream traced(cfg, 11, 12, {500});
  for (int i = 0; i < 500; ++i)
    EXPECT_EQ(poisson.next().tpl, traced.next().tpl) << "draw " << i;
}

TEST(ArrivalStream, LoadTraceParsesGapsAndComments) {
  const std::string path = ::testing::TempDir() + "arrivals.txt";
  {
    std::ofstream f(path);
    f << "# recorded interarrival gaps\n"
      << "120\n"
      << "\n"
      << "340\n"
      << "# tail comment\n"
      << "5\n";
  }
  const auto trace = ArrivalStream::load_trace(path);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0], 120u);
  EXPECT_EQ(trace[1], 340u);
  EXPECT_EQ(trace[2], 5u);
  std::remove(path.c_str());
}

TEST(ArrivalStream, LoadTraceUnreadableReturnsEmpty) {
  EXPECT_TRUE(ArrivalStream::load_trace("/nonexistent/arrivals.txt").empty());
}

// Each hostile line throws, naming its line number; none is read loosely.
void expect_rejected_line(const std::string& name, const std::string& bad) {
  const std::string path = ::testing::TempDir() + name;
  {
    std::ofstream f(path);
    f << "# gaps\n" << "100\n" << bad << "\n" << "200\n";
  }
  try {
    (void)ArrivalStream::load_trace(path);
    ADD_FAILURE() << "'" << bad << "' was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(ArrivalStream, LoadTraceRejectsNegativeGap) {
  expect_rejected_line("arrivals_negative.txt", "-5");
}

TEST(ArrivalStream, LoadTraceRejectsTrailingText) {
  expect_rejected_line("arrivals_trailing.txt", "12abc");
}

TEST(ArrivalStream, LoadTraceRejectsNonNumber) {
  expect_rejected_line("arrivals_word.txt", "xyz");
}

TEST(ArrivalStream, LoadTraceAcceptsSurroundingSpaceAndComments) {
  const std::string path = ::testing::TempDir() + "arrivals_spaced.txt";
  {
    std::ofstream f(path);
    f << "  7\t# seven\r\n" << "18446744073709551615\n";
  }
  const auto trace = ArrivalStream::load_trace(path);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0], 7u);
  EXPECT_EQ(trace[1], ~Cycle{0});
  std::remove(path.c_str());
  expect_rejected_line("arrivals_overflow.txt", "18446744073709551616");
  expect_rejected_line("arrivals_two.txt", "12 34");
}

TEST(ArrivalStream, ZeroRateDoesNotDivideByZero) {
  ArrivalStream s(config_with_rate(0.0), 3, 12);
  const auto a = s.next();  // mean gap falls back to 1e6 cycles
  EXPECT_LT(a.gap, 100'000'000u);
}

}  // namespace
}  // namespace uvmsim
