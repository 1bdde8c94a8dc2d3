// Support-library tests: RNG determinism, images/PGM round trips, timers,
// table rendering, and the log-bucketed latency histogram.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <set>
#include <thread>
#include <vector>

#include "support/histogram.hpp"
#include "support/image.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace {

using namespace sigrt::support;

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(7);
  Xoshiro256 b(8);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIsInUnitInterval) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 3.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 3.5);
  }
}

TEST(Rng, BoundedCoversRangeUniformly) {
  Xoshiro256 rng(17);
  std::array<int, 10> histogram{};
  for (int i = 0; i < 100000; ++i) {
    ++histogram[rng.bounded(10)];
  }
  for (const int count : histogram) {
    EXPECT_NEAR(count, 10000, 600);
  }
}

TEST(Rng, NormalHasZeroMeanUnitVariance) {
  Xoshiro256 rng(19);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, StreamsAreIndependent) {
  auto a = stream_rng(42, 0);
  auto b = stream_rng(42, 1);
  std::set<std::uint64_t> values;
  for (int i = 0; i < 32; ++i) {
    values.insert(a.next());
    values.insert(b.next());
  }
  EXPECT_EQ(values.size(), 64u);  // no collisions between streams
}

TEST(Image, SyntheticIsDeterministicPerSeed) {
  const Image a = synthetic_image(64, 64, 5);
  const Image b = synthetic_image(64, 64, 5);
  const Image c = synthetic_image(64, 64, 6);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Image, SyntheticHasDynamicRange) {
  const Image img = synthetic_image(128, 128, 1);
  std::uint8_t lo = 255, hi = 0;
  for (const auto p : img.pixels()) {
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  EXPECT_LT(lo, 40);
  EXPECT_GT(hi, 180);
}

TEST(Image, PgmRoundTrip) {
  const Image img = synthetic_image(48, 32, 3);
  const std::string path = "/tmp/sigrt_test_roundtrip.pgm";
  ASSERT_TRUE(write_pgm(img, path));
  const Image back = read_pgm(path);
  EXPECT_EQ(img, back);
  std::filesystem::remove(path);
}

TEST(Image, ReadMissingFileGivesEmpty) {
  EXPECT_TRUE(read_pgm("/tmp/definitely_missing_sigrt.pgm").empty());
}

TEST(Image, BlitQuadrantCopiesOnlyThatQuadrant) {
  Image dst(64, 64, 0);
  Image src(64, 64, 200);
  blit_quadrant(dst, src, 1, 0);  // upper right
  EXPECT_EQ(dst.at(40, 10), 200);
  EXPECT_EQ(dst.at(10, 10), 0);
  EXPECT_EQ(dst.at(40, 40), 0);
}

TEST(Timer, StopwatchAccumulates) {
  Stopwatch sw;
  sw.start();
  volatile double x = 1.0;
  for (int i = 0; i < 100000; ++i) x = x * 1.0000001;
  sw.stop();
  EXPECT_GT(sw.elapsed_ns(), 0);
  const auto first = sw.elapsed_ns();
  sw.start();
  for (int i = 0; i < 100000; ++i) x = x * 1.0000001;
  sw.stop();
  EXPECT_GT(sw.elapsed_ns(), first);
}

TEST(Timer, ScopedTimerAddsToSink) {
  std::int64_t sink = 0;
  {
    ScopedTimer t(sink);
    volatile double x = 1.0;
    for (int i = 0; i < 50000; ++i) x = x * 1.0000001;
  }
  EXPECT_GT(sink, 0);
}

TEST(Timer, CycleClockCalibratesOverTheProcessLifetime) {
  // The calibration anchor is taken at static initialization, so the first
  // to_ns() of a process already converts at a ratio measured over its
  // whole life — not over the near-empty window since that first call.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::uint64_t c0 = CycleClock::now();
  const std::int64_t t0 = now_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::uint64_t c1 = CycleClock::now();
  const std::int64_t t1 = now_ns();
  const auto wall = static_cast<double>(t1 - t0);
  const auto converted = static_cast<double>(CycleClock::to_ns(c1 - c0));
  EXPECT_NEAR(converted, wall, 0.1 * wall);
}

TEST(Table, RendersAlignedColumnsAndCsv) {
  Table t({"app", "time", "energy"});
  t.row().cell("sobel").cell(1.25, 2).cell(std::size_t{42});
  t.row().cell("dct").cell(0.5, 2).cell(std::size_t{7});
  const std::string s = t.str();
  EXPECT_NE(s.find("sobel"), std::string::npos);
  EXPECT_NE(s.find("1.25"), std::string::npos);
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("sobel,1.25,42"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Histogram, BucketBoundariesAreConsistentAndContiguous) {
  // Identity range: exact buckets.
  for (std::uint64_t v : {0ull, 1ull, 17ull, 31ull}) {
    const std::size_t i = Histogram::bucket_index(v);
    EXPECT_EQ(Histogram::bucket_lower(i), v);
    EXPECT_EQ(Histogram::bucket_upper(i), v);
  }
  // Every probed value sits inside its bucket's [lower, upper] range, and
  // upper+1 starts the next bucket (contiguous, no gaps or overlaps).
  for (std::uint64_t v :
       {32ull, 33ull, 63ull, 64ull, 100ull, 1023ull, 1024ull, 123456789ull,
        (1ull << 40) + 12345ull, (1ull << 62) + 7ull}) {
    const std::size_t i = Histogram::bucket_index(v);
    EXPECT_LE(Histogram::bucket_lower(i), v);
    EXPECT_GE(Histogram::bucket_upper(i), v);
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_lower(i)), i);
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_upper(i)), i);
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_upper(i) + 1), i + 1);
    // Log-bucketing invariant: relative width bounded by 1/kSubBuckets.
    const double width = static_cast<double>(Histogram::bucket_upper(i) -
                                             Histogram::bucket_lower(i) + 1);
    EXPECT_LE(width, static_cast<double>(Histogram::bucket_lower(i)) /
                             Histogram::kSubBuckets +
                         1.0);
  }
}

TEST(Histogram, QuantilesMatchASortedOracleWithinBucketError) {
  Xoshiro256 rng(23);
  Histogram h;
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 5000; ++i) {
    // Log-normal-ish latencies spanning ~4 decades, like real service times.
    const auto v =
        static_cast<std::uint64_t>(std::exp(rng.normal() * 1.5 + 10.0));
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const auto oracle = static_cast<double>(values[rank - 1]);
    const double est = h.quantile(q);
    // quantile() reports the containing bucket's upper bound: never below
    // the exact order statistic, at most one bucket width above it.
    EXPECT_GE(est, oracle);
    EXPECT_LE(est, oracle * (1.0 + 1.0 / Histogram::kSubBuckets) + 1.0);
  }
  EXPECT_EQ(h.count(), values.size());
  EXPECT_LE(static_cast<double>(h.min()), static_cast<double>(values.front()));
  EXPECT_GE(static_cast<double>(h.max()), static_cast<double>(values.back()));
}

TEST(Histogram, MergeEqualsRecordingTheConcatenation) {
  Xoshiro256 rng(29);
  Histogram a, b, both;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.bounded(1'000'000);
    if (i % 2 == 0) {
      a.record(v);
    } else {
      b.record(v);
    }
    both.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  for (const double q : {0.1, 0.5, 0.99}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), both.quantile(q));
  }
  EXPECT_DOUBLE_EQ(a.mean(), both.mean());
}

TEST(Histogram, SubtractYieldsTheWindowBetweenSnapshots) {
  Xoshiro256 rng(31);
  Histogram cumulative, window_only;
  for (int i = 0; i < 1000; ++i) cumulative.record(rng.bounded(4096));
  const Histogram snapshot = cumulative;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = 4096 + rng.bounded(1 << 20);
    cumulative.record(v);
    window_only.record(v);
  }
  Histogram window = cumulative;
  window.subtract(snapshot);
  EXPECT_EQ(window.count(), window_only.count());
  for (const double q : {0.5, 0.99}) {
    EXPECT_DOUBLE_EQ(window.quantile(q), window_only.quantile(q));
  }
  // Subtracting a *larger* snapshot (a concurrent reset) clamps to empty
  // instead of underflowing.
  Histogram clamped = snapshot;
  clamped.subtract(cumulative);
  EXPECT_EQ(clamped.count(), 0u);
}

TEST(ShardedHistogram, ConcurrentRecordsAllLand) {
  ShardedHistogram sh(4);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sh, t] {
      for (int i = 0; i < kPerThread; ++i) {
        sh.record(static_cast<std::uint64_t>(t) * 1000 + 1);
      }
    });
  }
  for (auto& th : threads) th.join();
  const Histogram merged = sh.merged();
  EXPECT_EQ(merged.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  sh.reset();
  EXPECT_EQ(sh.merged().count(), 0u);
}

TEST(Table, FormattersPickSensibleUnits) {
  EXPECT_EQ(format_seconds(0.0000005), "0.5 us");
  EXPECT_EQ(format_seconds(0.25), "250.00 ms");
  EXPECT_EQ(format_seconds(3.5), "3.500 s");
  EXPECT_EQ(format_joules(0.5), "500.0 mJ");
  EXPECT_EQ(format_joules(12.0), "12.00 J");
  EXPECT_EQ(format_joules(2500.0), "2.500 kJ");
}

}  // namespace
