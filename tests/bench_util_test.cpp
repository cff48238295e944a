// Percentile math and bench-harness timing helpers.
//
// The whole bench suite (tables, JSON artifacts, Histogram summaries) leans
// on one interpolated-rank percentile definition -- percentile_of in
// common/metrics.h -- so this suite pins its behaviour against known
// distributions, including the exact interpolation values the C=1
// convention prescribes.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bench_util.h"
#include "common/metrics.h"

namespace atp {
namespace {

TEST(PercentileTest, KnownUniformDistribution) {
  // 0, 1, ..., 999: percentile q sits exactly at rank q*(n-1) = q*999.
  std::vector<double> sorted(1000);
  for (std::size_t i = 0; i < sorted.size(); ++i) sorted[i] = double(i);

  EXPECT_DOUBLE_EQ(percentile_of(sorted, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile_of(sorted, 1.0), 999.0);
  EXPECT_DOUBLE_EQ(percentile_of(sorted, 0.50), 499.5);
  EXPECT_NEAR(percentile_of(sorted, 0.95), 949.05, 1e-9);
  EXPECT_NEAR(percentile_of(sorted, 0.99), 989.01, 1e-9);
}

TEST(PercentileTest, InterpolatesBetweenRanks) {
  // Ranks land between samples: 4 samples, p50 at rank 1.5.
  const std::vector<double> sorted = {10, 20, 40, 80};
  EXPECT_DOUBLE_EQ(percentile_of(sorted, 0.5), 30.0);
  // p75 at rank 2.25: 40 + 0.25*(80-40).
  EXPECT_DOUBLE_EQ(percentile_of(sorted, 0.75), 50.0);
}

TEST(PercentileTest, EdgeCases) {
  EXPECT_DOUBLE_EQ(percentile_of({}, 0.5), 0.0);  // empty -> 0 by convention
  const std::vector<double> one = {42};
  EXPECT_DOUBLE_EQ(percentile_of(one, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile_of(one, 0.5), 42.0);
  EXPECT_DOUBLE_EQ(percentile_of(one, 1.0), 42.0);
  const std::vector<double> two = {1, 3};
  EXPECT_DOUBLE_EQ(percentile_of(two, 0.5), 2.0);
  // Out-of-range q clamps to the extremes.
  EXPECT_DOUBLE_EQ(percentile_of(two, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(percentile_of(two, 1.5), 3.0);
}

TEST(PercentileTest, BenchHelperSortsItsInput) {
  // bench::percentile takes unsorted samples and must agree with the sorted
  // canonical definition.
  std::vector<double> shuffled = {7, 1, 9, 3, 5, 8, 2, 6, 4, 0};
  std::vector<double> sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(bench::percentile(shuffled, q), percentile_of(sorted, q))
        << "q=" << q;
  }
}

TEST(PercentileTest, HistogramExactBelowReservoirCap) {
  // Below the reservoir capacity the Histogram holds every sample, so its
  // p50/p95/p99 must be bit-identical to percentile_of on the full set.
  Histogram h(4096);
  std::vector<double> samples(1000);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i] = double((i * 37) % 1000);  // a permutation of 0..999
    h.record(samples[i]);
  }
  std::sort(samples.begin(), samples.end());
  const StatSummary s = h.summarize();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.p50, percentile_of(samples, 0.50));
  EXPECT_DOUBLE_EQ(s.p95, percentile_of(samples, 0.95));
  EXPECT_DOUBLE_EQ(s.p99, percentile_of(samples, 0.99));
  EXPECT_NEAR(s.p50, 499.5, 1e-9);
  EXPECT_NEAR(s.p99, 989.01, 1e-9);
}

TEST(BenchClockTest, SteadyClockMonotonic) {
  // bench_now_us is steady_clock-backed: consecutive reads never go back.
  std::int64_t prev = bench::bench_now_us();
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t now = bench::bench_now_us();
    ASSERT_GE(now, prev);
    prev = now;
  }
}

}  // namespace
}  // namespace atp
