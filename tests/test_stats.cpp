// Tests for the statistics substrate: Wilson intervals, chi-square, and
// the figure-shape series checks.
#include <gtest/gtest.h>

#include <cmath>

#include "stats/chisq.hpp"
#include "stats/ci.hpp"
#include "stats/series.hpp"

namespace faultstudy::stats {
namespace {

// ---------------------------------------------------------------- wilson

TEST(Wilson, KnownValue) {
  // 12/139 at 95%: classic Wilson interval.
  const auto iv = wilson(12, 139);
  EXPECT_NEAR(iv.point, 12.0 / 139, 1e-12);
  EXPECT_NEAR(iv.lower, 0.050, 0.005);
  EXPECT_NEAR(iv.upper, 0.145, 0.005);
}

TEST(Wilson, ZeroTrials) {
  const auto iv = wilson(0, 0);
  EXPECT_EQ(iv.point, 0.0);
  EXPECT_EQ(iv.lower, 0.0);
  EXPECT_EQ(iv.upper, 0.0);
}

TEST(Wilson, ZeroSuccessesHasPositiveUpper) {
  const auto iv = wilson(0, 20);
  EXPECT_EQ(iv.point, 0.0);
  EXPECT_EQ(iv.lower, 0.0);
  EXPECT_GT(iv.upper, 0.0);
  EXPECT_LT(iv.upper, 0.25);
}

TEST(Wilson, AllSuccessesHasUpperOne) {
  const auto iv = wilson(20, 20);
  EXPECT_EQ(iv.upper, 1.0);
  EXPECT_LT(iv.lower, 1.0);
  EXPECT_GT(iv.lower, 0.75);
}

TEST(Wilson, IntervalShrinksWithN) {
  const auto small = wilson(5, 10);
  const auto large = wilson(500, 1000);
  EXPECT_LT(large.upper - large.lower, small.upper - small.lower);
}

TEST(Wilson, BoundsOrdered) {
  for (std::size_t k : {0u, 1u, 7u, 50u}) {
    const auto iv = wilson(k, 50);
    EXPECT_LE(iv.lower, iv.point);
    EXPECT_LE(iv.point, iv.upper);
  }
}

// -------------------------------------------------------------- chisquare

TEST(ChiSquare, TailKnownQuantiles) {
  // X2(1) upper tail at 3.841 is 0.05; X2(2) at 5.991 is 0.05.
  EXPECT_NEAR(chi_square_tail(3.841, 1), 0.05, 0.001);
  EXPECT_NEAR(chi_square_tail(5.991, 2), 0.05, 0.001);
  EXPECT_NEAR(chi_square_tail(0.0, 3), 1.0, 1e-9);
  EXPECT_LT(chi_square_tail(100.0, 1), 1e-6);
}

TEST(ChiSquare, HomogeneousTableHighP) {
  const auto r = chi_square({{50, 10}, {50, 10}, {50, 10}});
  EXPECT_NEAR(r.statistic, 0.0, 1e-9);
  EXPECT_NEAR(r.p_value, 1.0, 1e-9);
  EXPECT_TRUE(r.reliable);
  EXPECT_EQ(r.dof, 2u);
}

TEST(ChiSquare, HeterogeneousTableLowP) {
  const auto r = chi_square({{90, 10}, {10, 90}});
  EXPECT_GT(r.statistic, 50.0);
  EXPECT_LT(r.p_value, 1e-6);
}

TEST(ChiSquare, DropsEmptyRowsAndColumns) {
  const auto r = chi_square({{10, 0, 10}, {0, 0, 0}, {12, 0, 8}});
  EXPECT_EQ(r.dof, 1u);  // 2x2 after drops
}

TEST(ChiSquare, DegenerateTableUnreliable) {
  const auto r = chi_square({{1, 0}});
  EXPECT_FALSE(r.reliable);
}

TEST(ChiSquare, SmallExpectedCountsFlagged) {
  const auto r = chi_square({{1, 1}, {1, 2}});
  EXPECT_FALSE(r.reliable);
}

// ----------------------------------------------------------------- series

std::vector<SeriesPoint> series_from(std::vector<std::array<std::size_t, 3>> rows) {
  std::vector<SeriesPoint> out;
  int b = 0;
  for (const auto& row : rows) {
    SeriesPoint p;
    p.bucket = b++;
    p.label = "b";
    p.label += std::to_string(p.bucket);
    p.counts.counts = row;
    out.push_back(p);
  }
  return out;
}

TEST(Series, BuildSeriesIncludesEmptyBuckets) {
  std::vector<core::Fault> faults(1);
  faults[0].app = core::AppId::kApache;
  faults[0].bucket = 2;
  const auto series = build_series(faults, core::AppId::kApache,
                                   {"r0", "r1", "r2", "r3"});
  ASSERT_EQ(series.size(), 4u);
  EXPECT_EQ(series[0].counts.total(), 0u);
  EXPECT_EQ(series[2].counts.total(), 1u);
  EXPECT_EQ(series[1].label, "r1");
}

TEST(Series, GrowthFraction) {
  const auto grow = series_from({{1, 0, 0}, {2, 0, 0}, {3, 0, 0}});
  EXPECT_DOUBLE_EQ(growth_fraction(grow, false), 1.0);
  const auto shrink = series_from({{3, 0, 0}, {2, 0, 0}, {1, 0, 0}});
  EXPECT_DOUBLE_EQ(growth_fraction(shrink, false), 0.0);
  const auto tail_drop = series_from({{1, 0, 0}, {2, 0, 0}, {0, 0, 0}});
  EXPECT_DOUBLE_EQ(growth_fraction(tail_drop, true), 1.0);
  EXPECT_DOUBLE_EQ(growth_fraction(tail_drop, false), 0.5);
}

TEST(Series, EiShareDeviation) {
  // Bucket shares 0.5 and 1.0, overall 0.75: max deviation 0.25.
  const auto s = series_from({{2, 2, 0}, {4, 0, 0}});
  EXPECT_NEAR(max_ei_share_deviation(s, 1), 0.25, 1e-9);
  // Tiny buckets skipped.
  const auto noisy = series_from({{2, 2, 0}, {4, 0, 0}, {0, 1, 0}});
  EXPECT_NEAR(max_ei_share_deviation(noisy, 3),
              max_ei_share_deviation(s, 3), 0.2);
}

TEST(Series, InteriorDip) {
  EXPECT_TRUE(has_interior_dip(
      series_from({{3, 0, 0}, {1, 0, 0}, {4, 0, 0}})));
  EXPECT_FALSE(has_interior_dip(
      series_from({{1, 0, 0}, {2, 0, 0}, {3, 0, 0}})));
  EXPECT_FALSE(has_interior_dip(series_from({{1, 0, 0}, {2, 0, 0}})));
}

}  // namespace
}  // namespace faultstudy::stats
