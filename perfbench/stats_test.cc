// Tests for the benchmark's own arithmetic (stats.h).
#include "stats.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenRanks) {
  // Unsorted on purpose: Percentile must not assume order.
  const std::vector<double> v = {40, 10, 30, 20};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0).value, 10);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0).value, 40);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5).value, 25);          // between 20 and 30
  EXPECT_DOUBLE_EQ(Percentile(v, 0.25).value, 17.5);       // pos 0.75
  EXPECT_EQ(Percentile(v, 0.5).count, 4u);
}

TEST(Percentile, CarriesSampleCount) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Quantile p99 = Percentile(v, 0.99);
  EXPECT_EQ(p99.count, 1000u);
  EXPECT_NEAR(p99.value, 990.01, 1e-9);  // pos 989.01 → 990 + 0.01
  EXPECT_EQ(SamplesBeyond(p99.count, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);  // too few for a p99 claim
  EXPECT_EQ(SamplesBeyond(0, 0.99), 0u);
}

TEST(Percentile, EmptyAndSingle) {
  EXPECT_EQ(Percentile({}, 0.5).count, 0u);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5).value, 0);
  EXPECT_DOUBLE_EQ(Percentile({7}, 0.99).value, 7);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
}

TEST(SelfTime, SubtractsCoveredChildInterval) {
  const Span parent{"p", 2, 0, 1, 100, 200};
  // No children: all self.
  EXPECT_EQ(SelfTimeNs(parent, {}), 100);
  // One child inside.
  EXPECT_EQ(SelfTimeNs(parent, {{"c", 3, 2, 1, 120, 150}}), 70);
  // Overlapping children count their union once.
  EXPECT_EQ(SelfTimeNs(parent, {{"c", 3, 2, 1, 120, 150},
                                {"c", 5, 2, 1, 140, 170}}),
            50);
  // A child sticking out of the parent only removes the covered part.
  EXPECT_EQ(SelfTimeNs(parent, {{"c", 3, 2, 1, 50, 130},
                                {"c", 5, 2, 1, 190, 260}}),
            60);
  // A child nested inside another removes nothing extra.
  EXPECT_EQ(SelfTimeNs(parent, {{"c", 3, 2, 1, 110, 190},
                                {"c", 5, 2, 1, 120, 130}}),
            20);
  // A child wholly outside removes nothing.
  EXPECT_EQ(SelfTimeNs(parent, {{"c", 3, 2, 1, 300, 400}}), 100);
}

TEST(Ratios, PerRequestAndErrorRate) {
  EXPECT_DOUBLE_EQ(PerRequest(300, 100), 3.0);
  EXPECT_DOUBLE_EQ(PerRequest(5, 0), 0.0);  // no base → absent, not inf
  EXPECT_DOUBLE_EQ(ErrorRate(0, 1000), 0.0);
  EXPECT_DOUBLE_EQ(ErrorRate(5, 1000), 0.005);
  EXPECT_DOUBLE_EQ(ErrorRate(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(ErrorRate(0, 0), 0.0);
}

TEST(RoundsToReport, DropsRoundsWithStealWhileHalfRemain) {
  using V = std::vector<size_t>;
  EXPECT_EQ(RoundsToReport({0, 0.01, 0.005, 0}, 0.02), (V{0, 1, 2, 3}));
  EXPECT_EQ(RoundsToReport({0, 0.3, 0.01, 0.05, 0}, 0.02), (V{0, 2, 4}));
  // Fewer than half below the limit: the least-stolen half, in round order.
  EXPECT_EQ(RoundsToReport({0.2, 0.1, 0.3, 0.05, 0.01}, 0.02), (V{1, 3, 4}));
  EXPECT_EQ(RoundsToReport({0.1, 0.1, 0.1, 0.1}, 0.02), (V{0, 1}));
  EXPECT_EQ(RoundsToReport({}, 0.02), V{});
}

}  // namespace
}  // namespace perfbench
