#include "common/stats.hpp"

#include <gtest/gtest.h>

namespace latdiv {
namespace {

TEST(Accumulator, EmptyIsZero) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(Accumulator, MeanAndMax) {
  Accumulator a;
  a.add(1.0);
  a.add(2.0);
  a.add(6.0);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  EXPECT_DOUBLE_EQ(a.max(), 6.0);
  EXPECT_DOUBLE_EQ(a.sum(), 9.0);
}

TEST(Accumulator, MergeCombines) {
  Accumulator a;
  Accumulator b;
  a.add(2.0);
  b.add(4.0);
  b.add(12.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 6.0);
  EXPECT_DOUBLE_EQ(a.max(), 12.0);
}

TEST(Histogram, BinningAndOverflow) {
  Histogram h(10.0, 4);  // [0,10) [10,20) [20,30) [30,inf)
  h.add(0.0);
  h.add(9.9);
  h.add(10.0);
  h.add(35.0);
  h.add(1000.0);
  ASSERT_EQ(h.total(), 5u);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 0u);
  EXPECT_EQ(h.counts()[3], 2u);
}

TEST(Histogram, NegativeClampsToFirstBin) {
  Histogram h(1.0, 4);
  h.add(-5.0);
  EXPECT_EQ(h.counts()[0], 1u);
}

TEST(Histogram, QuantileAtBinGranularity) {
  Histogram h(10.0, 10);
  for (int i = 0; i < 90; ++i) h.add(5.0);
  for (int i = 0; i < 10; ++i) h.add(95.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 100.0);
}

TEST(Histogram, QuantileEmptyIsZero) {
  Histogram h(1.0, 4);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(StatsFormat, SafeRatio) {
  EXPECT_DOUBLE_EQ(safe_ratio(6.0, 3.0), 2.0);
  EXPECT_DOUBLE_EQ(safe_ratio(6.0, 0.0), 0.0);
}

TEST(StatsFormat, Fixed) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(2.0, 0), "2");
}

}  // namespace
}  // namespace latdiv
