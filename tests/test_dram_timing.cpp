#include "dram/params.hpp"

#include <gtest/gtest.h>

namespace latdiv {
namespace {

TEST(DramTiming, PaperTableIIConversions) {
  // tCK = 0.667 ns; every ns parameter rounds UP to whole command cycles.
  const DramTiming t = DramTiming::from(DramParams{});
  EXPECT_EQ(t.trc, 60u);    // 40 / 0.667 = 59.97
  EXPECT_EQ(t.trcd, 18u);   // 12 / 0.667 = 17.99
  EXPECT_EQ(t.trp, 18u);
  EXPECT_EQ(t.tcas, 18u);
  EXPECT_EQ(t.tras, 42u);   // 28 / 0.667 = 41.98
  EXPECT_EQ(t.trrd, 9u);    // 5.5 / 0.667 = 8.25
  EXPECT_EQ(t.twtr, 8u);    // 5 / 0.667 = 7.50
  EXPECT_EQ(t.tfaw, 35u);   // 23 / 0.667 = 34.48
  EXPECT_EQ(t.trtp, 3u);    // 2 / 0.667 = 3.00
  EXPECT_EQ(t.twl, 4u);
  EXPECT_EQ(t.tburst, 2u);
  EXPECT_EQ(t.trtrs, 1u);
  EXPECT_EQ(t.tccdl, 3u);
  EXPECT_EQ(t.tccds, 2u);
}

TEST(DramTiming, GeometryCarriedThrough) {
  const DramTiming t = DramTiming::from(DramParams{});
  EXPECT_EQ(t.banks, 16u);
  EXPECT_EQ(t.banks_per_group, 4u);
}

TEST(DramTiming, RowMissVsHitLatencyRatioMatchesScorePremise) {
  // The WG score constants (hit=1, miss=3) encode 12ns vs 36ns (§IV-B1).
  const DramTiming t = DramTiming::from(DramParams{});
  const Cycle hit = t.tcas;
  const Cycle miss = t.trp + t.trcd + t.tcas;
  EXPECT_EQ(miss, 3 * hit);
}

TEST(DramTiming, TurnaroundFormulas) {
  const DramTiming t = DramTiming::from(DramParams{});
  EXPECT_EQ(t.read_to_write(), t.tcas + t.tburst + t.trtrs - t.twl);
  EXPECT_EQ(t.write_to_read(), t.twl + t.tburst + t.twtr);
  EXPECT_GT(t.read_to_write(), 0u);
}

TEST(DramTiming, ExactMultiplesDoNotRoundUp) {
  DramParams p;
  p.tck_ns = 1.0;
  p.trcd_ns = 12.0;
  const DramTiming t = DramTiming::from(p);
  EXPECT_EQ(t.trcd, 12u);
}

TEST(DramTiming, RefreshParameters) {
  const DramTiming t = DramTiming::from(DramParams{});
  EXPECT_TRUE(t.refresh_enabled);
  EXPECT_GT(t.trefi, t.trfc);
  // ~1.9us at 0.667ns => ~2849 cycles.
  EXPECT_NEAR(static_cast<double>(t.trefi), 1900.0 / 0.667, 2.0);
}

TEST(DramTiming, DisabledRefreshRespected) {
  DramParams p;
  p.refresh_enabled = false;
  EXPECT_FALSE(DramTiming::from(p).refresh_enabled);
}

// The command scheduler's bank bounds need 2 x tCCDS >= tCCDL (a CAS to
// another group may not lower a bank's CAS-to-CAS bound); both shipped
// devices meet it with equality or better.
TEST(DramTiming, ShippedDevicesCoverTheLongCasGapWithTwoShortOnes) {
  for (const DramParams& p : {gddr5_params(), ddr3_1600_params()}) {
    const DramTiming t = DramTiming::from(p);
    EXPECT_GE(2 * t.tccds, t.tccdl);
  }
}

TEST(DramTimingDeath, LongCasGapBeyondTwoShortOnesAborts) {
  DramParams p;
  p.tccdl_ck = 5;
  p.tccds_ck = 2;
  EXPECT_DEATH((void)DramTiming::from(p), "tCCDL exceeds 2 x tCCDS");
}

}  // namespace
}  // namespace latdiv
