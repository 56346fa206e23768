#include "cache/cache.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace latdiv {
namespace {

CacheConfig tiny() { return CacheConfig{1024, 2}; }  // 4 sets x 2 ways

TEST(Cache, MissThenHit) {
  Cache c(tiny());
  EXPECT_FALSE(c.touch(0x1000));
  c.fill(0x1000);
  EXPECT_TRUE(c.touch(0x1000));
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, SameLineDifferentOffsetsHit) {
  Cache c(tiny());
  c.fill(0x1000);
  EXPECT_TRUE(c.touch(0x1000 + 127));
  EXPECT_FALSE(c.touch(0x1000 + 128));
}

TEST(Cache, ProbeHasNoSideEffects) {
  Cache c(tiny());
  c.fill(0x1000);
  EXPECT_TRUE(c.probe(0x1000));
  EXPECT_FALSE(c.probe(0x2000));
  EXPECT_EQ(c.stats().hits, 0u);
  EXPECT_EQ(c.stats().misses, 0u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  Cache c(tiny());  // 2 ways per set; lines 0x0, 0x200, 0x400 share set 0
  c.fill(0x0000);
  c.fill(0x0200);
  c.touch(0x0000);  // 0x200 becomes LRU
  c.fill(0x0400);   // evicts 0x200
  EXPECT_TRUE(c.probe(0x0000));
  EXPECT_FALSE(c.probe(0x0200));
  EXPECT_TRUE(c.probe(0x0400));
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(Cache, DirtyEvictionReturnsVictimAddress) {
  Cache c(tiny());
  c.fill(0x0000, /*dirty=*/true);
  c.fill(0x0200);
  const auto wb = c.fill(0x0400);  // evicts dirty 0x0000
  ASSERT_TRUE(wb.has_value());
  EXPECT_EQ(*wb, 0x0000u);
  EXPECT_EQ(c.stats().dirty_evictions, 1u);
}

TEST(Cache, CleanEvictionReturnsNothing) {
  Cache c(tiny());
  c.fill(0x0000);
  c.fill(0x0200);
  EXPECT_FALSE(c.fill(0x0400).has_value());
}

TEST(Cache, VictimAddressReconstructionExact) {
  // Use a distinctive high address and verify the reconstructed
  // writeback address matches the original line base.
  Cache c(tiny());
  const Addr line = 0xDEADBE00 & ~Addr{127};
  c.fill(line, true);
  // Two more fills into the same set to force the eviction.
  const Addr set_stride = 4 * 128;  // 4 sets
  const Addr a = line + set_stride * 4;
  const Addr b = line + set_stride * 8;
  c.fill(a, false);
  const auto wb = c.fill(b, false);
  ASSERT_TRUE(wb.has_value());
  EXPECT_EQ(*wb, line);
}

TEST(Cache, RefillOfPresentLineMergesDirty) {
  Cache c(tiny());
  c.fill(0x1000, false);
  EXPECT_FALSE(c.fill(0x1000, true).has_value());  // merge, no eviction
  // Fill the second way, then force the eviction of 0x1000 and observe
  // that the merged dirtiness produces a writeback.
  const Addr set_stride = 4 * 128;
  c.fill(0x1000 + set_stride * 4);
  const auto wb = c.fill(0x1000 + set_stride * 8);
  ASSERT_TRUE(wb.has_value());
  EXPECT_EQ(*wb, 0x1000u);
}

TEST(Cache, MarkDirtyCausesWriteback) {
  Cache c(tiny());
  c.fill(0x1000);
  c.mark_dirty(0x1000);
  const Addr set_stride = 4 * 128;
  c.fill(0x1000 + set_stride * 4);
  const auto wb = c.fill(0x1000 + set_stride * 8);
  ASSERT_TRUE(wb.has_value());
  EXPECT_EQ(*wb, 0x1000u);
}

TEST(Cache, InvalidateRemovesLine) {
  Cache c(tiny());
  c.fill(0x1000, true);
  EXPECT_TRUE(c.invalidate(0x1000));
  EXPECT_FALSE(c.probe(0x1000));
  EXPECT_FALSE(c.invalidate(0x1000));
}

TEST(Cache, HitRateComputation) {
  Cache c(tiny());
  c.fill(0x0);
  c.touch(0x0);
  c.touch(0x0);
  c.touch(0x80000);
  EXPECT_NEAR(c.stats().hit_rate(), 2.0 / 3.0, 1e-12);
}

TEST(Cache, SetCountMatchesGeometry) {
  Cache c(CacheConfig{128 * 1024, 16});  // the paper's L2 slice
  EXPECT_EQ(c.sets(), 64u);
}

TEST(Cache, StressManyFillsStayConsistent) {
  Cache c(CacheConfig{32 * 1024, 8});  // the paper's L1
  Rng rng(9);
  for (int i = 0; i < 50000; ++i) {
    const Addr addr = (rng.next() & 0xFFFFF) & ~Addr{127};
    if (!c.touch(addr)) c.fill(addr, rng.chance(0.3));
  }
  // Capacity invariant: hits+misses == touches.
  EXPECT_EQ(c.stats().hits + c.stats().misses, 50000u);
}

// warm(line, n) is the one-scan form of n touches with a clean fill after
// a miss.  Seeded random line runs over a small, heavily shared line pool
// (so sets overflow and LRU picks victims), with invalidates punching
// holes mid-set: after every step the two caches agree on the first
// access's outcome and are equal way by way (tags, LRU clocks, stats).
TEST(Cache, WarmMatchesTouchThenFill) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Cache ref(CacheConfig{2048, 4});  // 4 sets x 4 ways
    Cache dut(CacheConfig{2048, 4});
    Rng rng(seed);
    for (int step = 0; step < 2000; ++step) {
      const Addr line = rng.below(24) * 128;  // 6 lines per set
      if (rng.chance(0.1)) {
        EXPECT_EQ(ref.invalidate(line), dut.invalidate(line));
        continue;
      }
      const auto n = static_cast<std::uint32_t>(1 + rng.below(4));
      bool first_hit = false;
      for (std::uint32_t k = 0; k < n; ++k) {
        const bool hit = ref.touch(line);
        if (!hit) ref.fill(line);
        if (k == 0) first_hit = hit;
      }
      ASSERT_EQ(dut.warm(line + rng.below(128), n), first_hit)
          << "seed " << seed << " step " << step;
      ASSERT_TRUE(dut == ref) << "seed " << seed << " step " << step;
    }
    EXPECT_GT(ref.stats().evictions, 0u);
  }
}

TEST(CacheDeath, MarkDirtyAbsentAborts) {
  Cache c(tiny());
  EXPECT_DEATH(c.mark_dirty(0x5000), "absent");
}

}  // namespace
}  // namespace latdiv
