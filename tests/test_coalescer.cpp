#include "gpu/coalescer.hpp"

#include <gtest/gtest.h>

namespace latdiv {
namespace {

WarpInstr load_with(std::initializer_list<Addr> addrs) {
  WarpInstr instr;
  instr.kind = WarpInstr::Kind::kLoad;
  instr.active_lanes = static_cast<std::uint8_t>(addrs.size());
  std::size_t i = 0;
  for (Addr a : addrs) instr.lane_addr[i++] = a;
  return instr;
}

TEST(Coalescer, SingleLineForContiguousLanes) {
  Coalescer c;
  WarpInstr instr;
  instr.kind = WarpInstr::Kind::kLoad;
  instr.active_lanes = 32;
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    instr.lane_addr[lane] = 0x1000 + lane * 4;
  }
  std::vector<Addr> out;
  c.coalesce(instr, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0x1000u);
}

TEST(Coalescer, DistinctLinesPreserveFirstLaneOrder) {
  Coalescer c;
  std::vector<Addr> out;
  c.coalesce(load_with({0x500, 0x100, 0x300, 0x110}), out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 0x500u);  // line of 0x500 (already aligned)
  EXPECT_EQ(out[1], 0x100u);  // line of 0x100 (0x110 merges into it)
  EXPECT_EQ(out[2], 0x300u);  // line of 0x300 (already aligned)
}

TEST(Coalescer, StraddlingLanesDeduplicate) {
  Coalescer c;
  std::vector<Addr> out;
  c.coalesce(load_with({0x80, 0x81, 0xFF, 0x80}), out);
  EXPECT_EQ(out.size(), 1u);
}

TEST(Coalescer, PartialWarpOnlyActiveLanes) {
  Coalescer c;
  WarpInstr instr = load_with({0x0, 0x1000});
  instr.active_lanes = 1;  // second lane inactive
  std::vector<Addr> out;
  c.coalesce(instr, out);
  EXPECT_EQ(out.size(), 1u);
}

TEST(Coalescer, PerfectModeCollapsesToOneRequest) {
  Coalescer c(/*perfect=*/true);
  std::vector<Addr> out;
  c.coalesce(load_with({0x0, 0x1000, 0x2000, 0x3000}), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0x0u);
}

TEST(Coalescer, RecordAccumulatesLoadStats) {
  Coalescer c;
  c.record(WarpInstr::Kind::kLoad, 1);
  c.record(WarpInstr::Kind::kLoad, 5);
  c.record(WarpInstr::Kind::kLoad, 6);
  const CoalescerStats& s = c.stats();
  EXPECT_EQ(s.loads, 3u);
  EXPECT_EQ(s.divergent_loads, 2u);
  EXPECT_DOUBLE_EQ(s.requests_per_load(), 4.0);
  EXPECT_DOUBLE_EQ(s.divergent_frac(), 2.0 / 3.0);
}

TEST(Coalescer, RecordSeparatesStores) {
  Coalescer c;
  c.record(WarpInstr::Kind::kStore, 4);
  EXPECT_EQ(c.stats().loads, 0u);
  EXPECT_EQ(c.stats().stores, 1u);
  EXPECT_EQ(c.stats().store_requests, 4u);
}

TEST(Coalescer, CoalesceAloneDoesNotTouchStats) {
  Coalescer c;
  std::vector<Addr> out;
  c.coalesce(load_with({0x0, 0x1000}), out);
  c.coalesce(load_with({0x0, 0x1000}), out);
  EXPECT_EQ(c.stats().loads, 0u);
}

TEST(CoalescerDeath, ComputeInstructionAborts) {
  Coalescer c;
  WarpInstr instr;
  instr.kind = WarpInstr::Kind::kCompute;
  std::vector<Addr> out;
  EXPECT_DEATH(c.coalesce(instr, out), "compute");
}

}  // namespace
}  // namespace latdiv
