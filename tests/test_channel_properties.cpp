// Parameterised timing properties: the channel's constraints must hold
// for ANY self-consistent device parameters, not just the two shipped
// presets.  Each trial varies the device, drives a canonical command
// pattern, and checks constraint-derived invariants.
#include <gtest/gtest.h>

#include <vector>

#include "check/protocol_checker.hpp"
#include "common/rng.hpp"
#include "dram/channel.hpp"
#include "dram/params.hpp"

namespace latdiv {
namespace {

struct Device {
  const char* name;
  DramParams params;
};

std::vector<Device> devices() {
  DramParams g = gddr5_params();
  g.refresh_enabled = false;
  DramParams d = ddr3_1600_params();
  d.refresh_enabled = false;
  DramParams slow = g;  // a deliberately sluggish hypothetical part
  slow.trcd_ns *= 2.0;
  slow.trp_ns *= 2.0;
  slow.tras_ns *= 1.5;
  slow.trc_ns = slow.tras_ns + slow.trp_ns;
  DramParams fast = g;  // near-degenerate fast part
  fast.trrd_ns = 1.0;
  fast.tfaw_ns = 4.0;
  return {{"gddr5", g}, {"ddr3", d}, {"slow", slow}, {"fast", fast}};
}

class DeviceProperty : public ::testing::TestWithParam<std::size_t> {
 protected:
  Device device() const { return devices()[GetParam()]; }
};

INSTANTIATE_TEST_SUITE_P(Devices, DeviceProperty,
                         ::testing::Values(0u, 1u, 2u, 3u),
                         [](const auto& info) {
                           return std::string(devices()[info.param].name);
                         });

Cycle first_legal(Channel& ch, const DramCommand& cmd, Cycle from) {
  Cycle c = from;
  while (!ch.can_issue(cmd, c)) {
    ++c;
    EXPECT_LT(c, from + 1'000'000) << "never became legal";
  }
  return c;
}

TEST_P(DeviceProperty, ActToReadIsExactlyTrcd) {
  const DramTiming t = DramTiming::from(device().params);
  Channel ch(t);
  ch.issue({DramCmd::kActivate, 0, 1}, 1);
  EXPECT_EQ(first_legal(ch, {DramCmd::kRead, 0, 1}, 1), 1 + t.trcd);
}

TEST_P(DeviceProperty, ActToPreIsExactlyTras) {
  const DramTiming t = DramTiming::from(device().params);
  Channel ch(t);
  ch.issue({DramCmd::kActivate, 0, 1}, 1);
  EXPECT_EQ(first_legal(ch, {DramCmd::kPrecharge, 0, kNoRow}, 1), 1 + t.tras);
}

TEST_P(DeviceProperty, RowCycleIsExactlyTrc) {
  const DramTiming t = DramTiming::from(device().params);
  Channel ch(t);
  ch.issue({DramCmd::kActivate, 0, 1}, 1);
  const Cycle pre = first_legal(ch, {DramCmd::kPrecharge, 0, kNoRow}, 1);
  ch.issue({DramCmd::kPrecharge, 0, kNoRow}, pre);
  const Cycle act2 = first_legal(ch, {DramCmd::kActivate, 0, 2}, pre);
  EXPECT_EQ(act2, std::max(1 + t.trc, pre + t.trp));
}

TEST_P(DeviceProperty, BackToBackReadsRespectCcd) {
  const DramTiming t = DramTiming::from(device().params);
  Channel ch(t);
  ch.issue({DramCmd::kActivate, 0, 1}, 1);
  const Cycle rd1 = first_legal(ch, {DramCmd::kRead, 0, 1}, 1);
  ch.issue({DramCmd::kRead, 0, 1}, rd1);
  const Cycle rd2 = first_legal(ch, {DramCmd::kRead, 0, 1}, rd1 + 1);
  EXPECT_EQ(rd2, rd1 + t.tccdl);
}

TEST_P(DeviceProperty, FourActWindowHolds) {
  const DramTiming t = DramTiming::from(device().params);
  if (t.banks < 5) GTEST_SKIP() << "needs 5 banks";
  Channel ch(t);
  Cycle c = 1;
  Cycle first_act = 0;
  for (BankId b = 0; b < 4; ++b) {
    c = first_legal(ch, {DramCmd::kActivate, b, 1}, c);
    if (b == 0) first_act = c;
    ch.issue({DramCmd::kActivate, b, 1}, c);
    ++c;
  }
  const Cycle fifth = first_legal(ch, {DramCmd::kActivate, 4, 1}, c);
  EXPECT_GE(fifth, first_act + t.tfaw);
}

TEST_P(DeviceProperty, WriteReadTurnaroundBothWays) {
  const DramTiming t = DramTiming::from(device().params);
  Channel ch(t);
  ch.issue({DramCmd::kActivate, 0, 1}, 1);
  const Cycle wr = first_legal(ch, {DramCmd::kWrite, 0, 1}, 1);
  ch.issue({DramCmd::kWrite, 0, 1}, wr);
  EXPECT_EQ(first_legal(ch, {DramCmd::kRead, 0, 1}, wr + 1),
            wr + t.write_to_read());
}

TEST_P(DeviceProperty, RandomLegalStreamNeverOverlapsDataBus) {
  const DramTiming t = DramTiming::from(device().params);
  Channel ch(t);
  Rng rng(GetParam() + 100);
  Cycle now = 0;
  for (int step = 0; step < 30000; ++step) {
    ++now;
    DramCommand cmd;
    cmd.bank = static_cast<BankId>(rng.below(t.banks));
    switch (rng.below(4)) {
      case 0:
        cmd.cmd = DramCmd::kActivate;
        cmd.row = static_cast<RowId>(rng.below(32));
        break;
      case 1:
        cmd.cmd = DramCmd::kPrecharge;
        break;
      default:
        cmd.cmd = rng.chance(0.6) ? DramCmd::kRead : DramCmd::kWrite;
        cmd.row = ch.open_row(cmd.bank);
        if (cmd.row == kNoRow) continue;
    }
    // issue() itself asserts data-bus integrity and timing legality.
    if (ch.can_issue(cmd, now)) ch.issue(cmd, now);
  }
  EXPECT_LE(ch.stats().data_bus_busy_cycles, now);
}

TEST_P(DeviceProperty, ThroughputCeilingRespectsBurstLength) {
  // Stream row hits flat out on one bank: the achieved CAS rate can never
  // beat one per tCCDL.
  const DramTiming t = DramTiming::from(device().params);
  Channel ch(t);
  ch.issue({DramCmd::kActivate, 0, 1}, 1);
  Cycle now = 1 + t.trcd;
  const Cycle start = now;
  std::uint64_t reads = 0;
  while (now < start + 3000) {
    if (ch.can_issue({DramCmd::kRead, 0, 1}, now)) {
      ch.issue({DramCmd::kRead, 0, 1}, now);
      ++reads;
    }
    ++now;
  }
  EXPECT_LE(reads, 3000 / t.tccdl + 1);
  EXPECT_GE(reads, 3000 / t.tccdl - 1);
}

// Channel::earliest is the single definition of command legality
// (can_issue is earliest == now).  Along a random legal command stream,
// for every bank's ACT, PRE and CAS candidates (plus REF) at every cycle:
// the command is illegal at each cycle strictly before `earliest`, legal
// at `earliest` when nothing issues in between (can_issue is pure, so
// probing ahead on the current state is exactly that), and `earliest` is
// kNoCycle exactly when the row state forbids the command.  The stream
// issues commands at their first legal cycle, and the protocol checker —
// which shares no code with the channel — shadow-verifies every one, so a
// constraint missing from `earliest` itself is caught too.
TEST_P(DeviceProperty, EarliestIsTheFirstLegalCycle) {
  const DramTiming t = DramTiming::from(device().params);
  Channel ch(t);
  ProtocolChecker shadow(t, /*abort_on_violation=*/false);
  ch.add_command_observer(
      [&shadow](const DramCommand& cmd, Cycle at) { shadow.on_command(cmd, at); });
  Rng rng(GetParam() + 300);
  std::uint64_t finite = 0;
  std::uint64_t forbidden = 0;

  auto check = [&](const DramCommand& cmd, Cycle now, bool row_forbids) {
    const Cycle at = ch.earliest(cmd, now);
    ASSERT_EQ(at == kNoCycle, row_forbids)
        << "cmd " << static_cast<int>(cmd.cmd) << " bank "
        << static_cast<int>(cmd.bank) << " at " << now;
    if (at == kNoCycle) {
      ++forbidden;
      for (Cycle c = now; c < now + 64; ++c) ASSERT_FALSE(ch.can_issue(cmd, c));
      return;
    }
    ++finite;
    ASSERT_GE(at, now);
    for (Cycle c = now; c < at; ++c) {
      ASSERT_FALSE(ch.can_issue(cmd, c)) << "legal before earliest";
    }
    ASSERT_TRUE(ch.can_issue(cmd, at)) << "illegal at earliest";
  };

  for (Cycle now = 1; now < 2'000; ++now) {
    bool all_closed = true;
    for (BankId b = 0; b < t.banks; ++b) {
      const RowId open = ch.open_row(b);
      const bool closed = open == kNoRow;
      all_closed = all_closed && closed;
      const RowId other = closed ? 5 : open + 1;
      check({DramCmd::kActivate, b, 5}, now, !closed);
      check({DramCmd::kPrecharge, b, kNoRow}, now, closed);
      check({DramCmd::kRead, b, open}, now, closed);
      check({DramCmd::kWrite, b, open}, now, closed);
      check({DramCmd::kRead, b, other}, now, true);
      if (::testing::Test::HasFatalFailure()) return;
    }
    check({DramCmd::kRefresh, 0, kNoRow}, now, !all_closed);
    if (::testing::Test::HasFatalFailure()) return;

    // Advance the stream: try one state-appropriate command most cycles.
    if (!rng.chance(0.7)) continue;
    DramCommand cmd;
    cmd.bank = static_cast<BankId>(rng.below(t.banks));
    const RowId open = ch.open_row(cmd.bank);
    if (all_closed && rng.chance(0.05)) {
      cmd = {DramCmd::kRefresh, 0, kNoRow};
    } else if (open == kNoRow) {
      cmd.cmd = DramCmd::kActivate;
      cmd.row = static_cast<RowId>(rng.below(32));
    } else if (rng.chance(0.25)) {
      cmd.cmd = DramCmd::kPrecharge;
    } else {
      cmd.cmd = rng.chance(0.6) ? DramCmd::kRead : DramCmd::kWrite;
      cmd.row = open;
    }
    if (ch.can_issue(cmd, now)) ch.issue(cmd, now);
  }
  EXPECT_TRUE(shadow.clean()) << shadow.violations().front().rule;
  // The stream exercised both outcomes and kept commands flowing.
  EXPECT_GT(finite, 10'000u);
  EXPECT_GT(forbidden, 10'000u);
  EXPECT_GT(ch.stats().activates, 50u);
  EXPECT_GT(ch.stats().reads + ch.stats().writes, 50u);
}

}  // namespace
}  // namespace latdiv
