// Integration tests for the controller scaffold: queues, command
// scheduler, write drain, refresh — using the trivial FCFS policy so the
// observed timing is a pure function of the DRAM constraints.
#include "mc/controller.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "dram/params.hpp"
#include "mc/policy_fcfs.hpp"
#include "sim/simulator.hpp"
#include "workload/profile.hpp"

namespace latdiv {
namespace {

DramTiming timing_no_refresh() {
  DramParams p;
  p.refresh_enabled = false;
  return DramTiming::from(p);
}

MemRequest read_to(BankId bank, RowId row, std::uint32_t col = 0,
                   WarpInstrUid uid = 1) {
  MemRequest r;
  r.kind = ReqKind::kRead;
  r.addr = (static_cast<Addr>(row) << 15) | (static_cast<Addr>(col) << 7);
  r.loc.bank = bank;
  r.loc.bank_group = bank / 4;
  r.loc.row = row;
  r.loc.col = col;
  r.tag.instr = uid;
  return r;
}

MemRequest write_to(BankId bank, RowId row, std::uint32_t col = 0) {
  MemRequest r = read_to(bank, row, col, kNoWarpInstr);
  r.kind = ReqKind::kWrite;
  return r;
}

struct Harness {
  explicit Harness(DramTiming t = timing_no_refresh(), McConfig cfg = {})
      : mc(0, cfg, t,
           std::make_unique<FcfsPolicy>(),
           [this](const MemRequest& req, Cycle at) {
             completions.emplace_back(req, at);
           }) {}

  void run_to(Cycle end) {
    for (; now < end; ++now) mc.tick(now);
  }

  Cycle now = 0;
  std::vector<std::pair<MemRequest, Cycle>> completions;
  MemoryController mc;
};

TEST(Controller, SingleReadColdBankTiming) {
  Harness h;
  h.mc.push(read_to(0, 7), 0);
  h.run_to(200);
  ASSERT_EQ(h.completions.size(), 1u);
  const DramTiming t = timing_no_refresh();
  // ACT at cycle 0, RD at tRCD, data complete tCAS+tBURST later.
  EXPECT_EQ(h.completions[0].first.completed, t.trcd + t.tcas + t.tburst);
}

TEST(Controller, RowHitPairUsesCcd) {
  Harness h;
  h.mc.push(read_to(0, 7, 0), 0);
  h.mc.push(read_to(0, 7, 1), 0);
  h.run_to(300);
  ASSERT_EQ(h.completions.size(), 2u);
  const DramTiming t = timing_no_refresh();
  const Cycle first = h.completions[0].first.completed;
  const Cycle second = h.completions[1].first.completed;
  EXPECT_EQ(second - first, t.tccdl);  // same bank group, back-to-back
}

TEST(Controller, RowMissPaysPrechargeActivate) {
  Harness h;
  h.mc.push(read_to(0, 7), 0);
  h.mc.push(read_to(0, 8), 0);
  h.run_to(400);
  ASSERT_EQ(h.completions.size(), 2u);
  const DramTiming t = timing_no_refresh();
  const Cycle gap =
      h.completions[1].first.completed - h.completions[0].first.completed;
  // Second read waits for tRAS (from ACT@0), then tRP + tRCD.
  EXPECT_GE(gap, t.trp + t.trcd);
}

TEST(Controller, BankParallelismOverlapsActivates) {
  Harness h;
  h.mc.push(read_to(0, 7), 0);
  h.mc.push(read_to(4, 7), 0);  // different bank group
  h.run_to(300);
  ASSERT_EQ(h.completions.size(), 2u);
  const DramTiming t = timing_no_refresh();
  const Cycle gap =
      h.completions[1].first.completed - h.completions[0].first.completed;
  // Much closer than a serialised miss (tRP+tRCD): only the staggered
  // ACT (tRRD) and CAS-to-CAS spacing remain.
  EXPECT_LE(gap, t.trrd + t.tccds + 2);
}

TEST(Controller, CompletionCallbackTimestampsMatch) {
  Harness h;
  h.mc.push(read_to(2, 3), 0);
  h.run_to(200);
  ASSERT_EQ(h.completions.size(), 1u);
  EXPECT_EQ(h.completions[0].first.completed, h.completions[0].second);
}

TEST(Controller, ReadStatsAccumulate) {
  Harness h;
  h.mc.push(read_to(0, 1), 0);
  h.mc.push(read_to(1, 1), 0);
  h.run_to(300);
  EXPECT_EQ(h.mc.stats().reads_served, 2u);
  EXPECT_EQ(h.mc.stats().read_service_cycles.count(), 2u);
  EXPECT_GT(h.mc.stats().read_service_cycles.mean(), 0.0);
}

TEST(Controller, HighWatermarkTriggersDrain) {
  Harness h;
  for (std::uint32_t i = 0; i < 32; ++i) {
    h.mc.push(write_to(i % 16, i / 16), 0);
  }
  EXPECT_FALSE(h.mc.in_write_drain());
  h.run_to(5);
  EXPECT_TRUE(h.mc.in_write_drain());
  EXPECT_EQ(h.mc.stats().drains_started, 1u);
  h.run_to(3000);
  // Drained down to (at most) the low watermark, then stopped.
  EXPECT_FALSE(h.mc.in_write_drain());
  EXPECT_GE(h.mc.stats().writes_served, 16u);
  EXPECT_LE(h.mc.write_queue().size(), 16u);
}

TEST(Controller, OpportunisticDrainWhenIdle) {
  Harness h;
  h.mc.push(write_to(0, 1), 0);
  h.mc.push(write_to(0, 1, 1), 0);
  h.run_to(500);
  // Far below the high watermark, but the read side is idle: the writes
  // drain anyway.
  EXPECT_EQ(h.mc.stats().writes_served, 2u);
  EXPECT_EQ(h.mc.stats().drains_started, 0u);  // not a watermark drain
}

TEST(Controller, ReadsResumeAfterDrain) {
  Harness h;
  for (std::uint32_t i = 0; i < 32; ++i) h.mc.push(write_to(i % 16, 1), 0);
  h.run_to(10);
  h.mc.push(read_to(0, 3), 10);
  h.run_to(4000);
  EXPECT_EQ(h.completions.size(), 1u);
}

TEST(Controller, PredictedRowFollowsQueueTail) {
  Harness h;
  EXPECT_EQ(h.mc.predicted_row(0), kNoRow);
  h.mc.push(read_to(0, 7), 0);
  h.run_to(1);  // scheduled into the bank queue
  EXPECT_EQ(h.mc.predicted_row(0), 7u);
}

TEST(Controller, TailStreakCountsPlannedRun) {
  Harness h;
  McConfig cfg;
  for (int i = 0; i < 3; ++i) h.mc.push(read_to(0, 7, i), 0);
  h.run_to(3);  // FCFS feeds one per cycle
  EXPECT_EQ(h.mc.tail_streak(0), 3u);
  (void)cfg;
}

TEST(Controller, BanksWithWorkCountsNonEmptyQueues) {
  Harness h;
  h.mc.push(read_to(0, 1), 0);
  h.mc.push(read_to(5, 1), 0);
  h.run_to(2);
  EXPECT_EQ(h.mc.banks_with_work(), 2u);
}

TEST(Controller, BankQueueBackpressure) {
  Harness h;
  // 10 reads to one bank with queue depth 8: at most 8 enter immediately.
  for (int i = 0; i < 10; ++i) h.mc.push(read_to(0, i), 0);
  h.run_to(8);
  EXPECT_FALSE(h.mc.bank_queue_has_space(0));
  h.run_to(3000);
  EXPECT_EQ(h.completions.size(), 10u);
}

TEST(Controller, RefreshHappensPeriodically) {
  DramParams p;  // refresh enabled
  const DramTiming t = DramTiming::from(p);
  Harness h(t);
  h.run_to(t.trefi * 3 + 100);
  EXPECT_GE(h.mc.channel().stats().refreshes, 2u);
}

TEST(Controller, RefreshInterruptsTraffic) {
  DramParams p;
  const DramTiming t = DramTiming::from(p);
  Harness h(t);
  // Keep a steady stream of row hits flowing across the refresh point.
  for (int i = 0; i < 40; ++i) h.mc.push(read_to(0, 1, i % 16), 0);
  h.run_to(t.trefi + t.trfc + 2000);
  EXPECT_GE(h.mc.channel().stats().refreshes, 1u);
  EXPECT_EQ(h.completions.size(), 40u);  // nothing lost
}

TEST(Controller, GroupCompleteReachesPolicy) {
  struct Probe : TransactionScheduler {
    const char* name() const override { return "probe"; }
    void schedule_reads(MemoryController&, Cycle) override {}
    void on_group_complete(MemoryController&, const WarpTag& tag,
                           Cycle) override {
      seen.push_back(tag.instr);
    }
    std::vector<WarpInstrUid> seen;
  };
  auto probe = std::make_unique<Probe>();
  Probe* raw = probe.get();
  MemoryController mc(0, McConfig{}, timing_no_refresh(), std::move(probe),
                      nullptr);
  mc.notify_group_complete(WarpTag{0, 0, 42}, 5);
  ASSERT_EQ(raw->seen.size(), 1u);
  EXPECT_EQ(raw->seen[0], 42u);
}

TEST(Controller, CoordinationMessagesRouteToPolicy) {
  struct Probe : TransactionScheduler {
    const char* name() const override { return "probe"; }
    void schedule_reads(MemoryController&, Cycle) override {}
    void on_remote_selection(MemoryController&, const CoordMsg& msg,
                             Cycle) override {
      scores.push_back(msg.score);
    }
    std::vector<std::uint32_t> scores;
  };
  auto probe = std::make_unique<Probe>();
  Probe* raw = probe.get();
  MemoryController mc(0, McConfig{}, timing_no_refresh(), std::move(probe),
                      nullptr);
  mc.deliver_coordination(CoordMsg{1, WarpTag{}, 9}, 3);
  ASSERT_EQ(raw->scores.size(), 1u);
  EXPECT_EQ(raw->scores[0], 9u);
}

// ---- command scheduler: no legal bank head waits ----------------------
//
// The scheduler skips banks whose command bound lies ahead and sleeps
// until the smallest bound.  Cross-check it against a recomputation from
// the public API on every cycle of full simulations with refresh on: a
// command issues exactly when some bank head's command is legal.

/// Adversarial timings for the bound resets on the refresh path: a long
/// tRCD with short tRAS/tRC/tRP/tRFC makes refresh close a bank whose CAS
/// bound lies far ahead, after which its ACT is legal almost at once.
DramParams slow_cas_fast_refresh_params() {
  DramParams p = gddr5_params();
  p.trcd_ns = 60.0;
  p.tras_ns = 1.0;
  p.trc_ns = 2.0;
  p.trp_ns = 1.0;
  p.trefi_ns = 300.0;
  p.trfc_ns = 1.0;
  return p;
}

/// The command `bank`'s head needs next, derived from the public API.
DramCommand head_command_of(const MemoryController& mc, BankId bank) {
  const MemRequest& head = mc.bank_queue(bank).front();
  const RowId open = mc.channel().open_row(bank);
  if (open == head.loc.row) {
    return {head.kind == ReqKind::kRead ? DramCmd::kRead : DramCmd::kWrite,
            bank, head.loc.row};
  }
  if (open != kNoRow) return {DramCmd::kPrecharge, bank, kNoRow};
  return {DramCmd::kActivate, bank, head.loc.row};
}

bool some_head_legal(const MemoryController& mc, Cycle now) {
  const auto banks = static_cast<BankId>(mc.channel().timing().banks);
  for (BankId b = 0; b < banks; ++b) {
    if (!mc.bank_queue(b).empty() &&
        mc.channel().can_issue(head_command_of(mc, b), now)) {
      return true;
    }
  }
  return false;
}

std::uint32_t empty_banks(const MemoryController& mc) {
  std::uint32_t mask = 0;
  for (BankId b = 0; b < mc.channel().timing().banks; ++b) {
    if (mc.bank_queue(b).empty()) mask |= 1u << b;
  }
  return mask;
}

using DeviceAndPolicy = std::tuple<std::string, SchedulerKind>;

class CommandScheduler : public ::testing::TestWithParam<DeviceAndPolicy> {};

TEST_P(CommandScheduler, IssuesExactlyWhenABankHeadIsLegal) {
  const auto& [device, sched] = GetParam();
  SimConfig cfg;
  cfg.shrink_for_tests();
  if (device == "DDR3") {
    cfg.dram = ddr3_1600_params();
  } else if (device == "SlowCas") {
    cfg.dram = slow_cas_fast_refresh_params();
  }
  cfg.dram.refresh_enabled = true;  // shrink_for_tests turns it off
  cfg.scheduler = sched;
  cfg.workload = profile_by_name("bfs");
  cfg.max_cycles = 12'000;
  Simulator sim(cfg);

  const std::size_t channels = cfg.icnt.partitions;
  std::vector<Cycle> issued_at(channels, kNoCycle);
  std::vector<BankId> issued_bank(channels, 0);
  for (std::size_t p = 0; p < channels; ++p) {
    sim.partition(p).mc().channel_mut().add_command_observer(
        [&issued_at, &issued_bank, p](const DramCommand& cmd, Cycle now) {
          issued_at[p] = now;
          issued_bank[p] = cmd.bank;
        });
  }

  std::uint64_t refreshes = 0;
  std::uint64_t checked = 0;
  std::uint64_t missed = 0;    // a legal head waited
  std::uint64_t spurious = 0;  // a command issued with no legal head
  std::string first;
  std::vector<bool> refresh_due(channels);
  std::vector<bool> legal(channels);
  std::vector<std::uint32_t> empty(channels);
  while (sim.now() < cfg.max_cycles) {
    const Cycle now = sim.now();
    for (std::size_t p = 0; p < channels; ++p) {
      const MemoryController& mc = sim.partition(p).mc();
      refresh_due[p] = mc.channel().refresh_due(now);
      legal[p] = some_head_legal(mc, now);
      empty[p] = empty_banks(mc);
    }
    sim.step();
    for (std::size_t p = 0; p < channels; ++p) {
      if (refresh_due[p]) {
        ++refreshes;
        continue;
      }
      ++checked;
      const MemoryController& mc = sim.partition(p).mc();
      const bool issued = issued_at[p] == now;
      // A head legal before the tick stays legal through it (the policy
      // only adds requests); a command with none legal must be for a bank
      // the policy just gave its first request.  With nothing issued the
      // channel is unchanged, so every head must still be illegal now.
      const bool miss = (legal[p] && !issued) ||
                        (!issued && some_head_legal(mc, now));
      const bool spur =
          issued && !legal[p] && ((empty[p] >> issued_bank[p]) & 1u) == 0;
      if ((miss || spur) && first.empty()) {
        first = "channel " + std::to_string(p) + " cycle " +
                std::to_string(now) + (miss ? ": a legal head waited"
                                            : ": issued with no legal head");
      }
      missed += miss ? 1 : 0;
      spurious += spur ? 1 : 0;
    }
  }
  EXPECT_EQ(missed, 0u) << first;
  EXPECT_EQ(spurious, 0u) << first;
  EXPECT_GT(refreshes, 0u);  // the refresh path ran
  EXPECT_GT(checked, 0u);
  std::uint64_t commands = 0;
  for (std::size_t p = 0; p < channels; ++p) {
    const ChannelStats& s = sim.partition(p).mc().channel().stats();
    commands += s.activates + s.reads + s.writes;
    EXPECT_GT(s.refreshes, 0u);
  }
  EXPECT_GT(commands, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    DevicesXPolicies, CommandScheduler,
    ::testing::Combine(::testing::Values("GDDR5", "DDR3", "SlowCas"),
                       ::testing::Values(SchedulerKind::kGmc,
                                         SchedulerKind::kFrFcfs,
                                         SchedulerKind::kWgW)),
    [](const ::testing::TestParamInfo<DeviceAndPolicy>& info) {
      const SchedulerKind k = std::get<1>(info.param);
      return std::get<0>(info.param) + "_" +
             (k == SchedulerKind::kGmc      ? "GMC"
              : k == SchedulerKind::kFrFcfs ? "FRFCFS"
                                            : "WGW");
    });

TEST(ControllerDeath, BadWatermarksAbort) {
  McConfig cfg;
  cfg.wq_low_watermark = 40;
  cfg.wq_high_watermark = 32;
  EXPECT_DEATH(MemoryController(0, cfg, timing_no_refresh(),
                                std::make_unique<FcfsPolicy>(), nullptr),
               "watermark");
}

}  // namespace
}  // namespace latdiv
