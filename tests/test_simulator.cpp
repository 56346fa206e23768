// End-to-end simulator tests: every scheduler runs to completion on a
// shrunken GPU, results are deterministic, and the idealised models bound
// the realistic ones from above.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <stdexcept>
#include <string>

namespace latdiv {
namespace {

SimConfig small_cfg(SchedulerKind sched, const char* workload = "bfs") {
  SimConfig cfg;
  cfg.shrink_for_tests();
  cfg.scheduler = sched;
  cfg.workload = profile_by_name(workload);
  return cfg;
}

class AllSchedulers : public ::testing::TestWithParam<SchedulerKind> {};

INSTANTIATE_TEST_SUITE_P(
    Schedulers, AllSchedulers,
    ::testing::Values(SchedulerKind::kFcfs, SchedulerKind::kFrFcfs,
                      SchedulerKind::kGmc, SchedulerKind::kWafcfs,
                      SchedulerKind::kSbwas, SchedulerKind::kWg,
                      SchedulerKind::kWgM, SchedulerKind::kWgBw,
                      SchedulerKind::kWgW, SchedulerKind::kZld),
    [](const auto& info) {
      std::string n = to_string(info.param);
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST_P(AllSchedulers, RunsAndMakesProgress) {
  Simulator sim(small_cfg(GetParam()));
  const RunResult r = sim.run();
  EXPECT_GT(r.instructions, 100u) << r.scheduler;
  EXPECT_GT(r.ipc, 0.0);
  EXPECT_GT(r.dram_reads, 0u);
  EXPECT_GT(r.bandwidth_utilization, 0.0);
  EXPECT_LE(r.bandwidth_utilization, 1.0);
  EXPECT_GE(r.row_hit_rate, 0.0);
  EXPECT_LE(r.row_hit_rate, 1.0);
}

TEST_P(AllSchedulers, DeterministicAcrossRuns) {
  const RunResult a = Simulator(small_cfg(GetParam())).run();
  const RunResult b = Simulator(small_cfg(GetParam())).run();
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.dram_reads, b.dram_reads);
  EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
  EXPECT_DOUBLE_EQ(a.effective_mem_latency_ns, b.effective_mem_latency_ns);
}

TEST_P(AllSchedulers, TrackedLatenciesAreOrdered) {
  const RunResult r = Simulator(small_cfg(GetParam(), "sssp")).run();
  // last >= first by construction; divergence gap consistent.
  EXPECT_GE(r.tracker.last_req_latency.mean(),
            r.tracker.first_req_latency.mean());
  EXPECT_GE(r.tracker.last_to_first_ratio.mean(), 1.0);
  EXPECT_GE(r.divergence_gap_ns, 0.0);
}

TEST(Simulator, SeedChangesWorkloadButNotValidity) {
  SimConfig cfg = small_cfg(SchedulerKind::kGmc);
  cfg.seed = 7;
  const RunResult a = Simulator(cfg).run();
  cfg.seed = 8;
  const RunResult b = Simulator(cfg).run();
  EXPECT_NE(a.dram_reads, b.dram_reads);
}

TEST(Simulator, PerfectCoalescingBeatsBaselineHandily) {
  SimConfig base = small_cfg(SchedulerKind::kGmc, "spmv");
  SimConfig perfect = base;
  perfect.sm.perfect_coalescing = true;
  const RunResult r_base = Simulator(base).run();
  const RunResult r_perf = Simulator(perfect).run();
  EXPECT_GT(r_perf.ipc, 1.5 * r_base.ipc);
  EXPECT_NEAR(r_perf.requests_per_load, 1.0, 1e-9);
}

TEST(Simulator, ZeroLatencyDivergenceShrinksTheGap) {
  const RunResult gmc =
      Simulator(small_cfg(SchedulerKind::kGmc, "sssp")).run();
  const RunResult zld =
      Simulator(small_cfg(SchedulerKind::kZld, "sssp")).run();
  EXPECT_LT(zld.divergence_gap_ns, 0.7 * gmc.divergence_gap_ns);
  EXPECT_GT(zld.ipc, gmc.ipc);
}

TEST(Simulator, WafcfsUsesStickyInterconnect) {
  Simulator sim(small_cfg(SchedulerKind::kWafcfs));
  // Config plumbed through: sticky arbitration mode.
  EXPECT_EQ(sim.config().scheduler, SchedulerKind::kWafcfs);
  const RunResult r = sim.run();
  EXPECT_GT(r.instructions, 0u);
}

TEST(Simulator, DerivesWhatSimConfigDoesNotCarry) {
  // The address map takes its bank geometry from the DRAM part.
  SimConfig ddr3 = small_cfg(SchedulerKind::kGmc);
  ddr3.dram = ddr3_1600_params();
  const AddressMapConfig d3 = Simulator(ddr3).address_map().config();
  EXPECT_EQ(d3.channels, 6u);
  EXPECT_EQ(d3.banks_per_channel, 8u);
  EXPECT_EQ(d3.banks_per_group, 8u);
  Simulator gmc(small_cfg(SchedulerKind::kGmc));
  const AddressMapConfig& g5 = gmc.address_map().config();
  EXPECT_EQ(g5.channels, 6u);
  EXPECT_EQ(g5.banks_per_channel, 16u);
  EXPECT_EQ(g5.banks_per_group, 4u);

  // Only WAFCFS runs the non-interleaving (sticky) crossbar.
  EXPECT_FALSE(gmc.crossbar().sticky());
  EXPECT_TRUE(Simulator(small_cfg(SchedulerKind::kWafcfs)).crossbar().sticky());

  // Table II MSHRs: 32 per L1, 64 per L2 slice, each merging 8.
  EXPECT_EQ(gmc.sm(0).mshr().config().entries, 32u);
  EXPECT_EQ(gmc.sm(0).mshr().config().max_merged, 8u);
  EXPECT_EQ(gmc.partition(0).l2_mshr().config().entries, 64u);
  EXPECT_EQ(gmc.partition(0).l2_mshr().config().max_merged, 8u);
}

TEST(Simulator, CoordinationOnlyChattersForWgM) {
  const RunResult wg = Simulator(small_cfg(SchedulerKind::kWg, "sssp")).run();
  const RunResult wgm =
      Simulator(small_cfg(SchedulerKind::kWgM, "sssp")).run();
  EXPECT_EQ(wg.coord_messages, 0u);
  EXPECT_GT(wgm.coord_messages, 0u);
}

TEST(Simulator, MerbOnlyActsForWgBw) {
  // MERB deferral needs enough queue pressure that a selected group's
  // row miss finds pending row hits from other warps, so this test runs
  // a fuller machine than the other shrunken-config tests.
  auto cfg = [](SchedulerKind k) {
    SimConfig c = small_cfg(k, "sad");
    c.num_sms = 10;
    c.sm.warps = 16;
    c.max_cycles = 30'000;
    return c;
  };
  const RunResult wgm = Simulator(cfg(SchedulerKind::kWgM)).run();
  const RunResult wgbw = Simulator(cfg(SchedulerKind::kWgBw)).run();
  EXPECT_EQ(wgm.wg_merb_deferrals, 0u);
  EXPECT_GT(wgbw.wg_merb_deferrals, 0u);
}

TEST(Simulator, CoalescingStatsMatchProfileShape) {
  const RunResult r = Simulator(small_cfg(SchedulerKind::kGmc, "spmv")).run();
  // spmv: 70% divergent loads configured; measured within tolerance.
  EXPECT_NEAR(r.divergent_load_frac, 0.70, 0.08);
  EXPECT_GT(r.requests_per_load, 4.0);
}

TEST(Simulator, RegularWorkloadCoalescesWell) {
  const RunResult r =
      Simulator(small_cfg(SchedulerKind::kGmc, "streamcluster")).run();
  EXPECT_LT(r.divergent_load_frac, 0.10);
  EXPECT_LT(r.requests_per_load, 1.5);
  EXPECT_GT(r.row_hit_rate, 0.3) << "streaming should produce row hits";
}

TEST(Simulator, StepAdvancesOneCycle) {
  Simulator sim(small_cfg(SchedulerKind::kGmc));
  EXPECT_EQ(sim.now(), 0u);
  sim.step();
  EXPECT_EQ(sim.now(), 1u);
}

TEST(Simulator, CustomPolicyHookIsUsed) {
  struct EchoFcfs : TransactionScheduler {
    const char* name() const override { return "custom-echo"; }
    void schedule_reads(MemoryController& mc, Cycle now) override {
      auto& rq = mc.read_queue();
      if (rq.empty() || !mc.bank_queue_has_space(rq.front().loc.bank)) return;
      MemRequest req = rq.pop();
      mc.send_to_bank(req, now);
    }
  };
  SimConfig cfg = small_cfg(SchedulerKind::kGmc);
  cfg.custom_policy = [](ChannelId, const DramTiming&) {
    return std::make_unique<EchoFcfs>();
  };
  const RunResult r = Simulator(cfg).run();
  EXPECT_EQ(r.scheduler, "custom-echo");
  EXPECT_GT(r.instructions, 100u);
}

TEST(Simulator, PowerBreakdownPopulated) {
  const RunResult r = Simulator(small_cfg(SchedulerKind::kGmc)).run();
  EXPECT_GT(r.power.total(), 0.0);
  EXPECT_GT(r.power.background, 0.0);
  EXPECT_GT(r.power.io, 0.0);
}

TEST(Simulator, WriteIntensityReflectsWorkload) {
  const RunResult nw = Simulator(small_cfg(SchedulerKind::kGmc, "nw")).run();
  const RunResult spmv =
      Simulator(small_cfg(SchedulerKind::kGmc, "spmv")).run();
  EXPECT_GT(nw.write_intensity, spmv.write_intensity)
      << "nw is the write-heavy benchmark";
}

// SmId and WarpId are 16-bit: geometry beyond 65536 SMs or warps per SM
// would alias ids, so construction refuses it up front (no SM, crossbar
// or partition is built first — a 70000-SM machine would take seconds).
TEST(Simulator, RejectsGeometryTheIdTypesCannotAddress) {
  auto expect_rejected = [](SimConfig cfg, const char* field) {
    try {
      Simulator sim(cfg);
      ADD_FAILURE() << "accepted " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  SimConfig too_many_sms = small_cfg(SchedulerKind::kGmc);
  too_many_sms.num_sms = 70'000;
  expect_rejected(too_many_sms, "num_sms");
  SimConfig too_many_warps = small_cfg(SchedulerKind::kGmc);
  too_many_warps.sm.warps = 65'537;
  expect_rejected(too_many_warps, "sm.warps");
  SimConfig no_warps = small_cfg(SchedulerKind::kGmc);
  no_warps.sm.warps = 0;
  expect_rejected(no_warps, "sm.warps");
}

// Geometry wider than one 64-bit mask word on every event-driven layer:
// 96 warps per SM (SM issue masks) and 72 SMs (crossbar head masks), as
// trace replay can produce.  Checked run (protocol verifier + invariant
// audits); the counters are pinned to the values the full-scan
// implementation produced, under both warp schedulers.
struct WideExpect {
  WarpSchedPolicy sched;
  std::uint64_t instructions, dram_reads, dram_writes, dram_activates;
  std::uint64_t no_ready_warp_cycles, issue_stall_mshr, inject_stalls;
  std::uint64_t drains_started, groups_selected;
  double loads, ipc, effective_mem_latency_ns;
};

void PrintTo(const WideExpect& e, std::ostream* os) {
  *os << (e.sched == WarpSchedPolicy::kGto ? "GTO" : "LRR");
}

class WideGeometry : public ::testing::TestWithParam<WideExpect> {};

TEST_P(WideGeometry, CheckedRunMatchesPinnedCounters) {
  const WideExpect& want = GetParam();
  SimConfig cfg;
  cfg.scheduler = SchedulerKind::kWgW;
  cfg.workload = profile_by_name("PVC");
  cfg.num_sms = 72;
  cfg.sm.warps = 96;
  cfg.sm.warp_sched = want.sched;
  cfg.max_cycles = 6'000;
  cfg.warmup_cycles = 600;
  cfg.seed = 1;
  cfg.check.protocol = true;
  cfg.check.invariants = true;
  cfg.check.abort_on_violation = true;
  Simulator sim(cfg);
  const RunResult r = sim.run();
  EXPECT_EQ(r.instructions, want.instructions);
  EXPECT_EQ(r.dram_reads, want.dram_reads);
  EXPECT_EQ(r.dram_writes, want.dram_writes);
  EXPECT_EQ(r.dram_activates, want.dram_activates);
  EXPECT_EQ(r.sm_no_ready_warp_cycles, want.no_ready_warp_cycles);
  EXPECT_EQ(r.sm_issue_stall_mshr, want.issue_stall_mshr);
  EXPECT_EQ(r.icnt_inject_stalls, want.inject_stalls);
  EXPECT_EQ(r.mc_drains_started, want.drains_started);
  EXPECT_EQ(r.wg_groups_selected, want.groups_selected);
  EXPECT_EQ(r.loads, want.loads);
  EXPECT_EQ(r.ipc, want.ipc);
  EXPECT_EQ(r.effective_mem_latency_ns, want.effective_mem_latency_ns);
  for (std::size_t c = 0; sim.protocol_checker(c) != nullptr; ++c) {
    EXPECT_TRUE(sim.protocol_checker(c)->clean()) << "channel " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sched, WideGeometry,
    ::testing::Values(
        WideExpect{WarpSchedPolicy::kGto, 25954, 3969, 974, 3516, 190046,
                   64384, 147088, 60, 1826, 919, 1.9803703703703703,
                   853.59783502170774},
        WideExpect{WarpSchedPolicy::kLrr, 26596, 3819, 904, 3463, 189404,
                   43124, 168324, 55, 1866, 984, 2.2274074074074073,
                   893.65052878179392}),
    [](const auto& info) {
      return info.param.sched == WarpSchedPolicy::kGto ? "GTO" : "LRR";
    });

}  // namespace
}  // namespace latdiv
