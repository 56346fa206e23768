// System-level integration invariants: conservation, blocking semantics,
// back-pressure liveness and clock-domain flexibility, checked on the
// fully-wired simulator rather than per module.
#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace latdiv {
namespace {

SimConfig base_cfg(const char* workload = "sssp") {
  SimConfig cfg;
  cfg.shrink_for_tests();
  cfg.workload = profile_by_name(workload);
  cfg.scheduler = SchedulerKind::kWgW;
  return cfg;
}

TEST(Integration, DramReadsMatchL2MissTraffic) {
  Simulator sim(base_cfg());
  const RunResult r = sim.run();
  // Every DRAM read is an L2 miss fetch; misses can exceed reads by the
  // MSHR merges and by fetches still in flight at the end.
  std::uint64_t l2_misses = 0;
  std::uint64_t merges = 0;
  for (std::size_t p = 0; p < sim.config().icnt.partitions; ++p) {
    l2_misses += sim.partition(p).l2().stats().misses;
    merges += sim.partition(p).stats().mshr_merges;
  }
  EXPECT_LE(r.dram_reads, l2_misses);
  EXPECT_GE(r.dram_reads + merges + 200 /*in flight at cut-off*/, l2_misses);
}

TEST(Integration, ColumnAccessesMatchServedRequests) {
  Simulator sim(base_cfg());
  const RunResult r = sim.run();
  // Channel-level CAS counts vs controller-level retirement: they differ
  // only by reads whose data burst is still in flight at the cut-off.
  std::uint64_t served = 0;
  for (std::size_t p = 0; p < sim.config().icnt.partitions; ++p) {
    served += sim.partition(p).mc().stats().reads_served +
              sim.partition(p).mc().stats().writes_served;
  }
  EXPECT_LE(served, r.dram_reads + r.dram_writes);
  EXPECT_GE(served + 12 * sim.config().icnt.partitions,
            r.dram_reads + r.dram_writes)
      << "difference must be bounded by in-flight bursts";
}

TEST(Integration, ActivatesImplyColumnWork) {
  const RunResult r = Simulator(base_cfg()).run();
  // Open-page policy: a row is only opened to serve at least one access.
  EXPECT_LE(r.dram_activates, r.dram_reads + r.dram_writes);
}

TEST(Integration, FinalizedLoadsNeverExceedIssued) {
  Simulator sim(base_cfg());
  const RunResult r = sim.run();
  std::uint64_t issued_loads = 0;
  for (std::size_t s = 0; s < sim.config().num_sms; ++s) {
    issued_loads += sim.sm(s).stats().loads;
  }
  EXPECT_LE(r.tracker.loads_finalized, issued_loads);
  // Nearly everything issued early in the run has completed by the end.
  EXPECT_GT(r.tracker.loads_finalized, issued_loads * 8 / 10);
}

TEST(Integration, TinyQueuesStayLive) {
  SimConfig cfg = base_cfg("spmv");
  cfg.mc.read_queue_size = 16;
  cfg.mc.write_queue_size = 16;
  cfg.mc.wq_high_watermark = 8;
  cfg.mc.wq_low_watermark = 4;
  cfg.mc.bank_queue_depth = 2;
  cfg.icnt.sm_queue_depth = 4;
  cfg.icnt.partition_in_depth = 2;
  const RunResult r = Simulator(cfg).run();
  EXPECT_GT(r.instructions, 100u) << "back-pressure must not deadlock";
  EXPECT_GT(r.dram_reads, 50u);
}

TEST(Integration, CoreClockRatioOneAndFourWork) {
  for (std::uint32_t ratio : {1u, 4u}) {
    SimConfig cfg = base_cfg();
    cfg.sm.core_clock_ratio = ratio;
    const RunResult r = Simulator(cfg).run();
    EXPECT_GT(r.instructions, 50u) << "ratio=" << ratio;
    EXPECT_EQ(r.core_cycles, r.dram_cycles / ratio);
  }
}

TEST(Integration, FasterCoreClockMeansMoreMemoryPressure) {
  SimConfig slow = base_cfg("bfs");
  slow.sm.core_clock_ratio = 4;  // core at 1/4 of DRAM clock
  SimConfig fast = base_cfg("bfs");
  fast.sm.core_clock_ratio = 1;  // core at DRAM clock
  const RunResult r_slow = Simulator(slow).run();
  const RunResult r_fast = Simulator(fast).run();
  EXPECT_GT(r_fast.bandwidth_utilization, r_slow.bandwidth_utilization);
}

TEST(Integration, WarpsBlockUntilLastRequest) {
  // With one warp per SM, IPC is bounded by the full memory round trip:
  // the warp cannot run ahead of its own loads.
  SimConfig cfg = base_cfg("spmv");
  cfg.sm.warps = 1;
  cfg.num_sms = 2;
  const RunResult r = Simulator(cfg).run();
  EXPECT_LT(r.ipc, 0.6) << "a single blocked warp cannot sustain IPC";
  EXPECT_GT(r.tracker.loads_finalized, 10u);
}

TEST(Integration, MoreWarpsHideMoreLatency) {
  SimConfig few = base_cfg("bfs");
  few.sm.warps = 2;
  SimConfig many = base_cfg("bfs");
  many.sm.warps = 16;
  const RunResult r_few = Simulator(few).run();
  const RunResult r_many = Simulator(many).run();
  EXPECT_GT(r_many.ipc, 1.5 * r_few.ipc);
}

TEST(Integration, WriteTrafficIsCacheFiltered) {
  Simulator sim(base_cfg("nw"));
  const RunResult r = sim.run();
  // DRAM writes are exclusively L2 dirty evictions: bounded by the
  // partitions' writeback counters.
  std::uint64_t writebacks = 0;
  for (std::size_t p = 0; p < sim.config().icnt.partitions; ++p) {
    writebacks += sim.partition(p).stats().writebacks;
  }
  EXPECT_LE(r.dram_writes, writebacks);
}

TEST(Integration, RefreshStealsThroughputButNothingBreaks) {
  SimConfig with_ref = base_cfg("bfs");
  with_ref.dram.refresh_enabled = true;
  SimConfig without = base_cfg("bfs");
  const RunResult r_ref = Simulator(with_ref).run();
  const RunResult r_no = Simulator(without).run();
  EXPECT_GT(r_ref.instructions, 100u);
  // Refresh costs a few percent at most at GDDR5's tREFI/tRFC ratio.
  EXPECT_GT(r_ref.ipc, 0.85 * r_no.ipc);
}

}  // namespace
}  // namespace latdiv
