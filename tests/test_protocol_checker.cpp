// The checkers must themselves be checked: a verifier that never fires is
// indistinguishable from a correct design.  The negative-path tests feed
// ProtocolChecker deliberately illegal command sequences and assert each
// rule trips; the positive-path tests replay legal sequences (including
// everything the real Channel emits) and assert silence; the end-to-end
// tests run the full simulator under both checkers for every shipped
// scheduling policy.
#include "check/protocol_checker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "cache/mshr.hpp"
#include "check/invariant_checker.hpp"
#include "dram/channel.hpp"
#include "mc/policy_fcfs.hpp"
#include "sim/simulator.hpp"

namespace latdiv {
namespace {

DramTiming gddr5_timing(bool refresh = false) {
  DramParams p = gddr5_params();
  p.refresh_enabled = refresh;
  return DramTiming::from(p);
}

DramCommand act(BankId bank, RowId row) {
  return {DramCmd::kActivate, bank, row};
}
DramCommand pre(BankId bank) { return {DramCmd::kPrecharge, bank, kNoRow}; }
DramCommand rd(BankId bank, RowId row) { return {DramCmd::kRead, bank, row}; }
DramCommand wr(BankId bank, RowId row) { return {DramCmd::kWrite, bank, row}; }
DramCommand ref() { return {DramCmd::kRefresh, 0, kNoRow}; }

/// True iff some recorded violation matches `rule`.
bool fired(const ProtocolChecker& pc, const std::string& rule) {
  for (const ProtocolViolation& v : pc.violations()) {
    if (v.rule == rule) return true;
  }
  return false;
}

// ---- negative paths: every rule must actually fire --------------------

TEST(ProtocolChecker, CatchesFawOverflow) {
  // GDDR5's tFAW (35 cycles) is covered by four tRRD gaps (4 x 9), so an
  // otherwise-legal ACT train can never trip it; widen the window so the
  // tFAW rule binds on its own.
  DramParams p = gddr5_params();
  p.refresh_enabled = false;
  p.tfaw_ns = 4.0 * p.trrd_ns + 20.0;
  const DramTiming t = DramTiming::from(p);
  ProtocolChecker pc(t);
  // Four activates to different bank groups, spaced by tRRD (legal), then
  // a fifth inside the four-activate window.
  Cycle now = 10;
  for (BankId b = 0; b < 4; ++b) {
    pc.on_command(act(static_cast<BankId>(b * t.banks_per_group), 1), now);
    now += t.trrd;
  }
  ASSERT_TRUE(pc.clean()) << pc.violations().front().detail;
  ASSERT_LT(now, 10 + t.tfaw) << "spacing too wide to exercise tFAW";
  pc.on_command(act(1, 1), now);  // fifth ACT, window still open
  EXPECT_TRUE(fired(pc, "tFAW"));
  EXPECT_FALSE(fired(pc, "tRRD"));
}

TEST(ProtocolChecker, CatchesCcdlViolation) {
  const DramTiming t = gddr5_timing();
  ProtocolChecker pc(t);
  ASSERT_GT(t.tccdl, t.tccds) << "bank-group fast path missing";
  pc.on_command(act(0, 7), 0);
  pc.on_command(act(1, 9), t.trrd);  // same bank group (banks 0..3)
  const Cycle cas = 100;
  pc.on_command(rd(0, 7), cas);
  // tCCDS after the first CAS: legal across groups, illegal within one.
  pc.on_command(rd(1, 9), cas + t.tccds);
  EXPECT_TRUE(fired(pc, "tCCDL"));
  EXPECT_FALSE(fired(pc, "tCCDS"));
}

TEST(ProtocolChecker, CatchesReadToClosedRow) {
  const DramTiming t = gddr5_timing();
  ProtocolChecker pc(t);
  pc.on_command(rd(3, 42), 5);  // no ACT ever happened
  EXPECT_TRUE(fired(pc, "RD-closed"));
}

TEST(ProtocolChecker, CatchesReadToWrongRow) {
  const DramTiming t = gddr5_timing();
  ProtocolChecker pc(t);
  pc.on_command(act(3, 42), 0);
  pc.on_command(rd(3, 43), t.trcd);
  EXPECT_TRUE(fired(pc, "RD-row"));
}

TEST(ProtocolChecker, CatchesRefreshWhileBankOpen) {
  const DramTiming t = gddr5_timing(/*refresh=*/true);
  ProtocolChecker pc(t);
  pc.on_command(act(5, 11), 100);
  pc.on_command(ref(), t.trefi);
  EXPECT_TRUE(fired(pc, "REF-open"));
}

TEST(ProtocolChecker, CatchesEarlyRefresh) {
  const DramTiming t = gddr5_timing(/*refresh=*/true);
  ProtocolChecker pc(t);
  pc.on_command(ref(), t.trefi / 2);
  EXPECT_TRUE(fired(pc, "tREFI-early"));
}

TEST(ProtocolChecker, CatchesMissedRefreshAtFinalize) {
  const DramTiming t = gddr5_timing(/*refresh=*/true);
  ProtocolChecker pc(t);
  pc.finalize(3 * t.trefi);  // run ended, no REF ever issued
  EXPECT_TRUE(fired(pc, "tREFI-missed"));
}

TEST(ProtocolChecker, CatchesActBeforeTrp) {
  const DramTiming t = gddr5_timing();
  ProtocolChecker pc(t);
  pc.on_command(act(2, 1), 0);
  pc.on_command(pre(2), t.tras);
  pc.on_command(act(2, 2), t.tras + t.trp - 1);
  EXPECT_TRUE(fired(pc, "tRP"));
}

TEST(ProtocolChecker, CatchesActBeforeTrc) {
  const DramTiming t = gddr5_timing();
  ProtocolChecker pc(t);
  pc.on_command(act(2, 1), 0);
  pc.on_command(pre(2), t.tras);
  // tRP satisfied but tRC (ACT->ACT same bank) not: needs tras+trp >= trc
  // to be distinguishable; GDDR5 has trc > tras + trp - 1.
  const Cycle at = t.tras + t.trp;
  if (at < t.trc) {
    pc.on_command(act(2, 2), at);
    EXPECT_TRUE(fired(pc, "tRC"));
  }
}

TEST(ProtocolChecker, CatchesPrematurePrecharge) {
  const DramTiming t = gddr5_timing();
  ProtocolChecker pc(t);
  pc.on_command(act(0, 1), 0);
  pc.on_command(pre(0), t.tras - 1);
  EXPECT_TRUE(fired(pc, "tRAS"));
}

TEST(ProtocolChecker, CatchesCasBeforeTrcd) {
  const DramTiming t = gddr5_timing();
  ProtocolChecker pc(t);
  pc.on_command(act(0, 1), 0);
  pc.on_command(rd(0, 1), t.trcd - 1);
  EXPECT_TRUE(fired(pc, "tRCD"));
}

TEST(ProtocolChecker, CatchesWriteToReadTurnaround) {
  const DramTiming t = gddr5_timing();
  ProtocolChecker pc(t);
  pc.on_command(act(0, 1), 0);
  pc.on_command(act(4, 2), t.trrd);  // different group: tCCDS applies
  const Cycle cas = 100;
  pc.on_command(wr(0, 1), cas);
  pc.on_command(rd(4, 2), cas + t.twl + t.tburst + t.twtr - 1);
  EXPECT_TRUE(fired(pc, "tWTR"));
}

TEST(ProtocolChecker, CatchesTwoCommandsInOneCycle) {
  const DramTiming t = gddr5_timing();
  ProtocolChecker pc(t);
  pc.on_command(act(0, 1), 7);
  pc.on_command(act(4, 1), 7);
  EXPECT_TRUE(fired(pc, "command-bus"));
}

TEST(ProtocolChecker, ViolationReportIncludesHistory) {
  const DramTiming t = gddr5_timing();
  ProtocolChecker pc(t);
  pc.on_command(act(0, 3), 0);
  pc.on_command(rd(0, 99), t.trcd);
  ASSERT_FALSE(pc.clean());
  const ProtocolViolation& v = pc.violations().front();
  EXPECT_NE(v.detail.find("recent command history"), std::string::npos);
  EXPECT_NE(v.detail.find("ACT"), std::string::npos) << v.detail;
}

// ---- positive path: legal sequences stay silent -----------------------

TEST(ProtocolChecker, AcceptsLegalRowCycle) {
  const DramTiming t = gddr5_timing();
  ProtocolChecker pc(t);
  Cycle now = 0;
  pc.on_command(act(0, 1), now);
  now += t.trcd;
  pc.on_command(rd(0, 1), now);
  now += std::max(t.trtp, t.tccdl);
  pc.on_command(rd(0, 1), now);
  now += std::max(t.trtp, t.tras);  // generous
  pc.on_command(pre(0), now);
  now += std::max(t.trp, t.trc);
  pc.on_command(act(0, 2), now);
  EXPECT_TRUE(pc.clean()) << pc.violations().front().detail;
  EXPECT_EQ(pc.commands_checked(), 5u);
}

TEST(ProtocolChecker, ShadowsTheRealChannelSilently) {
  // Drive the real Channel with its own can_issue() across a mixed
  // workload; the independent shadow model must agree on every command.
  const DramTiming t = gddr5_timing();
  Channel chan(t);
  ProtocolChecker pc(t);
  chan.add_command_observer(
      [&pc](const DramCommand& cmd, Cycle at) { pc.on_command(cmd, at); });

  const DramCommand script[] = {
      act(0, 1), act(4, 2),  act(8, 3), rd(0, 1), rd(4, 2),  wr(8, 3),
      rd(0, 1),  pre(4),     act(4, 9), rd(4, 9), wr(0, 1),  pre(8),
      act(8, 1), rd(8, 1),   pre(0),    act(0, 5), rd(0, 5), rd(4, 9),
  };
  Cycle now = 0;
  for (const DramCommand& cmd : script) {
    while (!chan.can_issue(cmd, now)) ++now;
    chan.issue(cmd, now);
    ++now;  // one command bus slot per cycle
  }
  EXPECT_TRUE(pc.clean()) << pc.violations().front().detail;
  EXPECT_EQ(pc.commands_checked(), std::size(script));
}

// ---- invariant checker unit coverage ----------------------------------

TEST(InvariantChecker, TrackerMismatchIsReported) {
  InvariantChecker ic(/*abort_on_violation=*/false);
  InstrTracker tracker;
  tracker.on_issue(1, 0);  // one live record, but zero blocked warps
  ic.audit_tracker(tracker, 0, 10);
  ASSERT_EQ(ic.violations().size(), 1u);
  EXPECT_EQ(ic.violations().front().invariant, "tracker-liveness");
}

TEST(InvariantChecker, CleanControllerPassesAudit) {
  InvariantChecker ic(/*abort_on_violation=*/false);
  const DramTiming t = gddr5_timing();
  MemoryController mc(0, McConfig{}, t,
                      std::make_unique<FcfsPolicy>(), nullptr);
  MemRequest req;
  req.kind = ReqKind::kRead;
  req.loc.bank = 0;
  req.loc.row = 1;
  mc.push(req, 0);
  for (Cycle c = 0; c < 200; ++c) mc.tick(c);
  ic.audit_controller(mc, 200);
  EXPECT_TRUE(ic.clean()) << ic.violations().front().detail;
  EXPECT_GT(ic.audits_run(), 0u);
}

TEST(InvariantChecker, CleanMshrPassesSlotAudit) {
  InvariantChecker ic(/*abort_on_violation=*/false);
  MshrFile mshr(MshrConfig{4, 2});
  MemRequest req;
  for (Addr line = 0; line < 4 * 128; line += 128) {
    req.addr = line;
    mshr.add(line, req);
    mshr.add(line, req);
  }
  (void)mshr.release(128);  // moves the last slot into the freed one
  ic.audit_mshr(mshr, 10);
  EXPECT_TRUE(ic.clean()) << ic.violations().front().detail;
  EXPECT_EQ(ic.audits_run(), 1u);
}

// ---- end-to-end: full simulator under both checkers, every policy -----

class CheckedSchedulers : public ::testing::TestWithParam<SchedulerKind> {};

INSTANTIATE_TEST_SUITE_P(
    Conformance, CheckedSchedulers,
    ::testing::Values(SchedulerKind::kFcfs, SchedulerKind::kFrFcfs,
                      SchedulerKind::kGmc, SchedulerKind::kWafcfs,
                      SchedulerKind::kSbwas, SchedulerKind::kWg,
                      SchedulerKind::kWgM, SchedulerKind::kWgBw,
                      SchedulerKind::kWgW),
    [](const auto& info) {
      std::string n = to_string(info.param);
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST_P(CheckedSchedulers, FullRunIsProtocolAndConservationClean) {
  SimConfig cfg;
  cfg.shrink_for_tests();
  cfg.scheduler = GetParam();
  cfg.workload = profile_by_name("bfs");
  // Exercise the refresh rules too (shrink_for_tests turns refresh off
  // for exact-arithmetic unit tests; conformance wants it on).
  cfg.dram.refresh_enabled = true;
  cfg.check.protocol = true;
  cfg.check.invariants = true;
  cfg.check.abort_on_violation = false;  // collect, then assert empty

  Simulator sim(cfg);
  const RunResult r = sim.run();
  EXPECT_GT(r.instructions, 100u);

  std::uint64_t commands = 0;
  for (std::size_t i = 0; i < cfg.icnt.partitions; ++i) {
    const ProtocolChecker* pc = sim.protocol_checker(i);
    ASSERT_NE(pc, nullptr);
    commands += pc->commands_checked();
    EXPECT_TRUE(pc->clean())
        << to_string(GetParam()) << " channel " << i << ": "
        << pc->violations().front().rule << "\n"
        << pc->violations().front().detail;
  }
  EXPECT_GT(commands, 0u) << "checker observed no commands";

  const InvariantChecker* ic = sim.invariant_checker();
  ASSERT_NE(ic, nullptr);
  EXPECT_GT(ic->audits_run(), 0u);
  EXPECT_TRUE(ic->clean()) << to_string(GetParam()) << ": "
                           << ic->violations().front().invariant << " — "
                           << ic->violations().front().detail;
}

}  // namespace
}  // namespace latdiv
