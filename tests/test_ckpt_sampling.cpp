// SMARTS-style interval sampling (src/ckpt/sampler.*): accuracy bounds
// against straight-through detailed runs, strict determinism of the
// sampled estimates, exactness of line-run warming, and the config
// refusals.
//
// The tolerances here are pinned, not aspirational: they document the
// measured estimator quality on the shrunk test geometry, and a change
// that degrades them is a regression even if nothing crashes.  The
// full-size throughput/accuracy gate (>= 5x fewer detailed cycles, <= 2%
// geomean IPC error on >= 1M-cycle runs) lives in bench_throughput.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/archive.hpp"
#include "ckpt/sampler.hpp"
#include "ckpt/snapshot.hpp"
#include "common/rng.hpp"
#include "dram/params.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "workload/profile.hpp"

namespace latdiv {
namespace {

SimConfig sampling_cfg(const std::string& scenario, Cycle max_cycles) {
  SimConfig cfg;
  cfg.shrink_for_tests();
  cfg.scheduler = SchedulerKind::kWgM;
  cfg.workload.name = scenario;
  cfg.instr_source = [scenario](std::uint32_t sms, std::uint32_t warps,
                                std::uint64_t s) {
    return scenario::make_scenario(scenario::scenario_by_name(scenario), sms,
                                   warps, s);
  };
  cfg.max_cycles = max_cycles;
  cfg.warmup_cycles = 0;
  // shrink_for_tests() enables the checkers; sampled mode teleports past
  // state they audit per-cycle, so it requires them (and the hub) off.
  cfg.check = CheckConfig{};
  cfg.obs = obs::ObsConfig{};
  return cfg;
}

ckpt::SamplingConfig test_schedule() {
  ckpt::SamplingConfig s;
  s.detail_cycles = 4'000;
  s.warm_cycles = 2'000;
  s.period_cycles = 24'000;
  return s;
}

/// |sampled - detailed| / detailed.
double rel_err(double sampled, double detailed) {
  return std::abs(sampled - detailed) / detailed;
}

// ---------------------------------------------------------------------------
// Accuracy: the sampled estimates track the detailed run within pinned
// bounds while simulating a quarter of the cycles in detail.

class SamplingAccuracy : public ::testing::TestWithParam<const char*> {};

TEST_P(SamplingAccuracy, IpcWithinPinnedBound) {
  const SimConfig cfg = sampling_cfg(GetParam(), 240'000);
  const RunResult detailed = Simulator(cfg).run();
  ASSERT_GT(detailed.ipc, 0.0);

  Simulator sim(cfg);
  ckpt::SampledRunner runner(sim, test_schedule());
  const ckpt::SampledResult sampled = runner.run();

  // 10 periods of 24k cycles, 6k detailed each: a 4x cycle reduction.
  EXPECT_EQ(sampled.windows.size(), 10u);
  EXPECT_EQ(sampled.detailed_cycles, 60'000u);
  EXPECT_EQ(sim.now(), cfg.max_cycles);

  // IPC is the headline estimate: relative bound.  The DRAM fractions
  // live in [0, 1] and sit near zero on low-locality kernels, where a
  // relative bound is meaningless — pin them absolutely instead.
  EXPECT_LE(rel_err(sampled.ipc, detailed.ipc), 0.03)
      << "ipc: sampled " << sampled.ipc << " vs detailed " << detailed.ipc;
  EXPECT_LE(std::abs(sampled.row_hit_rate - detailed.row_hit_rate), 0.02)
      << "row_hit_rate: sampled " << sampled.row_hit_rate << " vs detailed "
      << detailed.row_hit_rate;
  EXPECT_LE(
      std::abs(sampled.bandwidth_utilization - detailed.bandwidth_utilization),
      0.02)
      << "bandwidth: sampled " << sampled.bandwidth_utilization
      << " vs detailed " << detailed.bandwidth_utilization;
}

INSTANTIATE_TEST_SUITE_P(Scenarios, SamplingAccuracy,
                         ::testing::Values("powerlaw-rows", "pointer-chase",
                                           "threshold-compact"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// Functional warming is what keeps the estimates honest across skips:
// each skip drains the source at the estimated issue rate, so cursors
// keep pace with simulated time.
TEST(SamplingWarming, WarmingDrawsInstructionsAndStaysDeterministic) {
  const SimConfig cfg = sampling_cfg("powerlaw-rows", 240'000);
  Simulator warm_sim(cfg);
  ckpt::SampledRunner warm_runner(warm_sim, test_schedule());
  const ckpt::SampledResult with_warm = warm_runner.run();
  EXPECT_GT(with_warm.warm_instructions, 0u);
  EXPECT_GT(with_warm.ipc, 0.0);
}

// Warming granularity: skip_to warms once per run of adjacent lanes on
// one line.  A per-lane reference (one L1 access and one row warm per
// active lane) must leave the same simulator state, byte for byte.
// Cache.WarmMatchesTouchThenFill ties each one-lane access to touch +
// fill.

/// Hands out a fixed instruction list in order, whatever the (SM, warp);
/// checkpointable, so whole-simulator snapshot bytes can be compared.
class ScriptedSource final : public InstrSource {
 public:
  explicit ScriptedSource(std::vector<WarpInstr> script)
      : script_(std::move(script)) {}
  WarpInstr next(SmId /*sm*/, WarpId /*warp*/) override {
    return script_[cursor_++ % script_.size()];
  }
  [[nodiscard]] bool checkpointable() const override { return true; }
  void ckpt_save(ckpt::CkptWriter& ar) const override { ar.u64(cursor_); }
  void ckpt_load(ckpt::CkptReader& ar) override { ar.u64(cursor_); }

 private:
  std::vector<WarpInstr> script_;
  std::uint64_t cursor_ = 0;
};

/// A memory instruction whose lane i accesses cache line `lines[i]`
/// (line numbers; lanes of one line read different words of it).
WarpInstr lanes_on(WarpInstr::Kind kind, const std::vector<Addr>& lines) {
  WarpInstr in;
  in.kind = kind;
  in.active_lanes = static_cast<std::uint8_t>(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    in.lane_addr[i] = lines[i] * 128 + (i * 4) % 128;
  }
  return in;
}

/// `count` lanes on each of `lines` in turn.
std::vector<Addr> groups(std::initializer_list<Addr> lines, std::size_t count) {
  std::vector<Addr> out;
  for (Addr l : lines) out.insert(out.end(), count, l);
  return out;
}

/// The cases run warming must get right, then seeded random loads and
/// stores.  The 32-set L1 puts lines 4 + 32k in one set, so these
/// overflow its 8 ways and LRU order decides the victims; k up to 96
/// spreads them over several DRAM rows per bank.
std::vector<WarpInstr> warming_script() {
  using Kind = WarpInstr::Kind;
  std::vector<WarpInstr> script;
  script.push_back(lanes_on(Kind::kLoad, groups({5}, 32)));  // coalesced
  script.push_back(  // divergent contiguous groups
      lanes_on(Kind::kLoad, groups({100, 132, 7, 164}, 8)));
  script.push_back(lanes_on(Kind::kLoad, {4, 4, 36, 4}));  // a,a,b,a
  script.push_back(  // 20 active lanes
      lanes_on(Kind::kLoad, groups({68, 196, 228, 260}, 5)));
  script.push_back(lanes_on(Kind::kStore, groups({292, 3076}, 16)));
  script.push_back(WarpInstr{});  // compute
  Rng rng(11);
  for (int i = 0; i < 40; ++i) {
    const Kind kind = rng.chance(0.2) ? Kind::kStore : Kind::kLoad;
    const std::size_t active = 1 + rng.below(kWarpLanes);
    std::vector<Addr> lines;
    while (lines.size() < active) {
      const Addr line = 4 + rng.below(2) + 32 * rng.below(96);
      lines.insert(lines.end(),
                   std::min<std::size_t>(1 + rng.below(6),
                                         active - lines.size()),
                   line);
    }
    script.push_back(lanes_on(kind, lines));
  }
  return script;
}

/// skip_to's draw order with one warm per active lane.
void warm_per_lane(Simulator& sim, const std::vector<std::uint64_t>& rates,
                   Cycle target) {
  const SimConfig& sc = sim.config();
  const AddressMap& amap = sim.address_map();
  const Cycle span = target - sim.now();
  for (std::uint32_t s = 0; s < sc.num_sms; ++s) {
    const std::uint64_t want = rates[s] * span / 1'000;
    for (std::uint64_t i = 0; i < want; ++i) {
      const WarpInstr instr = sim.instr_source().next(
          static_cast<SmId>(s), static_cast<WarpId>(i % sc.sm.warps));
      if (instr.kind == WarpInstr::Kind::kCompute) continue;
      for (std::uint32_t lane = 0; lane < instr.active_lanes; ++lane) {
        const Addr line = amap.line_base(instr.lane_addr[lane]);
        if (instr.kind == WarpInstr::Kind::kLoad) sim.sm(s).warm_line(line, 1);
        const DramLoc loc = amap.decode(line);
        sim.partition(loc.channel).mc().channel_mut().warm_row(loc.bank,
                                                               loc.row);
      }
    }
  }
  sim.teleport(target);
}

TEST(SamplingWarming, RunWarmingMatchesPerLaneReference) {
  const std::vector<WarpInstr> script = warming_script();
  SimConfig cfg = sampling_cfg("pointer-chase", 240'000);
  cfg.workload.name = "scripted";
  cfg.instr_source = [script](std::uint32_t, std::uint32_t, std::uint64_t) {
    return std::make_unique<ScriptedSource>(script);
  };
  constexpr Cycle kDetailed = 2'000;  // warm on top of detailed state
  constexpr Cycle kTarget = 30'000;
  // 1'120 draws per SM: every script entry, many times over.
  const std::vector<std::uint64_t> rates(cfg.num_sms, 40);

  Simulator by_run(cfg);
  by_run.run_to(kDetailed);
  ckpt::SampledRunner runner(by_run, test_schedule());
  runner.freeze_issue_rates(rates);
  runner.skip_to(kTarget);

  Simulator by_lane(cfg);
  by_lane.run_to(kDetailed);
  warm_per_lane(by_lane, rates, kTarget);

  EXPECT_EQ(runner.warm_instructions(), 1'120u * cfg.num_sms);
  std::uint64_t evictions = 0;
  for (std::size_t s = 0; s < cfg.num_sms; ++s) {
    const CacheStats& got = by_run.sm(s).l1().stats();
    const CacheStats& want = by_lane.sm(s).l1().stats();
    EXPECT_EQ(got.hits, want.hits) << "SM " << s;
    EXPECT_EQ(got.misses, want.misses) << "SM " << s;
    EXPECT_EQ(got.evictions, want.evictions) << "SM " << s;
    evictions += got.evictions;
  }
  EXPECT_GT(evictions, 0u);  // LRU order was exercised
  for (std::size_t p = 0; p < cfg.icnt.partitions; ++p) {
    const Channel& got = by_run.partition(p).mc().channel();
    const Channel& want = by_lane.partition(p).mc().channel();
    for (BankId b = 0; b < cfg.dram.banks; ++b) {
      EXPECT_EQ(got.open_row(b), want.open_row(b))
          << "channel " << p << " bank " << b;
    }
  }
  // Tags, LRU clocks, stats, rows and cursors: the whole state.
  EXPECT_EQ(ckpt::save_snapshot(by_run), ckpt::save_snapshot(by_lane));
}

// The sampler warms rows through the simulator's own address map, whose
// bank count comes from the DRAM device.  A map built with the default
// 16 banks once sent an 8-bank DDR3 channel warm_row calls for banks
// 8..15, past the end of its bank table.
TEST(SamplingWarming, Ddr3SkipWarmsOnlyExistingBanks) {
  SimConfig cfg = sampling_cfg("pointer-chase", 48'000);
  cfg.dram = ddr3_1600_params();
  Simulator sim(cfg);
  ASSERT_EQ(sim.address_map().config().banks_per_channel, 8u);
  ckpt::SampledRunner runner(sim, test_schedule());
  const ckpt::SampledResult r = runner.run();
  EXPECT_EQ(r.windows.size(), 2u);
  EXPECT_GT(r.warm_instructions, 0u);
  for (std::size_t p = 0; p < cfg.icnt.partitions; ++p) {
    EXPECT_TRUE(sim.partition(p).mc().channel().open_banks_consistent())
        << "channel " << p;
  }
}

// ---------------------------------------------------------------------------
// Determinism: the sampled path inherits the simulator's contract — same
// config, same estimates, bit for bit, every time.

TEST(SamplingDeterminism, RepeatRunsBitIdentical) {
  const SimConfig cfg = sampling_cfg("pointer-chase", 240'000);
  ckpt::SampledResult a, b;
  {
    Simulator sim(cfg);
    ckpt::SampledRunner runner(sim, test_schedule());
    a = runner.run();
  }
  {
    Simulator sim(cfg);
    ckpt::SampledRunner runner(sim, test_schedule());
    b = runner.run();
  }
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    EXPECT_EQ(a.windows[i].instructions, b.windows[i].instructions);
    EXPECT_EQ(a.windows[i].dram_reads, b.windows[i].dram_reads);
    EXPECT_EQ(a.windows[i].dram_activates, b.windows[i].dram_activates);
  }
  EXPECT_EQ(a.ipc, b.ipc);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.warm_instructions, b.warm_instructions);
}

// Sampling composes with snapshots: restore the same snapshot twice and
// sample the remainder — identical estimates (the exp fan-out relies on
// this to distribute windows across workers).
TEST(SamplingDeterminism, SampledResumeFromSnapshotBitIdentical) {
  const SimConfig cfg = sampling_cfg("powerlaw-rows", 240'000);
  std::vector<unsigned char> snap;
  {
    Simulator sim(cfg);
    sim.run_to(24'000);
    snap = ckpt::save_snapshot(sim);
  }
  ckpt::SampledResult a, b;
  for (ckpt::SampledResult* out : {&a, &b}) {
    Simulator sim(cfg);
    ckpt::load_snapshot(sim, snap.data(), snap.size());
    ckpt::SampledRunner runner(sim, test_schedule());
    *out = runner.run();
  }
  EXPECT_EQ(a.start, 24'000u);
  EXPECT_EQ(a.ipc, b.ipc);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.warm_instructions, b.warm_instructions);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    EXPECT_EQ(a.windows[i].instructions, b.windows[i].instructions);
  }
}

// ---------------------------------------------------------------------------
// Fan-out: run_sampled with jobs > 1 snapshots once after the priming
// window and measures the remaining windows on a worker pool.  The whole
// point of freezing the rate estimator is that the answer must not depend
// on how many workers the host happens to have.

TEST(SamplingFanOut, ResultIndependentOfJobCount) {
  const SimConfig cfg = sampling_cfg("powerlaw-rows", 240'000);
  const ckpt::SamplingConfig sched = test_schedule();
  const ckpt::SampledResult two = ckpt::run_sampled(cfg, sched, 2);
  const ckpt::SampledResult six = ckpt::run_sampled(cfg, sched, 6);

  ASSERT_EQ(two.windows.size(), six.windows.size());
  for (std::size_t i = 0; i < two.windows.size(); ++i) {
    EXPECT_EQ(two.windows[i].start, six.windows[i].start);
    EXPECT_EQ(two.windows[i].instructions, six.windows[i].instructions);
    EXPECT_EQ(two.windows[i].dram_reads, six.windows[i].dram_reads);
    EXPECT_EQ(two.windows[i].dram_activates, six.windows[i].dram_activates);
  }
  EXPECT_EQ(two.ipc, six.ipc);
  EXPECT_EQ(two.instructions, six.instructions);
  EXPECT_EQ(two.warm_instructions, six.warm_instructions);
}

// The fan-out estimate differs from the sequential schedule only through
// the frozen rate estimator, so it must stay close to both the sequential
// sampled estimate and the detailed truth.
TEST(SamplingFanOut, TracksSequentialAndDetailed) {
  const SimConfig cfg = sampling_cfg("powerlaw-rows", 240'000);
  const ckpt::SamplingConfig sched = test_schedule();
  const RunResult detailed = Simulator(cfg).run();
  const ckpt::SampledResult seq = ckpt::run_sampled(cfg, sched, 1);
  const ckpt::SampledResult fan = ckpt::run_sampled(cfg, sched, 4);

  EXPECT_EQ(fan.windows.size(), seq.windows.size());
  EXPECT_EQ(fan.end, seq.end);
  EXPECT_LE(rel_err(fan.ipc, detailed.ipc), 0.03)
      << "fan-out ipc " << fan.ipc << " vs detailed " << detailed.ipc;
  EXPECT_LE(rel_err(fan.ipc, seq.ipc), 0.03)
      << "fan-out ipc " << fan.ipc << " vs sequential " << seq.ipc;
}

// jobs == 1 goes through the plain sequential runner; pin that the free
// function and a hand-driven SampledRunner agree exactly.
TEST(SamplingFanOut, SequentialPathMatchesRunner) {
  const SimConfig cfg = sampling_cfg("pointer-chase", 240'000);
  const ckpt::SamplingConfig sched = test_schedule();
  const ckpt::SampledResult free_fn = ckpt::run_sampled(cfg, sched, 1);
  Simulator sim(cfg);
  ckpt::SampledRunner runner(sim, sched);
  const ckpt::SampledResult direct = runner.run();
  EXPECT_EQ(free_fn.ipc, direct.ipc);
  EXPECT_EQ(free_fn.instructions, direct.instructions);
  EXPECT_EQ(free_fn.detailed_cycles, direct.detailed_cycles);
  ASSERT_EQ(free_fn.windows.size(), direct.windows.size());
}

// ---------------------------------------------------------------------------
// Golden windows: the full-size bh profile sampled at the latbench
// sampled-long shape (360k cycles, 36k warm-up, default SMARTS schedule,
// seed 1), fanned out over 2 jobs as latbench runs it and sequentially.
// The windows start from functionally warmed caches and rows, so they are
// the only tier-1 runs whose counters depend on how the SM's host-side
// retry memos treat Sm::warm_line (DESIGN.md, "Hot path & determinism
// contract").  The fan-out warms right after a snapshot load, the
// sequential runner warms warps that already failed loads; each path
// catches a different memo rule.  The sums are pinned exactly.

struct WindowSums {
  std::uint64_t windows, detailed_cycles, warm_instructions, cycles,
      instructions, dram_reads, dram_writes, dram_activates, bus_busy;
};

WindowSums sampled_bh(SchedulerKind sched, unsigned jobs) {
  SimConfig cfg;
  cfg.workload = profile_by_name("bh");
  cfg.scheduler = sched;
  cfg.max_cycles = 360'000;
  cfg.warmup_cycles = 36'000;
  cfg.seed = 1;
  const ckpt::SampledResult r =
      ckpt::run_sampled(cfg, ckpt::SamplingConfig{}, jobs);
  WindowSums s{r.windows.size(), r.detailed_cycles, r.warm_instructions,
               0, 0, 0, 0, 0, 0};
  for (const ckpt::SampledWindow& w : r.windows) {
    s.cycles += w.cycles;
    s.instructions += w.instructions;
    s.dram_reads += w.dram_reads;
    s.dram_writes += w.dram_writes;
    s.dram_activates += w.dram_activates;
    s.bus_busy += w.data_bus_busy_cycles;
  }
  return s;
}

void expect_sums(const WindowSums& got, const WindowSums& want) {
  EXPECT_EQ(got.windows, want.windows);
  EXPECT_EQ(got.detailed_cycles, want.detailed_cycles);
  EXPECT_EQ(got.warm_instructions, want.warm_instructions);
  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.instructions, want.instructions);
  EXPECT_EQ(got.dram_reads, want.dram_reads);
  EXPECT_EQ(got.dram_writes, want.dram_writes);
  EXPECT_EQ(got.dram_activates, want.dram_activates);
  EXPECT_EQ(got.bus_busy, want.bus_busy);
}

TEST(SamplingGolden, BhWgWWindowsMatchPinnedSums) {
  expect_sums(sampled_bh(SchedulerKind::kWgW, 2),
              {3, 36'000, 272'832, 24'000, 18'900, 16'767, 3'560, 13'851,
               40'654});
}

TEST(SamplingGolden, BhGmcWindowsMatchPinnedSums) {
  expect_sums(sampled_bh(SchedulerKind::kGmc, 2),
              {3, 36'000, 260'400, 24'000, 18'157, 15'373, 3'241, 13'904,
               37'228});
}

TEST(SamplingGolden, BhWgWSequentialWindowsMatchPinnedSums) {
  expect_sums(sampled_bh(SchedulerKind::kWgW, 1),
              {3, 36'000, 254'664, 24'000, 19'168, 16'614, 3'534, 13'812,
               40'296});
}

TEST(SamplingGolden, BhGmcSequentialWindowsMatchPinnedSums) {
  expect_sums(sampled_bh(SchedulerKind::kGmc, 1),
              {3, 36'000, 244'296, 24'000, 18'442, 15'338, 3'195, 13'883,
               37'066});
}

// ---------------------------------------------------------------------------
// Refusals: invalid schedules and observing configurations fail fast.

TEST(SamplingErrors, RejectsBadSchedules) {
  const SimConfig cfg = sampling_cfg("pointer-chase", 100'000);
  Simulator sim(cfg);
  ckpt::SamplingConfig sched = test_schedule();
  sched.detail_cycles = 0;
  EXPECT_THROW(ckpt::SampledRunner(sim, sched), std::invalid_argument);
  sched = test_schedule();
  sched.period_cycles = sched.warm_cycles + sched.detail_cycles - 1;
  EXPECT_THROW(ckpt::SampledRunner(sim, sched), std::invalid_argument);
  // W + D wraps to 0 in 64 bits, which a summed check would let through.
  sched = test_schedule();
  sched.detail_cycles = ~Cycle{0};
  sched.warm_cycles = 1;
  sched.period_cycles = 5;
  EXPECT_THROW(ckpt::SampledRunner(sim, sched), std::invalid_argument);
}

TEST(SamplingErrors, RejectsCheckersAndObs) {
  SimConfig cfg = sampling_cfg("pointer-chase", 100'000);
  cfg.check.protocol = true;
  {
    Simulator sim(cfg);
    EXPECT_THROW(ckpt::SampledRunner(sim, test_schedule()),
                 std::invalid_argument);
  }
  cfg.check.protocol = false;
  cfg.obs.timeseries = true;
  cfg.obs.sample_interval = 500;
  {
    Simulator sim(cfg);
    EXPECT_THROW(ckpt::SampledRunner(sim, test_schedule()),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace latdiv
