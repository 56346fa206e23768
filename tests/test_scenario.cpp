// Scenario microkernel library tests: catalogue integrity, the per-warp
// determinism contract (seed-stable, interleaving-independent streams),
// the exact memory-fraction accumulator, full-simulator runs for every
// kernel, and the `kernels` manifest (shape + byte-identical artifacts
// across --jobs).
#include "scenario/scenario.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "exp/driver.hpp"
#include "exp/manifest.hpp"
#include "sim/simulator.hpp"

namespace latdiv {
namespace {

using scenario::ScenarioSpec;

std::vector<WarpInstr> pull(InstrSource& src, SmId sm, WarpId warp, int n) {
  std::vector<WarpInstr> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(src.next(sm, warp));
  return out;
}

void expect_streams_eq(const std::vector<WarpInstr>& a,
                       const std::vector<WarpInstr>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(static_cast<int>(a[i].kind), static_cast<int>(b[i].kind)) << i;
    ASSERT_EQ(a[i].latency, b[i].latency) << i;
    ASSERT_EQ(a[i].active_lanes, b[i].active_lanes) << i;
    for (std::uint32_t l = 0; l < a[i].active_lanes; ++l) {
      ASSERT_EQ(a[i].lane_addr[l], b[i].lane_addr[l]) << i;
    }
  }
}

TEST(ScenarioCatalog, HasSixUniqueKernels) {
  const std::vector<ScenarioSpec>& cat = scenario::scenario_catalog();
  ASSERT_GE(cat.size(), 6u);
  std::set<std::string> names;
  for (const ScenarioSpec& s : cat) {
    EXPECT_FALSE(s.name.empty());
    EXPECT_FALSE(s.summary.empty());
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate " << s.name;
    EXPECT_EQ(&scenario::scenario_by_name(s.name), &s);
  }
}

TEST(ScenarioCatalog, UnknownNameListsValidOnes) {
  try {
    (void)scenario::scenario_by_name("no-such-kernel");
    FAIL() << "lookup must throw";
  } catch (const std::invalid_argument& e) {
    // The message names at least one valid scenario, so CLI typos are
    // self-correcting.
    EXPECT_NE(std::string(e.what()).find("pointer-chase"),
              std::string::npos)
        << e.what();
  }
}

TEST(ScenarioDeterminism, SameSeedSameStream) {
  for (const ScenarioSpec& spec : scenario::scenario_catalog()) {
    const auto a = scenario::make_scenario(spec, 2, 3, 42);
    const auto b = scenario::make_scenario(spec, 2, 3, 42);
    for (SmId sm = 0; sm < 2; ++sm) {
      for (WarpId w = 0; w < 3; ++w) {
        expect_streams_eq(pull(*a, sm, w, 200), pull(*b, sm, w, 200));
      }
    }
  }
}

TEST(ScenarioDeterminism, DifferentSeedsDiverge) {
  const ScenarioSpec& spec = scenario::scenario_by_name("pointer-chase");
  const auto a = scenario::make_scenario(spec, 1, 1, 1);
  const auto b = scenario::make_scenario(spec, 1, 1, 2);
  const std::vector<WarpInstr> sa = pull(*a, 0, 0, 200);
  const std::vector<WarpInstr> sb = pull(*b, 0, 0, 200);
  bool diverged = false;
  for (std::size_t i = 0; i < sa.size() && !diverged; ++i) {
    if (sa[i].kind != sb[i].kind) diverged = true;
    for (std::uint32_t l = 0; l < sa[i].active_lanes && !diverged; ++l) {
      if (sa[i].lane_addr[l] != sb[i].lane_addr[l]) diverged = true;
    }
  }
  EXPECT_TRUE(diverged);
}

TEST(ScenarioDeterminism, WarpInterleavingDoesNotMatter) {
  // Source A is drained round-robin (the simulator's natural order),
  // source B warp-at-a-time; per-warp streams must match exactly.  This
  // is the property that makes recorded traces order-independent.
  for (const ScenarioSpec& spec : scenario::scenario_catalog()) {
    const auto a = scenario::make_scenario(spec, 2, 2, 7);
    const auto b = scenario::make_scenario(spec, 2, 2, 7);
    std::vector<std::vector<WarpInstr>> rr(4);
    for (int i = 0; i < 150; ++i) {
      for (SmId sm = 0; sm < 2; ++sm) {
        for (WarpId w = 0; w < 2; ++w) {
          rr[static_cast<std::size_t>(sm) * 2 + w].push_back(a->next(sm, w));
        }
      }
    }
    for (SmId sm = 0; sm < 2; ++sm) {
      for (WarpId w = 0; w < 2; ++w) {
        expect_streams_eq(rr[static_cast<std::size_t>(sm) * 2 + w],
                          pull(*b, sm, w, 150));
      }
    }
  }
}

TEST(ScenarioContract, MemFractionIsExact) {
  // vecadd-uncoal declares mem_instr_frac 0.5; the integer per-mille
  // accumulator must deliver exactly one memory instruction per two
  // issued (never a float-drift approximation).
  const ScenarioSpec& spec = scenario::scenario_by_name("vecadd-uncoal");
  const auto src = scenario::make_scenario(spec, 1, 1, 3);
  std::uint64_t mem = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    if (src->next(0, 0).kind != WarpInstr::Kind::kCompute) ++mem;
  }
  EXPECT_NEAR(static_cast<double>(mem), n * 0.5, 1.0);
}

TEST(ScenarioContract, AddressesStayInsideFootprint) {
  for (const ScenarioSpec& spec : scenario::scenario_catalog()) {
    const auto src = scenario::make_scenario(spec, 2, 2, 5);
    for (int i = 0; i < 500; ++i) {
      for (SmId sm = 0; sm < 2; ++sm) {
        for (WarpId w = 0; w < 2; ++w) {
          const WarpInstr instr = src->next(sm, w);
          if (instr.kind == WarpInstr::Kind::kCompute) continue;
          ASSERT_GT(instr.active_lanes, 0u) << spec.name;
          for (std::uint32_t l = 0; l < instr.active_lanes; ++l) {
            ASSERT_LT(instr.lane_addr[l], spec.params.footprint_bytes)
                << spec.name;
          }
        }
      }
    }
  }
}

TEST(ScenarioSim, EveryKernelDrivesAFullSimulation) {
  for (const ScenarioSpec& spec : scenario::scenario_catalog()) {
    SimConfig cfg;
    cfg.shrink_for_tests();
    cfg.scheduler = SchedulerKind::kGmc;
    cfg.workload.name = spec.name;
    cfg.instr_source = [&spec](std::uint32_t sms, std::uint32_t warps,
                               std::uint64_t seed) {
      return scenario::make_scenario(spec, sms, warps, seed);
    };
    const RunResult r = Simulator(cfg).run();
    EXPECT_GT(r.instructions, 100u) << spec.name;
    EXPECT_GT(r.dram_reads + r.dram_writes, 0u) << spec.name;
  }
}

TEST(ScenarioSim, InstrSourceFactoryIsDeterministic) {
  const ScenarioSpec& spec = scenario::scenario_by_name("framebuffer");
  auto run_once = [&spec] {
    SimConfig cfg;
    cfg.shrink_for_tests();
    cfg.scheduler = SchedulerKind::kWgW;
    cfg.instr_source = [&spec](std::uint32_t sms, std::uint32_t warps,
                               std::uint64_t seed) {
      return scenario::make_scenario(spec, sms, warps, seed);
    };
    return Simulator(cfg).run();
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.dram_reads, b.dram_reads);
  EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
}

// ---------------------------------------------------------------------------
// The `kernels` manifest.

TEST(KernelsManifest, CoversCatalogTimesAllPolicies) {
  exp::SweepOptions opts;
  const exp::Manifest m = exp::make_manifest("kernels", opts);
  EXPECT_EQ(m.spec.col_order.size(), 9u);
  EXPECT_EQ(m.spec.baseline_col, to_string(SchedulerKind::kGmc));
  EXPECT_EQ(m.grid.size(), scenario::scenario_catalog().size() * 9u);
  bool listed = false;
  for (const std::string& name : exp::manifest_names()) {
    if (name == "kernels") listed = true;
  }
  EXPECT_TRUE(listed);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(KernelsManifest, ArtifactBytesStableAcrossJobs) {
  // One scenario column, short runs: the artifact must be byte-identical
  // whether points run serially, on 2 executor threads, or on more
  // threads than there are points — the determinism contract CI enforces
  // on the full grid.
  auto run_with = [](unsigned jobs, const std::string& out) {
    exp::SweepRunArgs args;
    args.opts.cycles = 4000;
    args.opts.warmup = 400;
    args.opts.filter = "vecadd-uncoal/";
    args.opts.jobs = jobs;
    args.progress = false;
    args.out_json = out;
    return exp::run_manifest("kernels", args);
  };
  const std::string a = std::string(::testing::TempDir()) + "kernels_a.json";
  const std::string b = std::string(::testing::TempDir()) + "kernels_b.json";
  const std::string c = std::string(::testing::TempDir()) + "kernels_c.json";
  EXPECT_EQ(run_with(1, a), 0);
  EXPECT_EQ(run_with(2, b), 0);
  EXPECT_EQ(run_with(16, c), 0);
  const std::string bytes = slurp(a);
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, slurp(b));
  EXPECT_EQ(bytes, slurp(c));
  std::remove(a.c_str());
  std::remove(b.c_str());
  std::remove(c.c_str());
}

}  // namespace
}  // namespace latdiv
