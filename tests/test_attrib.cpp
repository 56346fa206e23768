// AttributionProfiler (src/obs/attrib) contract suite.
//
// Three layers, mirroring the guarantees DESIGN.md "Latency attribution"
// states:
//   * sum exactness — per-cause components sum exactly to the measured
//     end-to-end latency of every attributed load, across every
//     scheduling policy x irregular workloads x seeds, with the
//     InvariantChecker auditing (and aborting on) any violation mid-run;
//   * byte identity — the attribution artifact and the metrics export
//     are byte-identical across repeated runs and a snapshot save/resume
//     split mid-run;
//   * non-perturbation — enabling attribution changes no simulated
//     result (the profiler is a pure observer).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "exp/executor.hpp"
#include "sim/simulator.hpp"

namespace latdiv {
namespace {

SimConfig attrib_cfg(SchedulerKind sched, const char* workload,
                     std::uint64_t seed = 1) {
  SimConfig cfg;
  cfg.shrink_for_tests();
  cfg.scheduler = sched;
  cfg.workload = profile_by_name(workload);
  cfg.seed = seed;
  cfg.obs.attrib = true;
  return cfg;
}

std::uint64_t cause_cycle_sum(const obs::AttribSummary& a) {
  std::uint64_t sum = 0;
  for (std::size_t c = 0; c < obs::kAttribCauseCount; ++c) {
    sum += a.cause_cycles[c];
  }
  return sum;
}

std::uint64_t blame_count_sum(const obs::AttribSummary& a) {
  std::uint64_t sum = a.blame_none;
  for (std::size_t c = 0; c < obs::kAttribBlameCauses; ++c) {
    sum += a.blame[c];
  }
  return sum;
}

// ---------------------------------------------------------------------------
// Sum exactness across every policy x workloads x seeds.

class AttribSumExactness
    : public ::testing::TestWithParam<
          std::tuple<SchedulerKind, const char*, std::uint64_t>> {};

TEST_P(AttribSumExactness, ComponentsSumExactlyToEndToEndLatency) {
  const auto [sched, workload, seed] = GetParam();
  SimConfig cfg = attrib_cfg(sched, workload, seed);
  // The InvariantChecker audits attribution exactness during the run and
  // aborts on the first violation — passing means every audit held.
  cfg.check.invariants = true;
  const RunResult r = Simulator(cfg).run();

  ASSERT_TRUE(r.attrib.enabled);
  EXPECT_GT(r.attrib.loads, 0u) << "no loads attributed";
  EXPECT_EQ(r.attrib.mismatches, 0u) << "telescope broke on some load";
  EXPECT_EQ(r.attrib.unmatched, 0u) << "warp load with no lane data";
  EXPECT_EQ(r.attrib.dropped, 0u) << "request declined at ingest";
  EXPECT_EQ(r.attrib.drain_clamps, 0u) << "drain overlap exceeded queue wait";
  // Conservation: per-cause histogram sums partition the total exactly.
  EXPECT_EQ(cause_cycle_sum(r.attrib), r.attrib.total_cycles);
  // Every attributed load receives exactly one blame verdict.
  EXPECT_EQ(blame_count_sum(r.attrib), r.attrib.loads);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesXWorkloads, AttribSumExactness,
    ::testing::Combine(
        ::testing::Values(SchedulerKind::kFcfs, SchedulerKind::kFrFcfs,
                          SchedulerKind::kGmc, SchedulerKind::kWafcfs,
                          SchedulerKind::kSbwas, SchedulerKind::kWg,
                          SchedulerKind::kWgM, SchedulerKind::kWgBw,
                          SchedulerKind::kWgW),
        ::testing::Values("bfs", "spmv", "kmeans"),
        ::testing::Values(1ull)),
    [](const auto& info) {
      std::string n = to_string(std::get<0>(info.param));
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n + "_" + std::get<1>(info.param) + "_seed" +
             std::to_string(std::get<2>(info.param));
    });

// Extra randomized seeds on the paper's headline pair — divergence-heavy
// bfs under the baseline and the full design.
class AttribSumExactnessSeeds
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AttribSumExactnessSeeds, HoldsAcrossSeeds) {
  for (const SchedulerKind sched :
       {SchedulerKind::kGmc, SchedulerKind::kWgW}) {
    SimConfig cfg = attrib_cfg(sched, "bfs", GetParam());
    cfg.check.invariants = true;
    const RunResult r = Simulator(cfg).run();
    ASSERT_TRUE(r.attrib.enabled);
    EXPECT_GT(r.attrib.loads, 0u);
    EXPECT_EQ(r.attrib.mismatches, 0u);
    EXPECT_EQ(r.attrib.unmatched, 0u);
    EXPECT_EQ(cause_cycle_sum(r.attrib), r.attrib.total_cycles);
    EXPECT_EQ(blame_count_sum(r.attrib), r.attrib.loads);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AttribSumExactnessSeeds,
                         ::testing::Values(7ull, 42ull, 1337ull),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Byte identity of the attribution artifact and metric export.

// A second run of the same configuration in the same process reproduces
// both artifacts byte for byte: no hidden global state, no iteration over
// pointer-keyed or hash-ordered containers reaches the output.
TEST(AttribByteIdentity, RepeatRunsProduceIdenticalArtifacts) {
  const SimConfig cfg = attrib_cfg(SchedulerKind::kWgW, "bfs");

  Simulator first(cfg);
  (void)first.run();
  const std::string attrib1 = first.obs()->attrib_json();
  ASSERT_FALSE(attrib1.empty());

  Simulator second(cfg);
  (void)second.run();
  EXPECT_EQ(attrib1, second.obs()->attrib_json());
  EXPECT_EQ(first.obs()->metrics_json(), second.obs()->metrics_json());
}

TEST(AttribByteIdentity, SnapshotResumeMatchesStraightRun) {
  SimConfig cfg = attrib_cfg(SchedulerKind::kWgM, "spmv");

  Simulator straight(cfg);
  straight.run_to(cfg.max_cycles);
  const RunResult rs = straight.finish();
  const std::string attrib1 = straight.obs()->attrib_json();
  const std::string metrics1 = straight.obs()->metrics_json();

  // Split the same run in half across a snapshot: open request and load
  // state must round-trip for the resumed half to attribute identically.
  Simulator paused(cfg);
  paused.run_to(cfg.max_cycles / 2);
  const std::vector<unsigned char> snap = ckpt::save_snapshot(paused);

  Simulator resumed(cfg);
  ckpt::load_snapshot(resumed, snap.data(), snap.size());
  resumed.run_to(cfg.max_cycles);
  const RunResult rr = resumed.finish();

  EXPECT_EQ(rs.attrib.loads, rr.attrib.loads);
  EXPECT_EQ(attrib1, resumed.obs()->attrib_json());
  EXPECT_EQ(metrics1, resumed.obs()->metrics_json());
}

// ---------------------------------------------------------------------------
// Non-perturbation and off-path surface.

TEST(AttribNonPerturbation, EnablingAttributionChangesNoSimulatedResult) {
  SimConfig off;
  off.shrink_for_tests();
  off.scheduler = SchedulerKind::kWgW;
  off.workload = profile_by_name("bfs");
  SimConfig on = off;
  on.obs.attrib = true;

  const RunResult a = Simulator(off).run();
  const RunResult b = Simulator(on).run();
  EXPECT_EQ(a.ipc, b.ipc);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(exp::metrics_from(a), exp::metrics_from(b));
  EXPECT_FALSE(a.attrib.enabled);
  EXPECT_TRUE(b.attrib.enabled);
}

TEST(AttribOffPath, DisabledRunsCarryNoAttributionState) {
  SimConfig cfg;
  cfg.shrink_for_tests();
  cfg.workload = profile_by_name("bfs");
  Simulator sim(cfg);
  const RunResult r = sim.run();
  EXPECT_EQ(sim.obs(), nullptr);  // hub not even constructed
  EXPECT_FALSE(r.attrib.enabled);
  EXPECT_EQ(r.attrib.loads, 0u);
}

// The artifact is the CI audit surface: the fields the attribution-smoke
// job greps for must read exactly zero on a healthy run.
TEST(AttribArtifact, AuditFieldsReadZeroOnHealthyRuns) {
  SimConfig cfg = attrib_cfg(SchedulerKind::kGmc, "bfs");
  Simulator sim(cfg);
  (void)sim.run();
  const std::string json = sim.obs()->attrib_json();
  EXPECT_NE(json.find("\"mismatches\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"unmatched\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"residual\": 0"), std::string::npos);
}

}  // namespace
}  // namespace latdiv
