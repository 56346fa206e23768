// Checkpoint determinism contract (src/ckpt): loading a snapshot taken
// at cycle C into a fresh simulator and running to the end must be
// byte-identical to the run that never paused — across schedulers,
// workload frontends, the number of cuts, and file vs in-memory snapshots.
// DESIGN.md "Checkpoint, sampling & determinism contract" states the
// guarantee; this suite is its enforcement.
//
// Also covered here: snapshot-of-resume stability (re-saving at the same
// cycle reproduces the same bytes, the basis of CI's golden-hash job),
// the inspect walk, and the full CkptError taxonomy — truncation,
// corruption, version/fingerprint mismatches, and the save/load
// refusals — every failure is a pinned message, never silent UB.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "common/crc32.hpp"
#include "common/endian.hpp"
#include "exp/executor.hpp"
#include "mc/policy_gmc.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"

namespace latdiv {
namespace {

SimConfig scenario_cfg(SchedulerKind sched, const std::string& scenario,
                       std::uint64_t seed = 1) {
  SimConfig cfg;
  cfg.shrink_for_tests();
  cfg.scheduler = sched;
  cfg.seed = seed;
  // The scenario replaces the statistical generator as the instruction
  // stream; keep its name in the workload identity so the config
  // fingerprint distinguishes snapshots of different kernels.
  cfg.workload.name = scenario;
  cfg.instr_source = [scenario](std::uint32_t sms, std::uint32_t warps,
                                std::uint64_t s) {
    return scenario::make_scenario(scenario::scenario_by_name(scenario), sms,
                                   warps, s);
  };
  cfg.max_cycles = 4'000;
  cfg.warmup_cycles = 400;
  return cfg;
}

/// Compare two finished runs on every reported metric plus the raw
/// counters the metric flattening rounds through doubles.
void expect_same_result(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(exp::metrics_from(a), exp::metrics_from(b));
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.dram_cycles, b.dram_cycles);
  EXPECT_EQ(a.dram_reads, b.dram_reads);
  EXPECT_EQ(a.dram_writes, b.dram_writes);
  EXPECT_EQ(a.dram_activates, b.dram_activates);
  EXPECT_EQ(a.coord_messages, b.coord_messages);
  EXPECT_EQ(a.sm_no_ready_warp_cycles, b.sm_no_ready_warp_cycles);
  EXPECT_EQ(a.wg_groups_selected, b.wg_groups_selected);
  EXPECT_EQ(a.wg_merb_deferrals, b.wg_merb_deferrals);
  ASSERT_EQ(a.bank_breakdown.size(), b.bank_breakdown.size());
  for (std::size_t c = 0; c < a.bank_breakdown.size(); ++c) {
    for (std::size_t bk = 0; bk < a.bank_breakdown[c].size(); ++bk) {
      EXPECT_EQ(a.bank_breakdown[c][bk].activates,
                b.bank_breakdown[c][bk].activates)
          << "channel " << c << " bank " << bk;
    }
  }
}

// ---------------------------------------------------------------------------
// The core contract: straight-through vs save/load/resume, however the run
// is cut.  Each instance name keeps the suite's established test IDs:
// `shardsN` cuts the run at N evenly spaced cycles (every cut saves, loads
// into a fresh simulator and continues from there), and `ff`/`noff` says
// whether each cut goes through a snapshot file (save_snapshot_file /
// load_snapshot_file) or stays an in-memory buffer.

class CkptResume
    : public ::testing::TestWithParam<
          std::tuple<SchedulerKind, const char*, std::uint32_t, bool>> {};

TEST_P(CkptResume, ResumeMatchesStraightThrough) {
  const auto [sched, scenario, cuts, via_file] = GetParam();
  const SimConfig cfg = scenario_cfg(sched, scenario);

  const RunResult straight = Simulator(cfg).run();

  std::string name =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  const std::string path =
      ::testing::TempDir() + "latdiv_resume_" + name + ".snap";
  auto sim = std::make_unique<Simulator>(cfg);
  for (std::uint32_t k = 1; k <= cuts; ++k) {
    const Cycle cut = cfg.max_cycles * k / (cuts + 1);
    sim->run_to(cut);
    ASSERT_EQ(sim->now(), cut);
    const std::vector<unsigned char> snap = ckpt::save_snapshot(*sim);

    auto resumed = std::make_unique<Simulator>(cfg);
    if (via_file) {
      ckpt::save_snapshot_file(*sim, path);
      ckpt::load_snapshot_file(*resumed, path);
      std::remove(path.c_str());
    } else {
      ckpt::load_snapshot(*resumed, snap.data(), snap.size());
    }
    ASSERT_EQ(resumed->now(), cut);

    // Snapshot-of-resume stability: the loaded simulator re-serializes to
    // the exact bytes it was loaded from (basis of CI's golden hash).
    EXPECT_EQ(ckpt::save_snapshot(*resumed), snap) << "cut " << k;
    sim = std::move(resumed);
  }

  sim->run_to(cfg.max_cycles);
  expect_same_result(straight, sim->finish());
}

INSTANTIATE_TEST_SUITE_P(
    SchedXScenXShardsXFf, CkptResume,
    ::testing::Combine(
        ::testing::Values(SchedulerKind::kGmc, SchedulerKind::kWgM,
                          SchedulerKind::kWgW),
        ::testing::Values("pointer-chase", "powerlaw-rows",
                          "threshold-compact"),
        ::testing::Values(1u, 2u, 6u), ::testing::Bool()),
    [](const auto& info) {
      std::string n = to_string(std::get<0>(info.param));
      n += '_';
      n += std::get<1>(info.param);
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n + "_shards" + std::to_string(std::get<2>(info.param)) +
             (std::get<3>(info.param) ? "_ff" : "_noff");
    });

// The config fingerprint excludes max_cycles: a snapshot taken in a short
// run resumes into a longer one with the result of running the longer
// configuration straight through.
TEST(CkptResumeCross, SnapshotResumesIntoALongerRun) {
  const SimConfig cfg = scenario_cfg(SchedulerKind::kWgW, "powerlaw-rows");
  SimConfig longer = cfg;
  longer.max_cycles = 2 * cfg.max_cycles;
  const RunResult straight = Simulator(longer).run();

  Simulator paused(cfg);
  paused.run_to(cfg.max_cycles / 2);
  const std::vector<unsigned char> snap = ckpt::save_snapshot(paused);

  Simulator resumed(longer);
  ckpt::load_snapshot(resumed, snap.data(), snap.size());
  resumed.run_to(longer.max_cycles);
  expect_same_result(straight, resumed.finish());
}

// The statistical generator frontend (no custom source) round-trips its
// per-warp RNG streams the same way the scenario kernels do.
TEST(CkptResumeGenerator, GeneratorCursorsRoundTrip) {
  SimConfig cfg;
  cfg.shrink_for_tests();
  cfg.scheduler = SchedulerKind::kWgM;
  cfg.workload = profile_by_name("bfs");
  cfg.max_cycles = 4'000;
  cfg.warmup_cycles = 400;

  const RunResult straight = Simulator(cfg).run();
  Simulator paused(cfg);
  paused.run_to(1'000);
  const std::vector<unsigned char> snap = ckpt::save_snapshot(paused);
  Simulator resumed(cfg);
  ckpt::load_snapshot(resumed, snap.data(), snap.size());
  resumed.run_to(cfg.max_cycles);
  expect_same_result(straight, resumed.finish());
}

// Observability artifacts (request trace, time series, metrics export)
// must also be byte-identical across a pause/resume: the obs hub's
// buffers, named-track sets and series CSV all travel in the snapshot.
TEST(CkptResumeObs, TraceTimeseriesAndMetricsBytesMatch) {
  SimConfig cfg = scenario_cfg(SchedulerKind::kWgM, "pointer-chase");
  cfg.obs.trace = true;
  cfg.obs.timeseries = true;
  cfg.obs.sample_interval = 250;

  std::string trace1, series1, metrics1;
  {
    Simulator sim(cfg);
    (void)sim.run();
    trace1 = sim.obs()->trace_json();
    series1 = sim.obs()->timeseries_csv();
    metrics1 = sim.obs()->metrics_json();
  }
  Simulator paused(cfg);
  paused.run_to(2'000);
  const std::vector<unsigned char> snap = ckpt::save_snapshot(paused);
  Simulator resumed(cfg);
  ckpt::load_snapshot(resumed, snap.data(), snap.size());
  (void)resumed.run();
  EXPECT_EQ(trace1, resumed.obs()->trace_json());
  EXPECT_EQ(series1, resumed.obs()->timeseries_csv());
  EXPECT_EQ(metrics1, resumed.obs()->metrics_json());
}

// Checker shadow state (protocol timing shadows, invariant audit count)
// resumes mid-run without false violations.
TEST(CkptResumeCheckers, ShadowStateRoundTrips) {
  SimConfig cfg = scenario_cfg(SchedulerKind::kGmc, "threshold-compact");
  cfg.check.protocol = true;
  cfg.check.invariants = true;

  Simulator straight(cfg);
  (void)straight.run();
  Simulator paused(cfg);
  paused.run_to(2'000);
  const std::vector<unsigned char> snap = ckpt::save_snapshot(paused);
  Simulator resumed(cfg);
  ckpt::load_snapshot(resumed, snap.data(), snap.size());
  (void)resumed.run();

  for (std::size_t p = 0; p < cfg.icnt.partitions; ++p) {
    ASSERT_NE(straight.protocol_checker(p), nullptr);
    EXPECT_EQ(straight.protocol_checker(p)->violations().size(),
              resumed.protocol_checker(p)->violations().size());
    EXPECT_EQ(straight.protocol_checker(p)->commands_checked(),
              resumed.protocol_checker(p)->commands_checked());
  }
  ASSERT_NE(straight.invariant_checker(), nullptr);
  EXPECT_EQ(straight.invariant_checker()->violations().size(),
            resumed.invariant_checker()->violations().size());
}

// ---------------------------------------------------------------------------
// File round-trip and the inspect walk.

TEST(CkptFile, SaveLoadInspectRoundTrip) {
  SimConfig cfg = scenario_cfg(SchedulerKind::kWgM, "powerlaw-rows");
  Simulator paused(cfg);
  paused.run_to(1'500);

  const std::string path = ::testing::TempDir() + "latdiv_ckpt_test.snap";
  ckpt::save_snapshot_file(paused, path);

  const ckpt::SnapshotInfo info = ckpt::inspect_snapshot_file(path);
  EXPECT_EQ(info.version, ckpt::kSnapshotVersion);
  EXPECT_EQ(info.fingerprint, ckpt::config_fingerprint(cfg));
  EXPECT_EQ(info.cycle, 1'500u);
  ASSERT_EQ(info.sections.size(), 7u);
  const char* kOrder[] = {"CORE", "SRCE", "GPUS", "ICNT",
                          "MCTL", "CHKR", "OBSV"};
  std::uint64_t total = ckpt::kSnapshotHeaderBytes;
  for (std::size_t i = 0; i < info.sections.size(); ++i) {
    EXPECT_EQ(info.sections[i].tag, kOrder[i]);
    total += 8 + info.sections[i].payload_bytes + 4;
  }
  EXPECT_EQ(info.file_bytes, total);

  Simulator resumed(cfg);
  ckpt::load_snapshot_file(resumed, path);
  EXPECT_EQ(resumed.now(), 1'500u);
  std::remove(path.c_str());
}

TEST(CkptFile, MissingFileThrows) {
  SimConfig cfg = scenario_cfg(SchedulerKind::kGmc, "pointer-chase");
  Simulator sim(cfg);
  EXPECT_THROW(
      ckpt::load_snapshot_file(sim, "/nonexistent/latdiv.snap"),
      ckpt::CkptError);
  EXPECT_THROW((void)ckpt::inspect_snapshot_file("/nonexistent/latdiv.snap"),
               ckpt::CkptError);
}

// ---------------------------------------------------------------------------
// Error taxonomy: every malformed input is a pinned CkptError message.

class CkptErrors : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_ = scenario_cfg(SchedulerKind::kWgM, "pointer-chase");
    Simulator sim(cfg_);
    sim.run_to(1'000);
    snap_ = ckpt::save_snapshot(sim);
  }

  void expect_load_error(const std::vector<unsigned char>& bytes,
                         const std::string& message) {
    Simulator sim(cfg_);
    try {
      ckpt::load_snapshot(sim, bytes.data(), bytes.size());
      FAIL() << "expected CkptError: " << message;
    } catch (const ckpt::CkptError& e) {
      EXPECT_EQ(std::string(e.what()), message);
    }
  }

  /// Recompute the header CRC after patching header fields, so the edit
  /// under test is the only corruption the loader sees.
  static void fix_header_crc(std::vector<unsigned char>& bytes) {
    put_le32(bytes.data() + 20, crc32(bytes.data(), 20));
  }

  SimConfig cfg_;
  std::vector<unsigned char> snap_;
};

TEST_F(CkptErrors, EmptyInput) {
  expect_load_error({}, "snapshot truncated: missing header");
}

TEST_F(CkptErrors, BadMagic) {
  std::vector<unsigned char> bad = snap_;
  bad[0] = 'X';
  expect_load_error(bad, "not a latdiv snapshot (bad magic)");
}

TEST_F(CkptErrors, HeaderCrcMismatch) {
  std::vector<unsigned char> bad = snap_;
  bad[12] ^= 0xff;  // cycle field; CRC not recomputed
  expect_load_error(bad, "snapshot corrupt: header CRC mismatch");
}

TEST_F(CkptErrors, UnsupportedVersion) {
  std::vector<unsigned char> bad = snap_;
  put_le32(bad.data() + 4, 2);
  fix_header_crc(bad);
  expect_load_error(bad, "unsupported snapshot version 2 (expected 1)");
}

TEST_F(CkptErrors, FingerprintMismatch) {
  SimConfig other = cfg_;
  other.seed = cfg_.seed + 1;
  Simulator sim(other);
  try {
    ckpt::load_snapshot(sim, snap_.data(), snap_.size());
    FAIL() << "expected fingerprint mismatch";
  } catch (const ckpt::CkptError& e) {
    EXPECT_EQ(std::string(e.what()),
              "snapshot configuration fingerprint mismatch: the snapshot "
              "was taken under a different simulation configuration");
  }
}

TEST_F(CkptErrors, TruncatedBody) {
  std::vector<unsigned char> bad(snap_.begin(), snap_.begin() + 64);
  Simulator sim(cfg_);
  EXPECT_THROW(ckpt::load_snapshot(sim, bad.data(), bad.size()),
               ckpt::CkptError);
  EXPECT_THROW((void)ckpt::inspect_snapshot(bad.data(), bad.size()),
               ckpt::CkptError);
}

TEST_F(CkptErrors, CorruptedPayloadFailsSectionCrc) {
  std::vector<unsigned char> bad = snap_;
  bad[ckpt::kSnapshotHeaderBytes + 8 + 2] ^= 0xff;  // inside CORE payload
  expect_load_error(bad, "snapshot corrupt: CRC mismatch in section 'CORE'");
  EXPECT_THROW((void)ckpt::inspect_snapshot(bad.data(), bad.size()),
               ckpt::CkptError);
}

TEST_F(CkptErrors, CustomPolicyRefusesToSnapshot) {
  SimConfig cfg = cfg_;
  cfg.custom_policy = [gmc = cfg.gmc](ChannelId, const DramTiming&) {
    return std::make_unique<GmcPolicy>(gmc);
  };
  Simulator sim(cfg);
  try {
    (void)ckpt::save_snapshot(sim);
    FAIL() << "expected custom-policy refusal";
  } catch (const ckpt::CkptError& e) {
    EXPECT_EQ(std::string(e.what()),
              "cannot snapshot a run with a custom scheduling policy");
  }
}

TEST_F(CkptErrors, RecordingRunRefusesToSnapshot) {
  SimConfig cfg = cfg_;
  cfg.record_trace_path = ::testing::TempDir() + "latdiv_ckpt_rec.trace";
  Simulator sim(cfg);
  try {
    (void)ckpt::save_snapshot(sim);
    FAIL() << "expected trace-recording refusal";
  } catch (const ckpt::CkptError& e) {
    EXPECT_EQ(std::string(e.what()), "cannot snapshot a trace-recording run");
  }
  std::remove(cfg.record_trace_path.c_str());
}

TEST_F(CkptErrors, NonCheckpointableSourceRefusesToSnapshot) {
  struct IdleSource final : InstrSource {
    [[nodiscard]] WarpInstr next(SmId, WarpId) override {
      WarpInstr instr;
      instr.kind = WarpInstr::Kind::kCompute;
      instr.latency = 8;
      instr.active_lanes = 0;
      return instr;
    }
  };
  SimConfig cfg = cfg_;
  cfg.instr_source = [](std::uint32_t, std::uint32_t, std::uint64_t) {
    return std::unique_ptr<InstrSource>(new IdleSource);
  };
  Simulator sim(cfg);
  try {
    (void)ckpt::save_snapshot(sim);
    FAIL() << "expected non-checkpointable source refusal";
  } catch (const ckpt::CkptError& e) {
    EXPECT_EQ(std::string(e.what()),
              "instruction source does not support checkpointing (save)");
  }
}

}  // namespace
}  // namespace latdiv
