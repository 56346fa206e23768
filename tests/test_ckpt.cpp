// Checkpoint determinism contract (src/ckpt): loading a snapshot taken
// at cycle C into a fresh simulator and running to the end must be
// byte-identical to the run that never paused — across schedulers,
// workload frontends, the number of cuts, and file vs memory-buffer
// snapshots.
// DESIGN.md "Checkpoint, sampling & determinism contract" states the
// guarantee; this suite is its enforcement.
//
// Also covered here: snapshot-of-resume stability (re-saving at the same
// cycle reproduces the same bytes, the basis of CI's golden-hash job),
// the inspect walk, and the full CkptError taxonomy — truncation,
// corruption, version/fingerprint mismatches, and the save/load
// refusals — every failure is a pinned message, never silent UB.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "common/crc32.hpp"
#include "common/endian.hpp"
#include "common/rng.hpp"
#include "core/policy_wg.hpp"
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
// load_snapshot_file) or stays a memory buffer.

/// Snapshot path unique to the running test.
std::string test_snapshot_path() {
  std::string name =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  return ::testing::TempDir() + "latdiv_resume_" + name + ".snap";
}

/// Run `cfg` straight through, then again cut at `cuts` evenly spaced
/// cycles (each cut saves, loads into a fresh simulator and continues),
/// and require identical results.
void expect_resume_matches(const SimConfig& cfg, std::uint32_t cuts,
                           bool via_file) {
  const RunResult straight = Simulator(cfg).run();
  const std::string path = test_snapshot_path();

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

class CkptResume
    : public ::testing::TestWithParam<
          std::tuple<SchedulerKind, const char*, std::uint32_t, bool>> {};

TEST_P(CkptResume, ResumeMatchesStraightThrough) {
  const auto [sched, scenario, cuts, via_file] = GetParam();
  expect_resume_matches(scenario_cfg(sched, scenario), cuts, via_file);
}

INSTANTIATE_TEST_SUITE_P(
    SchedXScenXShardsXFf, CkptResume,
    ::testing::Combine(
        ::testing::Values(SchedulerKind::kGmc, SchedulerKind::kWgM,
                          SchedulerKind::kWgW, SchedulerKind::kSbwas,
                          SchedulerKind::kFrFcfs),
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

// The hot path's derived state is rebuilt after a load, never saved: the
// SM issue masks (exercised hardest by LRR, whose scan start rotates), the
// crossbar head-target masks (WAFCFS turns on sticky grants, which test
// one mask bit) and the controller's command wake.  Cutting at several
// cycles — core-clock and DRAM-only ones alike — must not perturb a run.
// The variant is a std::string, not a const char*, so the parameter gtest
// prints into each test's listing is its text rather than an address.
class CkptResumeDerived
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint32_t>> {
};

TEST_P(CkptResumeDerived, ResumeMatchesStraightThrough) {
  const auto& [v, cuts] = GetParam();
  SimConfig cfg = scenario_cfg(
      v == "WAFCFS" ? SchedulerKind::kWafcfs : SchedulerKind::kWgW,
      "pointer-chase");
  if (v == "LRR") cfg.sm.warp_sched = WarpSchedPolicy::kLrr;
  expect_resume_matches(cfg, cuts, /*via_file=*/false);
}

INSTANTIATE_TEST_SUITE_P(
    LrrAndSticky, CkptResumeDerived,
    ::testing::Combine(::testing::Values(std::string("LRR"),
                                         std::string("WAFCFS")),
                       ::testing::Values(5u, 6u)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_cuts" +
             std::to_string(std::get<1>(info.param));
    });

// Loading rewinds a simulator that already ran past the snapshot: the
// wakes it armed since (the SM's MSHR-deficit records, the WG selection
// wake, the SBWAS and FR-FCFS idle-scan memos) are derived state and
// must not survive the load, or the replayed stretch skips work the first
// pass did.  The WG read-queue index and SBWAS's per-warp counts are
// rebuilt on load; WG-Bw and WG-Sh are the only users of the index's row
// counts and shared-row census.
class CkptRewind
    : public ::testing::TestWithParam<std::tuple<SchedulerKind, std::string>> {
};

TEST_P(CkptRewind, LoadIntoARunSimulatorMatchesStraightRun) {
  const auto [sched, scenario] = GetParam();
  const SimConfig cfg = scenario_cfg(sched, scenario);
  const RunResult straight = Simulator(cfg).run();

  Simulator sim(cfg);
  sim.run_to(cfg.max_cycles / 2);
  const std::vector<unsigned char> snap = ckpt::save_snapshot(sim);
  sim.run_to(cfg.max_cycles * 3 / 4);
  ckpt::load_snapshot(sim, snap.data(), snap.size());
  ASSERT_EQ(sim.now(), cfg.max_cycles / 2);
  sim.run_to(cfg.max_cycles);
  expect_same_result(straight, sim.finish());
}

INSTANTIATE_TEST_SUITE_P(
    SchedXScen, CkptRewind,
    ::testing::Combine(::testing::Values(SchedulerKind::kGmc,
                                         SchedulerKind::kWgW,
                                         SchedulerKind::kWgBw,
                                         SchedulerKind::kWgShared,
                                         SchedulerKind::kSbwas,
                                         SchedulerKind::kFrFcfs),
                       ::testing::Values(std::string("pointer-chase"),
                                         std::string("powerlaw-rows"),
                                         std::string("threshold-compact"))),
    [](const auto& info) {
      std::string n = to_string(std::get<0>(info.param));
      n += '_';
      n += std::get<1>(info.param);
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
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
// Byte-level helpers for tests that patch a saved snapshot.

/// Recompute the header CRC after patching header fields, so the edit
/// under test is the only corruption the loader sees.
void fix_header_crc(std::vector<unsigned char>& bytes) {
  put_le32(bytes.data() + 20, crc32(bytes.data(), 20));
}

/// Payload offset and length of section `tag` (throws if absent).
std::pair<std::size_t, std::size_t> section(
    const std::vector<unsigned char>& bytes, const char* tag) {
  std::size_t pos = ckpt::kSnapshotHeaderBytes;
  while (pos + 8 <= bytes.size()) {
    const std::size_t len = get_le32(bytes.data() + pos + 4);
    if (std::memcmp(bytes.data() + pos, tag, 4) == 0) return {pos + 8, len};
    pos += 8 + len + 4;
  }
  throw std::runtime_error(std::string("no section ") + tag);
}

/// Recompute section `tag`'s CRC after patching its payload.
void fix_section_crc(std::vector<unsigned char>& bytes, const char* tag) {
  const auto [at, len] = section(bytes, tag);
  put_le32(bytes.data() + at + len, crc32(bytes.data() + at, len));
}

// ---------------------------------------------------------------------------
// Byte pins: the CRC-32 of save_snapshot at a fixed cycle for the walks the
// GMC sha256 golden does not reach — the warp-group table with its
// selection and coordination history (WG-W), the ZLD started set, and the
// observability state (metric registry, attribution join maps, named
// track sets) of a WG-Sh run with every obs artifact on.  A change to any
// of these values is a snapshot format change.

constexpr Cycle kGoldenCycle = 2'000;
/// The WG-W pin's cycle: one at which a selected group is still draining
/// (pointer-chase groups are small, so a selection is usually brief).
constexpr Cycle kWgGoldenCycle = 2'041;

SimConfig golden_obs_cfg() {
  SimConfig cfg = scenario_cfg(SchedulerKind::kWgShared, "powerlaw-rows");
  cfg.obs.trace = true;
  cfg.obs.timeseries = true;
  cfg.obs.attrib = true;
  cfg.obs.sample_interval = 250;
  return cfg;
}

std::vector<unsigned char> snapshot_at(const SimConfig& cfg, Cycle at) {
  Simulator sim(cfg);
  sim.run_to(at);
  return ckpt::save_snapshot(sim);
}

std::uint32_t snapshot_crc(const SimConfig& cfg, Cycle at = kGoldenCycle) {
  const std::vector<unsigned char> snap = snapshot_at(cfg, at);
  return crc32(snap.data(), snap.size());
}

TEST(CkptGolden, WgWarpGroupTable) {
  const SimConfig cfg = scenario_cfg(SchedulerKind::kWgW, "pointer-chase");
  // The pinned state holds queued groups, a selected group and applied
  // coordination messages on some controller.
  Simulator sim(cfg);
  sim.run_to(kWgGoldenCycle);
  bool groups = false;
  bool selected = false;
  std::uint64_t msgs = 0;
  for (std::size_t p = 0; p < cfg.icnt.partitions; ++p) {
    const auto* wg =
        dynamic_cast<const WgPolicy*>(&sim.partition(p).mc().policy());
    ASSERT_NE(wg, nullptr);
    groups = groups || !wg->groups().empty();
    selected = selected || wg->current().has_value();
    msgs += wg->wg_stats()->coord_msgs_applied;
  }
  EXPECT_TRUE(groups);
  EXPECT_TRUE(selected);
  EXPECT_GT(msgs, 0u);
  EXPECT_EQ(snapshot_crc(cfg, kWgGoldenCycle), 0x8114b9ecu);
}

TEST(CkptGolden, ZldStartedSet) {
  EXPECT_EQ(snapshot_crc(scenario_cfg(SchedulerKind::kZld, "pointer-chase")),
            0x6417b709u);
}

TEST(CkptGolden, WgSharedWithObservability) {
  const SimConfig cfg = golden_obs_cfg();
  Simulator sim(cfg);
  sim.run_to(kGoldenCycle);
  ASSERT_NE(sim.obs(), nullptr);
  EXPECT_FALSE(sim.obs()->trace_json().empty());
  EXPECT_EQ(snapshot_crc(cfg), 0xee44e875u);
}

// The section CRCs above are computed eight bytes per step; the sliced
// fold must equal the plain one-byte-per-step CRC-32 at every length,
// alignment and seed, so no snapshot or trace checksum can move.
std::uint32_t crc32_bytewise(const unsigned char* p, std::size_t n,
                             std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(CkptCrc32, SlicedMatchesBytewiseReference) {
  const char check[] = "123456789";
  EXPECT_EQ(crc32(check, 9), 0xCBF43926u);  // the CRC-32 check value
  Rng rng(7);
  std::vector<unsigned char> buf(96);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.next());
  for (std::size_t at = 0; at < 8; ++at) {
    for (std::size_t n = 0; at + n <= buf.size(); ++n) {
      const std::uint32_t seed = static_cast<std::uint32_t>(rng.next());
      ASSERT_EQ(crc32(buf.data() + at, n, seed),
                crc32_bytewise(buf.data() + at, n, seed))
          << "offset " << at << " length " << n;
    }
  }
  // Chaining discontiguous pieces equals one pass over the whole.
  const std::uint32_t head = crc32(buf.data(), 13);
  EXPECT_EQ(crc32(buf.data() + 13, buf.size() - 13, head),
            crc32(buf.data(), buf.size()));
}

// ---------------------------------------------------------------------------
// Seeded payload fuzz: single-field and single-byte mutants of the pinned
// WG-W and observability snapshots, each with its section CRC resealed so
// the mutant reaches the field walk.  Loading each into a fresh simulator
// must either succeed or raise CkptError — never another exception type,
// and never a crash (the sanitizer build runs this too).

/// Load `bytes` into a fresh simulator: "loaded", "CkptError", or a
/// description of any other exception that escapes.
std::string load_outcome(const SimConfig& cfg,
                         const std::vector<unsigned char>& bytes) {
  Simulator sim(cfg);
  try {
    ckpt::load_snapshot(sim, bytes.data(), bytes.size());
  } catch (const ckpt::CkptError&) {
    return "CkptError";
  } catch (const std::exception& e) {
    return std::string("escaped: ") + e.what();
  } catch (...) {
    return "escaped: non-std exception";
  }
  return "loaded";
}

void fuzz_payloads(const SimConfig& cfg, Cycle at, std::uint64_t seed,
                   int mutants) {
  const char* const kSections[] = {"CORE", "SRCE", "GPUS", "ICNT",
                                   "MCTL", "CHKR", "OBSV"};
  const std::vector<unsigned char> snap = snapshot_at(cfg, at);
  Rng rng(seed);
  int loaded = 0;
  int refused = 0;
  for (int i = 0; i < mutants; ++i) {
    const char* tag = kSections[rng.below(std::size(kSections))];
    const auto [begin, len] = section(snap, tag);
    if (len == 0) continue;
    std::vector<unsigned char> bad = snap;
    const std::size_t off = begin + rng.below(len);
    std::string what;
    if (rng.below(2) == 0) {
      // One byte: flip a random nonzero mask.
      const auto mask = static_cast<unsigned char>(1 + rng.below(255));
      bad[off] ^= mask;
      what = "byte " + std::to_string(off) + " ^= " + std::to_string(mask);
    } else {
      // One field: a boundary or random value over 1, 2, 4 or 8 bytes.
      const std::size_t width = std::size_t{1} << rng.below(4);
      const std::size_t room = std::min(width, begin + len - off);
      const std::uint64_t kValues[] = {
          0, 1, 2, 0xff, 0xffff, 0xffffffffu, ~std::uint64_t{0},
          std::uint64_t{1} << 32};
      const std::uint64_t v =
          rng.below(3) == 0 ? rng.next() : kValues[rng.below(8)];
      for (std::size_t b = 0; b < room; ++b) {
        bad[off + b] = static_cast<unsigned char>(v >> (8 * b));
      }
      what = "field " + std::to_string(off) + " = " + std::to_string(v);
    }
    fix_section_crc(bad, tag);
    const std::string outcome = load_outcome(cfg, bad);
    if (outcome == "loaded") {
      ++loaded;
    } else if (outcome == "CkptError") {
      ++refused;
    } else {
      ADD_FAILURE() << "mutant " << i << " in " << tag << ": " << what << ": "
                    << outcome;
    }
  }
  // Mutants of plain counters and timestamps load, mutants of counts and
  // geometry are refused: both outcomes show the mutants reach the walk.
  EXPECT_GT(loaded, 0);
  EXPECT_GT(refused, 0);
}

TEST(CkptFuzz, SealedMutantsFailWithCkptErrorOrLoad) {
  fuzz_payloads(scenario_cfg(SchedulerKind::kWgW, "pointer-chase"),
                kWgGoldenCycle, 0x5eed1, 1'500);
  fuzz_payloads(golden_obs_cfg(), kGoldenCycle, 0x5eed2, 1'500);
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
    expect_load_error(cfg_, bytes, message);
  }

  static void expect_load_error(const SimConfig& cfg,
                                const std::vector<unsigned char>& bytes,
                                const std::string& message) {
    Simulator sim(cfg);
    try {
      ckpt::load_snapshot(sim, bytes.data(), bytes.size());
      FAIL() << "expected CkptError: " << message;
    } catch (const ckpt::CkptError& e) {
      EXPECT_EQ(std::string(e.what()), message);
    }
  }

  /// Step `sim` until some controller has a queued read; return it.
  MemoryController& controller_with_reads(Simulator& sim) {
    for (Cycle c = sim.now() + 1; c < cfg_.max_cycles; ++c) {
      for (std::size_t p = 0; p < cfg_.icnt.partitions; ++p) {
        MemoryController& mc = sim.partition(p).mc();
        if (!mc.read_queue().empty()) return mc;
      }
      sim.run_to(c);
    }
    throw std::runtime_error("no controller ever queued a read");
  }

  /// Step `sim` until `ready(sim)` holds.
  template <class Pred>
  void step_until(Simulator& sim, Pred ready) {
    for (Cycle c = sim.now() + 1; !ready(sim); ++c) {
      if (c >= cfg_.max_cycles) throw std::runtime_error("state never reached");
      sim.run_to(c);
    }
  }

  // Byte sizes of io_req / io_resp records (src/ckpt/snapshot.cpp): addr,
  // kind, tag (sm, warp, instr), loc (channel, bank, group, row, col),
  // reqs_in_instr, last_of_group, row_outcome and four timestamps.
  static constexpr std::size_t kReqBytes = 8 + 1 + 12 + 11 + 2 + 1 + 1 + 32;
  static constexpr std::size_t kRespBytes = 8 + 12 + 8 + 2;

  /// Absolute offsets of partition 0's storage counts in a snapshot,
  /// found by walking the MCTL payload in the field order of
  /// Partition::ckpt_io and MemoryController::ckpt_io.  Counts are u64.
  struct Partition0 {
    std::size_t mshr_count = 0;
    std::vector<std::size_t> mshr_line;  ///< each entry's line; its
                                         ///< waiter count follows
    std::size_t pipeline = 0;
    std::size_t fills = 0;
    std::size_t responses = 0;
    std::vector<std::size_t> bank_q;
    std::size_t heap = 0;
  };
  static Partition0 walk_partition0(const std::vector<unsigned char>& bytes,
                                    Simulator& sim) {
    const DramTiming& t = sim.partition(0).mc().channel().timing();
    const std::size_t bank_groups = t.banks / t.banks_per_group;
    std::size_t at = section(bytes, "MCTL").first + 8;  // partition count
    const auto u64 = [&bytes](std::size_t pos) {
      return static_cast<std::size_t>(get_le64(bytes.data() + pos));
    };
    const auto skip_seq = [&](std::size_t item_bytes) {
      const std::size_t count_at = at;
      at += 8 + u64(count_at) * item_bytes;
      return count_at;
    };
    Partition0 p;
    at += 8;                        // L2 use clock
    (void)skip_seq(8 + 1 + 1 + 8);  // L2 lines: tag, valid, dirty, last use
    at += 4 * 8;                    // L2 stats
    p.mshr_count = at;
    const std::size_t entries = u64(at);
    at += 8;
    for (std::size_t i = 0; i < entries; ++i) {
      p.mshr_line.push_back(at);
      at += 8;
      (void)skip_seq(kReqBytes);
    }
    at += 4 * 8;  // MSHR stats
    p.pipeline = skip_seq(8 + kReqBytes);
    p.fills = skip_seq(kReqBytes);
    p.responses = skip_seq(kRespBytes);
    at += 7 * 8;                 // partition stats
    at += 2 * 8;                 // drain-episode accounting
    (void)skip_seq(kReqBytes);   // read queue
    (void)skip_seq(kReqBytes);   // write queue
    const std::size_t banks = u64(at);
    at += 8;
    for (std::size_t b = 0; b < banks; ++b) {
      p.bank_q.push_back(skip_seq(kReqBytes));
    }
    at += banks * (4 + 4) + 1 + 1 + 4 + bank_groups * 4;  // tails, modes, RR
    p.heap = at;
    return p;
  }

  /// Save `sim`, overwrite the u64 at `pos` (from walk_partition0) in the
  /// section `tag`, fix its CRC and expect `message` at load.
  void expect_patched_error(std::vector<unsigned char> bytes, std::size_t pos,
                            std::uint64_t value, const char* tag,
                            const std::string& message) {
    put_le64(bytes.data() + pos, value);
    fix_section_crc(bytes, tag);
    expect_load_error(bytes, message);
  }

  /// Save `sim` and expect loading the bytes to fail with `message`.
  void expect_resave_error(const Simulator& sim, const std::string& message) {
    expect_load_error(ckpt::save_snapshot(sim), message);
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
  put_le32(bad.data() + 4, 2);  // the retired v2 layout
  fix_header_crc(bad);
  expect_load_error(bad, "unsupported snapshot version 2 (expected 3)");
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

// Controller requests index per-bank arrays (and WG's 32-bit bank masks):
// a request naming a bank past the device or another channel is refused
// at load, not left to abort a later bank lookup.
TEST_F(CkptErrors, ControllerRequestBankOutOfRange) {
  Simulator sim(cfg_);
  MemoryController& mc = controller_with_reads(sim);
  mc.read_queue().front().loc.bank = static_cast<BankId>(cfg_.dram.banks);
  expect_resave_error(
      sim, "snapshot corrupt: controller request for an unknown bank");
}

TEST_F(CkptErrors, ControllerRequestOnAnotherChannel) {
  Simulator sim(cfg_);
  MemoryController& mc = controller_with_reads(sim);
  mc.read_queue().front().loc.channel = static_cast<ChannelId>(mc.id() + 1);
  expect_resave_error(
      sim, "snapshot corrupt: controller request for another channel");
}

// Policies find queued reads by binary search on arrival.
TEST_F(CkptErrors, ReadQueueOutOfArrivalOrder) {
  Simulator sim(cfg_);
  MemoryController* mc = nullptr;
  step_until(sim, [&](Simulator& s) {
    for (std::size_t p = 0; p < cfg_.icnt.partitions && mc == nullptr; ++p) {
      if (s.partition(p).mc().read_queue().size() >= 2) {
        mc = &s.partition(p).mc();
      }
    }
    return mc != nullptr;
  });
  // The front now arrives after every other queued read.
  auto& rq = mc->read_queue();
  rq.front().arrived_at_mc = (rq.end() - 1)->arrived_at_mc + 1;
  expect_resave_error(sim, "snapshot corrupt: read queue out of arrival order");
}

// The WG read-queue index is rebuilt from the read queue on load; a group
// table that contradicts the queue is refused there.
TEST_F(CkptErrors, QueuedReadOfUnknownWarpGroup) {
  Simulator sim(cfg_);
  MemoryController& mc = controller_with_reads(sim);
  mc.read_queue().front().tag.instr = ~WarpInstrUid{0};
  expect_resave_error(sim,
                      "snapshot corrupt: queued read of a warp-group not in "
                      "the group table");
}

TEST_F(CkptErrors, WarpGroupCountDisagreesWithReadQueue) {
  Simulator sim(cfg_);
  MemoryController& mc = controller_with_reads(sim);
  ASSERT_FALSE(mc.read_queue().full());
  mc.read_queue().push(mc.read_queue().front());  // a read seen only once
  expect_resave_error(sim,
                      "snapshot corrupt: warp-group request count disagrees "
                      "with the read queue");
}

TEST_F(CkptErrors, SelectedWarpGroupNotInTable) {
  // Step until some controller holds a selected, undrained group.
  Simulator sim(cfg_);
  const WgPolicy* wg = nullptr;
  for (Cycle c = sim.now() + 1; wg == nullptr && c < cfg_.max_cycles; ++c) {
    sim.run_to(c);
    for (std::size_t p = 0; p < cfg_.icnt.partitions; ++p) {
      const auto* w =
          dynamic_cast<const WgPolicy*>(&sim.partition(p).mc().policy());
      ASSERT_NE(w, nullptr);
      if (w->current()) wg = w;
    }
  }
  ASSERT_NE(wg, nullptr);
  const WarpInstrUid uid = *wg->current();
  const WarpTag tag = wg->groups().at(uid).tag;

  // Its group-table entry is the key followed by the group's tag; renaming
  // the key leaves current_ naming no group.
  std::vector<unsigned char> key(20);
  put_le64(key.data(), uid);
  put_le16(key.data() + 8, tag.sm);
  put_le16(key.data() + 10, tag.warp);
  put_le64(key.data() + 12, tag.instr);
  std::vector<unsigned char> bad = ckpt::save_snapshot(sim);
  const auto [at, len] = section(bad, "MCTL");
  const auto begin = bad.begin() + static_cast<std::ptrdiff_t>(at);
  const auto end = begin + static_cast<std::ptrdiff_t>(len);
  const auto hit = std::search(begin, end, key.begin(), key.end());
  ASSERT_NE(hit, end);
  ASSERT_EQ(std::search(hit + 1, end, key.begin(), key.end()), end);
  put_le64(&*hit, ~WarpInstrUid{0});
  fix_section_crc(bad, "MCTL");
  expect_load_error(
      bad, "snapshot corrupt: selected warp-group not in the group table");
}

// Storage sections are bounded by construction-time geometry: a count past
// an MSHR file's entries, a merge list past max_merged, a line listed
// twice or a ring longer than its capacity is refused at load, before
// any element is read.
TEST_F(CkptErrors, MshrMoreEntriesThanItsFile) {
  Simulator sim(cfg_);
  const Partition0 p = walk_partition0(snap_, sim);
  expect_patched_error(snap_, p.mshr_count, kL2Mshr.entries + 1,
                       "MCTL",
                       "snapshot corrupt: MSHR holds more entries than its "
                       "file");
}

TEST_F(CkptErrors, MshrEntryWaiterCountOutOfRange) {
  Simulator sim(cfg_);
  step_until(sim, [](Simulator& s) {
    return s.partition(0).l2_mshr().outstanding() > 0;
  });
  const std::vector<unsigned char> bytes = ckpt::save_snapshot(sim);
  const Partition0 p = walk_partition0(bytes, sim);
  ASSERT_FALSE(p.mshr_line.empty());
  const std::size_t count_at = p.mshr_line[0] + 8;
  const std::string message =
      "snapshot corrupt: MSHR entry waiter count out of range";
  expect_patched_error(bytes, count_at, 0, "MCTL", message);
  expect_patched_error(bytes, count_at, kL2Mshr.max_merged + 1,
                       "MCTL", message);
}

TEST_F(CkptErrors, MshrLineListedTwice) {
  Simulator sim(cfg_);
  step_until(sim, [](Simulator& s) {
    return s.partition(0).l2_mshr().outstanding() > 1;
  });
  const std::vector<unsigned char> bytes = ckpt::save_snapshot(sim);
  const Partition0 p = walk_partition0(bytes, sim);
  ASSERT_GE(p.mshr_line.size(), 2u);
  expect_patched_error(bytes, p.mshr_line[1],
                       get_le64(bytes.data() + p.mshr_line[0]), "MCTL",
                       "snapshot corrupt: MSHR line listed twice");
}

TEST_F(CkptErrors, SequenceCountExceedsSection) {
  // A hostile count must fail before the load resizes the sequence to it
  // (2^62 responses would be an allocation failure, not a CkptError).
  Simulator sim(cfg_);
  const Partition0 p = walk_partition0(snap_, sim);
  expect_patched_error(snap_, p.responses, std::uint64_t{1} << 62, "MCTL",
                       "snapshot corrupt: sequence count exceeds its section");
}

TEST_F(CkptErrors, BankQueueOverCapacity) {
  Simulator sim(cfg_);
  const Partition0 p = walk_partition0(snap_, sim);
  expect_patched_error(snap_, p.bank_q.at(0), cfg_.mc.bank_queue_depth + 1,
                       "MCTL",
                       "snapshot geometry mismatch: bank queue exceeds its "
                       "capacity");
}

TEST_F(CkptErrors, CrossbarQueueOverCapacity) {
  // ICNT opens with the crossbar's SM count, then SM 0's injection queue.
  const std::size_t sm0_queue = section(snap_, "ICNT").first + 8;
  expect_patched_error(snap_, sm0_queue, cfg_.icnt.sm_queue_depth + 1, "ICNT",
                       "snapshot geometry mismatch: crossbar SM queue "
                       "exceeds its capacity");
}

TEST_F(CkptErrors, L2PipelineOverCapacity) {
  Simulator sim(cfg_);
  const Partition0 p = walk_partition0(snap_, sim);
  expect_patched_error(snap_, p.pipeline, 2 * kL2Latency + 1,
                       "MCTL",
                       "snapshot geometry mismatch: L2 pipeline exceeds its "
                       "capacity");
}

TEST_F(CkptErrors, L2FillQueueOverCapacity) {
  Simulator sim(cfg_);
  const Partition0 p = walk_partition0(snap_, sim);
  expect_patched_error(snap_, p.fills, kL2Mshr.entries + 1,
                       "MCTL",
                       "snapshot geometry mismatch: L2 fill queue exceeds its "
                       "capacity");
}

// A bank command queue holds only its own bank's requests, and the
// in-flight read heap must be a heap: both are refused at load otherwise.
TEST_F(CkptErrors, BankQueueRequestForAnotherBank) {
  Simulator sim(cfg_);
  step_until(sim, [](Simulator& s) {
    return s.partition(0).mc().commands_pending() > 0;
  });
  std::vector<unsigned char> bytes = ckpt::save_snapshot(sim);
  const Partition0 p = walk_partition0(bytes, sim);
  std::size_t b = 0;
  while (get_le64(bytes.data() + p.bank_q.at(b)) == 0) ++b;
  // The first request's loc.bank: after addr, kind, tag and loc.channel.
  const std::size_t bank_at = p.bank_q[b] + 8 + 8 + 1 + 12 + 1;
  ASSERT_EQ(bytes[bank_at], b);
  bytes[bank_at] = static_cast<unsigned char>((b + 1) % p.bank_q.size());
  fix_section_crc(bytes, "MCTL");
  expect_load_error(bytes,
                    "snapshot corrupt: bank-queue request for another bank");
}

// The command scan shifts bank masks by the round-robin pointers, so a
// group or in-group pointer past the geometry is refused at load.
TEST_F(CkptErrors, CommandRoundRobinPointerOutOfRange) {
  Simulator sim(cfg_);
  const std::vector<unsigned char> bytes = ckpt::save_snapshot(sim);
  const Partition0 p = walk_partition0(bytes, sim);
  const DramTiming& t = sim.partition(0).mc().channel().timing();
  const std::uint32_t groups = t.banks / t.banks_per_group;
  const std::size_t rr_group_at = p.heap - groups * 4 - 4;
  for (const auto& [at, value] :
       {std::pair{rr_group_at, groups},
        std::pair{rr_group_at + 4 * groups, t.banks_per_group}}) {
    std::vector<unsigned char> bad = bytes;
    ASSERT_LT(get_le32(bad.data() + at), value);
    put_le32(bad.data() + at, value);
    fix_section_crc(bad, "MCTL");
    expect_load_error(
        bad, "snapshot corrupt: command round-robin pointer out of range");
  }
}

TEST_F(CkptErrors, InflightReadHeapOutOfOrder) {
  Simulator sim(cfg_);
  step_until(sim, [](Simulator& s) {
    return s.partition(0).mc().inflight_reads() > 1;
  });
  const std::vector<unsigned char> bytes = ckpt::save_snapshot(sim);
  const Partition0 p = walk_partition0(bytes, sim);
  ASSERT_GE(get_le64(bytes.data() + p.heap), 2u);
  // Entries are (done, request); the root completes no later than its
  // first child.  Make it complete after.
  const std::size_t root_done = p.heap + 8;
  const std::size_t child_done = root_done + 8 + kReqBytes;
  ASSERT_LE(get_le64(bytes.data() + root_done),
            get_le64(bytes.data() + child_done));
  expect_patched_error(bytes, root_done,
                       get_le64(bytes.data() + child_done) + 1, "MCTL",
                       "snapshot corrupt: in-flight read heap out of order");
}

// Load issue looks up one MSHR slot per coalesced line, so a warp's line
// list must hold distinct lines, at most one per lane.
TEST_F(CkptErrors, WarpLineListNotCoalesced) {
  Simulator sim(cfg_);
  sim.run_to(1'000);  // the state snap_ holds
  std::vector<unsigned char> bytes = ckpt::save_snapshot(sim);
  // SM 0's L1 stats followed by its MSHR entry count are a unique run of
  // bytes; walk on from there (Sm::ckpt_io order) to the warp table.
  const CacheStats& l1 = sim.sm(0).l1().stats();
  std::vector<unsigned char> key(5 * 8);
  put_le64(key.data(), l1.hits);
  put_le64(key.data() + 8, l1.misses);
  put_le64(key.data() + 16, l1.evictions);
  put_le64(key.data() + 24, l1.dirty_evictions);
  put_le64(key.data() + 32, sim.sm(0).mshr().outstanding());
  const auto [gpus, len] = section(bytes, "GPUS");
  const auto begin = bytes.begin() + static_cast<std::ptrdiff_t>(gpus);
  const auto end = begin + static_cast<std::ptrdiff_t>(len);
  const auto hit = std::search(begin, end, key.begin(), key.end());
  ASSERT_NE(hit, end);
  ASSERT_EQ(std::search(hit + 1, end, key.begin(), key.end()), end);
  const auto u64 = [&bytes](std::size_t pos) {
    return static_cast<std::size_t>(get_le64(bytes.data() + pos));
  };
  std::size_t at = static_cast<std::size_t>(hit - bytes.begin()) + 32;
  const std::size_t entries = u64(at);
  at += 8;
  for (std::size_t i = 0; i < entries; ++i) at += 16 + u64(at + 8) * kReqBytes;
  at += 4 * 8 + 5 * 8;  // MSHR and coalescer stats
  const std::size_t warps = u64(at);
  at += 8;
  for (std::size_t w = 0; w < warps; ++w) {
    at += 8 + 4 + 1 + 1;  // ready_at, pending_lines, waiting_lsu, has_next
    at += 1 + 4;          // instruction kind and latency
    at += 1 + 8 * std::size_t{bytes[at]};  // active lanes, their addresses
    at += 8;                               // issue_fail_epoch
    const std::size_t lines = u64(at);
    if (lines >= 2) {
      // Repeat the first line in the second place.
      std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(at + 8), 8,
                  bytes.begin() + static_cast<std::ptrdiff_t>(at + 16));
      fix_section_crc(bytes, "GPUS");
      expect_load_error(
          bytes, "snapshot corrupt: warp line list is not a coalesced access");
      return;
    }
    at += 8 + 8 * lines;
  }
  FAIL() << "no warp of SM 0 holds a multi-line access";
}

// A replayed trace's SRCE section holds one cursor per warp.  A cursor
// past the end of its warp's stream is a snapshot error; the replayer's
// own restore() would report it as a TraceError.
TEST_F(CkptErrors, TraceCursorBeyondWarpStream) {
  constexpr std::uint64_t kRecords = 32;
  SimConfig cfg = cfg_;
  cfg.replay_trace_path = ::testing::TempDir() + "latdiv_ckpt_cursor.trace";
  {
    const auto source = scenario::make_scenario(
        scenario::scenario_by_name("pointer-chase"), cfg.num_sms,
        cfg.sm.warps, cfg.seed);
    TraceWriter writer(cfg.replay_trace_path, cfg.num_sms, cfg.sm.warps);
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      for (std::uint32_t sm = 0; sm < cfg.num_sms; ++sm) {
        for (std::uint32_t w = 0; w < cfg.sm.warps; ++w) {
          writer.record(static_cast<SmId>(sm), static_cast<WarpId>(w),
                        source->next(static_cast<SmId>(sm),
                                     static_cast<WarpId>(w)));
        }
      }
    }
  }
  Simulator sim(cfg);
  sim.run_to(500);
  std::vector<unsigned char> bytes = ckpt::save_snapshot(sim);
  // SRCE: the source-kind byte, the warp count, then one cursor per warp.
  const std::size_t first_cursor = section(bytes, "SRCE").first + 1 + 8;
  put_le64(bytes.data() + first_cursor, kRecords);
  fix_section_crc(bytes, "SRCE");
  expect_load_error(cfg, bytes,
                    "snapshot trace cursor beyond the end of a warp stream");
  std::remove(cfg.replay_trace_path.c_str());
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
