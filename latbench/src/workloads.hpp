// The benchmark's workloads and the passes that run them.
//
// A workload is a list of exp points generated from the seed.  One pass
// runs every point once, in grid order, on the calling thread, and
// covers the whole user-visible sweep: expansion, Simulator
// construction, simulation, metric flattening and artifact writing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/executor.hpp"
#include "exp/manifest.hpp"
#include "ledger.hpp"
#include "sim/metrics.hpp"

namespace latbench {

/// The seed the committed reference outputs were produced with.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct WorkloadSpec {
  const char* name;
  /// Reference artifact at the default seed, relative to the repo root.
  const char* reference;
  /// exp manifest run at --quick, or "" for the sampled workload.
  const char* manifest;
};

/// The workload named `name`; null for an unknown name.
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);

/// A workload's points and the presentation spec of its artifact.
struct Plan {
  latdiv::exp::SweepSpec spec;
  latdiv::exp::RunShape shape;
  std::vector<latdiv::exp::ExpPoint> points;
};

[[nodiscard]] Plan expand(const WorkloadSpec& w, std::uint64_t seed);

/// Combined config fingerprint of every point (ckpt::config_fingerprint,
/// folded in grid order).
[[nodiscard]] std::uint32_t plan_fingerprint(const Plan& plan);

/// Simulated component counters, summed over every finished Simulator
/// (rates are averaged).  Exact for a given program and seed.
struct SimCounters {
  std::uint64_t sims = 0;
  std::uint64_t instructions = 0;
  std::uint64_t no_ready_warp_cycles = 0;
  std::uint64_t issue_stall_mshr = 0;
  std::uint64_t inject_stalls = 0;
  std::uint64_t drains_started = 0;
  std::uint64_t dram_reads = 0;
  std::uint64_t dram_writes = 0;
  std::uint64_t dram_activates = 0;
  std::uint64_t groups_selected = 0;
  std::uint64_t merb_deferrals = 0;
  std::uint64_t coord_messages = 0;
  double l1_hit_rate_sum = 0.0;
  double l2_hit_rate_sum = 0.0;
  double row_hit_rate_sum = 0.0;
  double read_queueing_sum = 0.0;

  void add(const latdiv::RunResult& r);
};

enum class Mode {
  kUntraced,  ///< the measured path: exp::execute_point, run_sampled(2 jobs)
  kReplay,    ///< sampled workload only: serial replay of run_sampled
  kTraced,    ///< step loop / serial replay with the layer wrappers
};

struct PassResult {
  std::vector<latdiv::exp::PointResult> points;  ///< grid order
  std::vector<double> point_ms;  ///< host ms per point
  double wall_s = 0.0;           ///< the whole pass
  double simulate_s = 0.0;       ///< simulation calls only
  /// Untraced passes: the pass's expansion plus, for each point, the mean
  /// time of several constructions of its Simulator, built right after
  /// the point ran (destruction excluded; kept out of wall_s).  Traced
  /// passes: the expansion only.
  double setup_s = 0.0;
  /// Untraced passes: mean host-speed probe time, taken right after each
  /// point (probe.hpp; kept out of wall_s).  0 in traced passes.
  double probe_ms = 0.0;
  std::uint64_t cycles = 0; ///< simulated DRAM cycles covered
  double paper_err_pp = 0.0;  ///< fig8 ladder vs the paper (0 elsewhere)
  SimCounters counters;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t windows = 0;
};

/// Run one pass.  `ledger` must be non-null exactly in Mode::kTraced.
/// The artifact (exp "latdiv-sweep/1" JSON) is written to
/// `artifact_path`; an unwritable path throws.
[[nodiscard]] PassResult run_pass(const WorkloadSpec& w, std::uint64_t seed,
                                  Mode mode, Ledger* ledger,
                                  const std::string& artifact_path);

}  // namespace latbench
