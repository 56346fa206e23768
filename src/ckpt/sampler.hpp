// SMARTS-style interval sampling for billion-cycle runs.
//
// Detailed simulation of the full run is the accuracy gold standard but
// scales linearly with cycles.  The sampled runner instead alternates
//
//   [ detailed warm-up | measured window |   functional warming   ] ...
//   '---- warm_cycles --'-- detail_cycles --'-- rest of the period --'
//
// over every `period_cycles` span: the warm-up re-heats microarchitectural
// state the previous skip could not track (MSHRs, queue occupancy, bank
// timing), the measured window contributes to the metric estimates, and
// the remainder of the period is skipped via Simulator::teleport() after
// *functional* warming — the instruction source is drained at each SM's
// measured issue rate, touching L1 tags and DRAM row buffers once per run
// of adjacent lanes on one line (with exactly the effect of one touch per
// lane), through the simulator's own address map, so cursors and
// long-lived locality survive the jump even though no timing is modelled.
// The per-SM issue-rate estimator is an integer per-mille accumulator
// refreshed from each detailed segment, which keeps the whole procedure
// deterministic and snapshot-friendly (no floating-point state, no
// wall-clock input).
//
// Accuracy/throughput contract (enforced by bench_throughput and
// tests/test_ckpt_sampling.cpp): on >= 1M-cycle scenario runs the default
// schedule simulates less than a fifth of the cycles in detail (>= 5x
// throughput gain) while keeping the geomean IPC error within 2% of the
// straight-through run.  Sampled mode reports *estimates*, never feeds
// artifacts: it requires checkers and the obs hub disabled (teleport's
// precondition), and refuses configs where the measured windows would not
// fit the period.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace latdiv {
class Simulator;
struct SimConfig;
}  // namespace latdiv

namespace latdiv::ckpt {

struct SamplingConfig {
  /// Measured window length, in global (DRAM command clock) cycles.
  Cycle detail_cycles = 8'000;
  /// Detailed-but-unmeasured warm-up preceding each measured window.
  Cycle warm_cycles = 4'000;
  /// Spacing between window starts; the tail beyond warm-up + window is
  /// skipped.  period == warm + detail degenerates to full detail.
  Cycle period_cycles = 120'000;
};

/// One measured window's raw deltas (cycle spans in global cycles).
struct SampledWindow {
  Cycle start = 0;          ///< first measured cycle
  Cycle cycles = 0;         ///< measured span (== detail_cycles unless clipped)
  std::uint64_t instructions = 0;
  std::uint64_t dram_reads = 0;
  std::uint64_t dram_writes = 0;
  std::uint64_t dram_activates = 0;
  std::uint64_t data_bus_busy_cycles = 0;
  double ipc = 0.0;         ///< instructions per *core* cycle in the window
};

struct SampledResult {
  std::vector<SampledWindow> windows;
  Cycle start = 0;  ///< sim.now() when sampling began
  Cycle end = 0;    ///< final cycle (== cfg.max_cycles)
  /// Cycles simulated in detail (warm-ups + windows) — the cost; the
  /// throughput gain over full detail is roughly (end-start)/detailed.
  Cycle detailed_cycles = 0;
  std::uint64_t warm_instructions = 0;  ///< functional-warming draws

  // Whole-run estimates, extrapolated from the measured windows.
  double ipc = 0.0;
  double instructions = 0.0;
  double row_hit_rate = 0.0;
  double bandwidth_utilization = 0.0;
};

/// Drives one prepared simulator (fresh, or restored from a snapshot)
/// from sim.now() to cfg.max_cycles under the sampling schedule.  The
/// simulator must have been constructed with checkers and observability
/// disabled; throws std::invalid_argument otherwise, or for a schedule
/// whose windows do not fit its period.
class SampledRunner {
 public:
  SampledRunner(Simulator& sim, const SamplingConfig& cfg);

  /// Run the whole schedule and aggregate the estimates.  Deterministic:
  /// the same simulator state and config produce the same result (and
  /// leave the simulator in the same state) on every host.
  SampledResult run();

  // Fan-out plumbing (run_sampled, bench): one detailed segment or one
  // warming skip at a time, with the issue-rate estimator optionally
  // frozen so independent workers replay identical skip chains.

  /// Detailed segment [now, now+warm+detail): warm-up, then measure.
  /// Refreshes the issue-rate estimator unless rates are frozen.
  SampledWindow measure_window(Cycle warm, Cycle detail);
  /// Functionally warm the span [now, target), then teleport there.
  void skip_to(Cycle target);
  /// Per-SM issue rates (instructions per 1000 global cycles).
  [[nodiscard]] const std::vector<std::uint64_t>& issue_rates() const {
    return rate_pm_;
  }
  /// Install fixed issue rates; measure_window stops refreshing them.
  void freeze_issue_rates(std::vector<std::uint64_t> rates);
  [[nodiscard]] std::uint64_t warm_instructions() const {
    return warm_instructions_;
  }

 private:
  Simulator& sim_;
  SamplingConfig cfg_;
  std::vector<std::uint64_t> rate_pm_;   ///< per-SM instr per 1000 cycles
  std::vector<std::uint64_t> warm_rr_;   ///< per-SM warp round-robin cursor
  std::uint64_t warm_instructions_ = 0;
  bool rates_frozen_ = false;
};

/// Whole-run sampled simulation of `cfg` with `jobs`-way parallelism over
/// the measured windows.  jobs <= 1 runs the sequential SampledRunner
/// schedule.  jobs > 1 is the fan-out mode: simulate the first (priming)
/// window in detail, snapshot once, freeze the issue-rate estimator, and
/// measure every remaining window on `jobs` threads (parallel_for in
/// common/parallel.hpp) — each worker restores the one snapshot,
/// functionally skips to its own window start and measures independently.  The result is deterministic in `cfg` and
/// `scfg` and *independent of the jobs count* (each window's chain never
/// sees another worker); it differs from the sequential schedule only
/// through the frozen rate estimator.
[[nodiscard]] SampledResult run_sampled(const SimConfig& cfg,
                                        const SamplingConfig& scfg,
                                        unsigned jobs = 1);

}  // namespace latdiv::ckpt
