// Parallel sweep executor.
//
// Runs every point of an ExpGrid on `jobs` threads (parallel_for).  Each
// point constructs its own Simulator (the simulator has no global mutable
// state — every stochastic choice flows through the per-instance Rng
// seeded from the point), so points are embarrassingly parallel and the
// result of a sweep is bit-identical regardless of thread count or
// completion order:
//
//   * results are stored at the point's grid index, never appended in
//     completion order;
//   * per-point seeding is fixed at grid-build time (trial t of a cell
//     runs seed base+t), not derived from any shared RNG;
//   * wall-time measurements are captured per point but excluded from
//     deterministic artifacts (reporter opt-in).
//
// Failure isolation: a point whose config hook, analytic function, or
// simulation throws is recorded as failed with the exception message;
// sibling points are unaffected.  (LATDIV_ASSERT violations still abort
// the process by design — those are simulator bugs, not experiment
// errors.)
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/point.hpp"
#include "sim/metrics.hpp"

namespace latdiv::exp {

struct PointResult {
  std::string id;
  std::string row;
  std::string col;
  std::string workload;
  std::string scheduler;  ///< display name ("" for analytic points)
  std::uint64_t seed = 0;
  bool ok = false;
  std::string error;    ///< exception message when !ok
  double wall_ms = 0.0; ///< measurement only; not part of the artifact bytes
  MetricMap metrics;    ///< empty when !ok
};

/// Called after each point completes, under the executor's lock, with a
/// strictly increasing `done` count (1..total).  Safe to print from.
using ProgressFn =
    std::function<void(std::size_t done, std::size_t total,
                       const PointResult& result)>;

/// Flatten a simulation result into the artifact metric namespace.  This
/// is the single place that defines which RunResult fields reporters
/// emit — every sweep artifact and `latdiv-tracegen replay` share it.
[[nodiscard]] MetricMap metrics_from(const RunResult& r);

/// Does the sampled runner (`--sampling`) report `metric`?  Sampled
/// points carry only a small estimate set (the headline rates and
/// `sampled.*`), so a sweep whose table metric is outside it would print
/// zeros.
[[nodiscard]] bool sampled_runner_reports(const std::string& metric);

/// Execute one point in isolation (exposed for tests).
[[nodiscard]] PointResult execute_point(const ExpPoint& p);

/// Run the whole grid on `jobs` threads (clamped to >= 1); results are
/// returned in grid order.
[[nodiscard]] std::vector<PointResult> run_grid(
    const ExpGrid& grid, unsigned jobs, const ProgressFn& progress = {});

}  // namespace latdiv::exp
