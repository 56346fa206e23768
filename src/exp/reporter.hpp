// Structured sweep artifacts.
//
// An Artifact is the machine-readable output of one sweep: the run shape,
// every per-point result in grid order, per-cell aggregates (mean/stddev
// over seeds, speedup vs. the manifest's baseline column — the paper's
// normalized presentation), and a per-column geomean summary.  One schema
// ("latdiv-sweep/1") serves every figure and the `latdiv-sweep` CLI; the
// goldens under bench/golden/ are artifacts of this schema.
//
// Serialisation is byte-deterministic (see exp/json.hpp): identical
// simulation results produce identical artifact files regardless of
// --jobs.  Wall-clock timings never enter an artifact: they are
// non-deterministic (`latdiv-sweep --profile` reports them on stderr).
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "exp/executor.hpp"
#include "exp/point.hpp"

namespace latdiv::exp {

inline constexpr const char* kSchemaVersion = "latdiv-sweep/1";

/// Presentation metadata of one sweep (a manifest minus its grid).
struct SweepSpec {
  std::string name;            ///< manifest name, e.g. "fig8"
  std::string title;           ///< banner line
  std::string reference;       ///< the paper's headline claim
  std::string primary_metric = "ipc";  ///< table cell + speedup metric
  std::string baseline_col;    ///< speedup base column ("" = absolute)
  std::vector<std::string> col_order;  ///< explicit column order (optional)
};

struct MeanStd {
  double mean = 0.0;
  double stddev = 0.0;  ///< population stddev over the cell's ok points
};

struct CellAggregate {
  std::string row;
  std::string col;
  std::uint32_t n = 0;       ///< ok points aggregated
  std::uint32_t failed = 0;  ///< failed points in this cell
  /// speedup of the primary metric vs. the baseline column of the same
  /// row (0.0 when there is no baseline, or either mean is unusable).
  double speedup = 0.0;
  std::map<std::string, MeanStd> metrics;
};

struct Artifact {
  std::string schema = kSchemaVersion;
  SweepSpec spec;
  RunShape shape;
  std::vector<PointResult> points;  ///< grid order
  std::vector<CellAggregate> cells; ///< first-appearance order
  /// Per column: geomean over rows of the speedup (baseline set) or of
  /// the primary metric's mean (no baseline).  Baseline column omitted.
  std::map<std::string, double> col_geomean;
};

/// Aggregate point results (grid order) into a full artifact.
[[nodiscard]] Artifact make_artifact(const SweepSpec& spec,
                                     const RunShape& shape,
                                     std::vector<PointResult> points);

/// Serialise (byte-deterministic; PointResult::wall_ms is not written).
[[nodiscard]] std::string to_json(const Artifact& a);

/// Parse an artifact (throws std::runtime_error on malformed input or a
/// schema version this build does not understand).
[[nodiscard]] Artifact artifact_from_json(const std::string& text);

/// Long-format CSV: one row per (point, metric) and per (cell, metric),
/// discriminated by the leading "kind" column.
[[nodiscard]] std::string to_csv(const Artifact& a);

/// Render the figure table of the primary metric (baseline column
/// absolute, others normalized, geomean footer).
void print_table(const Artifact& a, std::FILE* out = stdout);

/// Count of failed points (nonzero => the sweep's exit code should be 1).
[[nodiscard]] std::size_t failed_points(const Artifact& a);

}  // namespace latdiv::exp
