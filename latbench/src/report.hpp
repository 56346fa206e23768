// Metric catalogue, statistics and output formats of the benchmark.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/json.hpp"
#include "ledger.hpp"
#include "workloads.hpp"

namespace latbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Median of `v` (0 when empty).
[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1] (0 when empty).
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mib();

/// The per-layer metrics of one traced pass: self times from the ledger
/// (which sum, with trace.unattributed_s, to trace.wall_s), call counts,
/// and the simulated component counters of the pass.
[[nodiscard]] std::vector<Metric> layer_metrics(const LayerTable& t,
                                                const PassResult& pass);

/// Names of the layer metrics that are exact counts and must repeat
/// exactly across passes and runs.
[[nodiscard]] bool is_deterministic(const std::string& metric);

/// The single-line JSON result the benchmark prints last.
[[nodiscard]] std::string result_line(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

/// Metrics as a JSON object {name: value}.
[[nodiscard]] latdiv::exp::JsonValue metrics_json(
    const std::vector<Metric>& metrics);

}  // namespace latbench
