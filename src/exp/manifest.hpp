// Named figure manifests.
//
// A manifest binds a paper figure/table to a concrete sweep: its grid
// (workloads x schedulers/variants x seeds) plus the presentation spec
// (title, column order, baseline for the normalized view).  Every paper
// figure, table and ablation is a manifest here, run by
// `latdiv-sweep <name>`, so there is exactly one definition of each
// figure's configuration in the repo.
#pragma once

#include <string>
#include <vector>

#include "exp/point.hpp"
#include "exp/reporter.hpp"

namespace latdiv::exp {

/// Sweep-wide options (the run-shape part of the latdiv-sweep CLI).
struct SweepOptions {
  Cycle cycles = 50'000;
  Cycle warmup = 5'000;
  std::uint64_t seed = 1;
  std::uint32_t seeds = 1;
  bool quick = false;   ///< quarter-length runs for smoke testing
  std::string filter;   ///< substring filter on point ids
  unsigned jobs = 1;    ///< executor threads

  /// Run-length knobs after applying --quick.
  [[nodiscard]] RunShape shape() const;
};

struct Manifest {
  SweepSpec spec;
  ExpGrid grid;
};

/// Every figure manifest this build knows, in presentation order.
[[nodiscard]] const std::vector<std::string>& manifest_names();

/// One-line description for `latdiv-sweep list`.
[[nodiscard]] std::string manifest_summary(const std::string& name);

/// Build the named manifest with opts applied (including the filter).
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Manifest make_manifest(const std::string& name,
                                     const SweepOptions& opts);

}  // namespace latdiv::exp
