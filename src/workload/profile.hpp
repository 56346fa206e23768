// Synthetic workload profiles (paper Table III).
//
// The paper evaluates CUDA binaries under GPGPU-Sim; we substitute
// statistical generators calibrated to the per-benchmark memory behaviour
// the paper itself reports (see DESIGN.md):
//   * Fig. 2 — fraction of divergent loads (56% average) and coalesced
//     requests per load (5.9 average across the irregular suite);
//   * Fig. 3 — memory controllers touched per warp (cfd/spmv/sssp/sp
//     ~3.2; sad/nw/SS/bfs < 2), which the generator controls through the
//     cluster length (consecutive cache lines share a 256B channel
//     granule) and the divergent line count;
//   * §III-A — ~30% of a warp's requests fall in the same DRAM row,
//     controlled by cluster length and the hot-region fraction;
//   * Fig. 12 — write intensity (nw and SS write-heavy).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace latdiv {

struct WorkloadProfile {
  std::string name;

  /// Probability a load coalesces into >1 cache-line request.
  double divergent_load_frac = 0.56;
  /// Mean distinct cache lines per divergent load (geometric-ish, <=32).
  double divergent_lines_mean = 8.0;
  /// Mean length (in consecutive cache lines) of each address cluster
  /// within a divergent load.  Consecutive lines share the 256B channel
  /// interleave granule, so longer clusters concentrate a warp on fewer
  /// channels and raise intra-warp row locality.
  double cluster_len_mean = 1.5;
  /// Fraction of memory instructions that are stores.
  double store_frac = 0.1;
  /// Fraction of instructions that touch memory (the rest are compute).
  double mem_instr_frac = 0.3;
  /// Mean latency of a compute instruction (cycles of warp back-off).
  double compute_latency_mean = 12.0;
  /// Total data footprint; large vs. the 768KB aggregate L2 by design.
  std::uint64_t footprint_bytes = 256ULL << 20;
  /// Fraction of accesses steered into a small hot region (creates cache
  /// hits and cross-warp row sharing).
  double hot_frac = 0.1;
  std::uint64_t hot_bytes = 256ULL << 10;
  /// Fraction of loads that stream sequentially per warp instead of
  /// jumping randomly (regular benchmarks set this near 1).
  double streaming_frac = 0.0;
};

/// The 11 irregular (memory-access-irregular, MAI) benchmarks of Table III.
[[nodiscard]] std::vector<WorkloadProfile> irregular_suite();

/// The 6 regular, bandwidth-bound benchmarks of §VI-A.
[[nodiscard]] std::vector<WorkloadProfile> regular_suite();

/// Look up one profile by its paper abbreviation (e.g. "bfs", "spmv").
[[nodiscard]] WorkloadProfile profile_by_name(const std::string& name);

}  // namespace latdiv
