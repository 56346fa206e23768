// Memory coalescer (paper §III-A).
//
// Combines the per-lane addresses of one warp memory instruction into as
// few 128B cache-line requests as possible, preserving first-lane order.
// Also the measurement point for the paper's Fig. 2 (coalescing
// efficiency): fraction of loads producing more than one request and the
// mean requests per load.
//
// `perfect` mode implements the Fig. 4 "Perfect Coalescing" ideal: every
// memory instruction collapses to exactly one request (its first lane's
// line), which bounds the performance cost of divergence itself.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "workload/instr.hpp"

namespace latdiv {

struct CoalescerStats {
  std::uint64_t loads = 0;
  std::uint64_t divergent_loads = 0;  ///< loads producing > 1 request
  std::uint64_t load_requests = 0;
  std::uint64_t stores = 0;
  std::uint64_t store_requests = 0;

  [[nodiscard]] double divergent_frac() const noexcept {
    return safe_ratio(static_cast<double>(divergent_loads),
                      static_cast<double>(loads));
  }
  [[nodiscard]] double requests_per_load() const noexcept {
    return safe_ratio(static_cast<double>(load_requests),
                      static_cast<double>(loads));
  }
};

class Coalescer {
 public:
  explicit Coalescer(bool perfect = false) : perfect_(perfect) {}

  /// Unique line base addresses of `instr`, in first-appearance order.
  /// `out` is cleared first; reuse one vector across calls to avoid
  /// per-instruction allocation.  Pure function of the instruction — call
  /// record() separately when the instruction actually issues, so retried
  /// issue attempts (e.g. on MSHR pressure) are not double-counted.
  void coalesce(const WarpInstr& instr, std::vector<Addr>& out) const;

  /// Account one successfully issued memory instruction.
  void record(WarpInstr::Kind kind, std::size_t requests);

  [[nodiscard]] const CoalescerStats& stats() const { return stats_; }

  /// Snapshot serialization of the counters (src/ckpt).
  template <class Ar>
  void ckpt_io(Ar& ar);

 private:
  bool perfect_;
  CoalescerStats stats_;
};

}  // namespace latdiv
