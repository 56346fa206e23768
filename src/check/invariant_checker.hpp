// Cross-component conservation auditor for the request path.
//
// The simulator moves every MemRequest through coalescer -> L1/L2 MSHRs ->
// crossbar -> controller queues -> bank command queues -> DRAM channel and
// back.  Each hop hands the request to a different structure, and a bug
// that drops or duplicates a request at a hand-off is silent: the run
// completes and merely reports slightly wrong IPC.  This auditor closes
// the loop with conservation laws that must hold at every cycle boundary:
//
//   controller:  reads_accepted  == read_q + bank-queue reads
//                                   + inflight bursts + reads_served
//                writes_accepted == write_q + bank-queue writes
//                                   + writes_served
//                channel RD commands == reads_served + inflight bursts
//                channel WR commands == writes_served
//                commands_pending() == sum of bank-queue depths, each
//                within its configured bound (no silent overflow)
//                banks_with_work() == number of non-empty bank queues
//                command scheduler: busy-bank mask == non-empty bank
//                queues; each busy bank's bound and the command wake
//                <= its head command's earliest legal cycle
//   partition:   L2 MSHR allocations == releases + outstanding (no leak)
//                outstanding MSHR lines == controller reads outstanding
//                                           + fills awaiting install
//   tracker:     live InstrTracker records == warps blocked on loads
//   hot path:    each SM's issue masks and the crossbar's head masks and
//                queue counters equal a recomputation from the queues
//                and warp table (derived state never drifts)
//   MSHR slots:  every L1/L2 MSHR file's outstanding() == occupied slots
//                (each holds a waiter), no line in two slots, and every
//                waiter list within max_merged
//
// Violations carry the failing equation with both sides evaluated; with
// abort_on_violation the first one aborts the run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace latdiv {

namespace obs {
class AttributionProfiler;
}

class Channel;
class Crossbar;
class MemoryController;
class MshrFile;
class Partition;
class InstrTracker;
class Sm;

struct InvariantViolation {
  Cycle cycle = 0;
  std::string invariant;  ///< short tag, e.g. "mc-read-conservation"
  std::string detail;     ///< the equation with both sides evaluated
};

class InvariantChecker {
 public:
  explicit InvariantChecker(bool abort_on_violation = false);

  /// Audit one controller's queues against its channel (callable between
  /// ticks; all invariants hold at cycle boundaries).
  void audit_controller(const MemoryController& mc, Cycle now);

  /// Audit a partition: its controller plus the L2 MSHR <-> controller
  /// conservation law.
  void audit_partition(const Partition& part, Cycle now);

  /// Audit the warp tracker against the number of warps blocked on loads
  /// (sum of Sm::warps_blocked_on_loads() over all SMs).
  void audit_tracker(const InstrTracker& tracker, std::size_t blocked_warps,
                     Cycle now);

  /// Audit the event-driven hot path's derived state: an SM's issue masks
  /// the crossbar's head masks / queue counters and a channel's open-bank
  /// count must equal their recomputation from primary state.
  void audit_hot_path(const Sm& sm, Cycle now);
  void audit_hot_path(const Crossbar& xbar, Cycle now);
  void audit_hot_path(const Channel& channel, Cycle now);

  /// Audit an MSHR file's flat slot table (L1 or L2).
  void audit_mshr(const MshrFile& mshr, Cycle now);

  /// Audit the attribution profiler's sum-exactness contract: no load was
  /// ever excluded for a broken telescope or a failed request join, and
  /// the per-cause histogram mass equals the end-to-end mass exactly.
  void audit_attribution(const obs::AttributionProfiler& prof, Cycle now);

  [[nodiscard]] const std::vector<InvariantViolation>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::uint64_t audits_run() const { return audits_run_; }
  [[nodiscard]] bool clean() const { return violations_.empty(); }

  /// Snapshot serialization (src/ckpt).
  template <class Ar>
  void ckpt_io(Ar& ar);

 private:
  void expect_eq(std::uint64_t lhs, std::uint64_t rhs, Cycle now,
                 const char* invariant, const char* equation);
  void expect_le(std::uint64_t lhs, std::uint64_t rhs, Cycle now,
                 const char* invariant, const char* equation);
  void report(Cycle now, const char* invariant, const std::string& detail);

  bool abort_on_violation_;
  std::uint64_t audits_run_ = 0;
  std::vector<InvariantViolation> violations_;
};

}  // namespace latdiv
