// Idle-scan memo shared by the clock-free baseline transaction
// schedulers (SBWAS, FR-FCFS).
//
// A scheduling scan that moved nothing repeats identically until the
// controller state it read changes.  The scan reads only request-queue
// contents, bank-queue depths, tail rows and the write-queue size, and
// every change to those moves mutation_epoch(); ACT/PRE/REF never change
// its answer (DESIGN.md, "Why the ignored events cannot change a failed
// answer").
//
// Derived state, never saved: a snapshot load or teleport moves
// mutation_epoch(), so the memo never survives one.
#pragma once

#include <cstdint>

#include "mc/controller.hpp"

namespace latdiv {

class IdleScanMemo {
 public:
  /// True when the last armed scan's answer still holds: a scheduling
  /// call may return at once.
  [[nodiscard]] bool holds(const MemoryController& mc) const {
    return mc.mutation_epoch() == epoch_;
  }

  /// Record that a scan moved nothing and stays idle until the
  /// controller state moves.
  void arm(const MemoryController& mc) { epoch_ = mc.mutation_epoch(); }

 private:
  std::uint64_t epoch_ = ~std::uint64_t{0};
};

}  // namespace latdiv
