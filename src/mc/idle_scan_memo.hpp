// Idle-scan memo shared by the baseline transaction schedulers (GMC,
// SBWAS, FR-FCFS).
//
// A scheduling scan that moved nothing repeats identically until the
// controller state it read changes.  The scan reads only request-queue
// contents, bank-queue depths, tail rows and the write-queue size, and
// every change to those moves mutation_epoch() or layout_epoch();
// ACT/PRE/REF never change its answer (DESIGN.md, "Why the ignored
// events cannot change a failed answer").  A policy whose answer also
// depends on the clock (GMC's age threshold) arms an `until` cycle.
//
// Derived state, never saved: a snapshot load or teleport moves
// layout_epoch(), so the memo never survives one.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "mc/controller.hpp"

namespace latdiv {

class IdleScanMemo {
 public:
  /// True when the last armed scan's answer still holds at `now`: a
  /// scheduling call may return at once.
  [[nodiscard]] bool holds(const MemoryController& mc, Cycle now) const {
    return mc.mutation_epoch() == epoch_ && mc.layout_epoch() == layout_ &&
           now < until_;
  }

  /// Record that a scan moved nothing and stays idle until the
  /// controller state moves or the clock reaches `until`.
  void arm(const MemoryController& mc, Cycle until = kNoCycle) {
    epoch_ = mc.mutation_epoch();
    layout_ = mc.layout_epoch();
    until_ = until;
  }

 private:
  std::uint64_t epoch_ = ~std::uint64_t{0};
  std::uint64_t layout_ = 0;
  Cycle until_ = 0;
};

}  // namespace latdiv
