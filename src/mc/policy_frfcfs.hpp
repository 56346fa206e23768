// First-Ready FCFS (Rixner et al., ISCA 2000).
//
// Each cycle: the oldest request that would be a row hit on its bank's
// predicted row is scheduled; if no schedulable hit exists, the oldest
// schedulable request is.  This is the classic bandwidth-greedy policy the
// GMC baseline refines.
#pragma once

#include "mc/controller.hpp"
#include "mc/idle_scan_memo.hpp"
#include "mc/policy.hpp"

namespace latdiv {

class FrFcfsPolicy final : public TransactionScheduler {
 public:
  [[nodiscard]] const char* name() const override { return "FR-FCFS"; }

  void schedule_reads(MemoryController& mc, Cycle now) override {
    if (mc.read_queue().empty() || idle_.holds(mc)) return;
    // Classic FR-FCFS re-evaluates row state at issue time; bounding the
    // per-bank backlog keeps the decision near service time.
    const bool moved = send_oldest_hit_first(
        mc, mc.read_queue(),
        [&mc](BankId bank) { return mc.bank_queue_size(bank) < 2; },
        /*fallback=*/true, now);
    // Nothing moved: every queued read's bank holds 2 or more commands.
    if (!moved) idle_.arm(mc);
  }

  [[nodiscard]] const IdleScanMemo& idle_memo() const { return idle_; }

 private:
  IdleScanMemo idle_;
};

}  // namespace latdiv
