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
    auto& rq = mc.read_queue();
    if (rq.empty() || idle_.holds(mc, now)) return;
    auto best = rq.end();
    for (auto it = rq.begin(); it != rq.end(); ++it) {
      // Classic FR-FCFS re-evaluates row state at issue time; bounding
      // the per-bank backlog keeps the decision near service time.
      if (mc.bank_queue_size(it->loc.bank) >= 2) continue;
      if (mc.predicted_row(it->loc.bank) == it->loc.row) {
        best = it;  // oldest row-hit wins outright
        break;
      }
      if (best == rq.end()) best = it;  // remember oldest schedulable
    }
    if (best == rq.end()) {
      idle_.arm(mc);  // every queued read's bank holds 2 or more commands
      return;
    }
    MemRequest req = *best;
    rq.erase(best);
    mc.send_to_bank(req, now);
  }

  [[nodiscard]] const IdleScanMemo& idle_memo() const { return idle_; }

 private:
  IdleScanMemo idle_;
};

}  // namespace latdiv
