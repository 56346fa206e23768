// First-Come First-Served transaction scheduling (paper §III-A).
//
// Strictly in arrival order: the head of the read queue moves to its bank's
// command queue when there is space; nothing else happens.  Head-of-line
// blocking when the target bank queue is full is intentional — it is why
// the paper calls naive FCFS "extremely poor" for bandwidth.
#pragma once

#include "mc/controller.hpp"
#include "mc/policy.hpp"

namespace latdiv {

class FcfsPolicy : public TransactionScheduler {
 public:
  [[nodiscard]] const char* name() const override { return "FCFS"; }

  void schedule_reads(MemoryController& mc, Cycle now) override {
    auto& rq = mc.read_queue();
    if (rq.empty()) return;
    const MemRequest& head = rq.front();
    if (!mc.bank_queue_has_space(head.loc.bank)) return;
    MemRequest req = rq.pop();
    mc.send_to_bank(req, now);
  }
};

}  // namespace latdiv
