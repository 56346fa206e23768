// Warp-Aware FCFS (Yuan et al., MICRO 2008) — paper §VI-C2.
//
// Yuan et al.'s complexity-effective design relies on an interconnect that
// does not interleave requests from different SMs, so that a simple FCFS
// controller sees each warp's requests contiguously and can harvest their
// spatial locality in order.  The controller-side policy is therefore plain
// FCFS; the Simulator builds a sticky (non-interleaving) Crossbar when
// the scheduler is WAFCFS.
#pragma once

#include "mc/policy_fcfs.hpp"

namespace latdiv {

class WafcfsPolicy final : public FcfsPolicy {
 public:
  [[nodiscard]] const char* name() const override { return "WAFCFS"; }
};

}  // namespace latdiv
