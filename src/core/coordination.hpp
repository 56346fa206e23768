// Inter-controller coordination network (paper §IV-C).
//
// A narrow dedicated all-to-all interconnect (30 16-bit links in the
// paper): when a controller's transaction scheduler selects a warp-group,
// a 32-bit message — SM id, warp id, local completion-time score — is
// broadcast to the other controllers.  Receivers compare the remote score
// against their own estimate for the same warp and boost their local
// warp-group when they are the laggard.
//
// The network is modelled with a fixed delivery latency (two 16-bit flits
// plus wire/arbitration; default 4 command-clock cycles) and infinite
// bandwidth per link — each controller selects at most one group every few
// cycles, so a 16-bit link is never a bottleneck and modelling credit flow
// would add state without changing behaviour.
#pragma once

#include <deque>
#include <vector>

#include "common/types.hpp"
#include "mc/controller.hpp"

namespace latdiv {

class CoordinationNetwork {
 public:
  CoordinationNetwork(std::vector<MemoryController*> controllers,
                      Cycle latency = 4);

  /// Collect this cycle's broadcasts and deliver messages whose latency
  /// has elapsed.  Call once per command-clock cycle after all
  /// controllers have ticked.
  void tick(Cycle now);

  [[nodiscard]] std::uint64_t messages_sent() const { return sent_; }

  /// Snapshot serialization of in-flight messages (src/ckpt).
  template <class Ar>
  void ckpt_io(Ar& ar);

 private:
  struct Pending {
    Cycle due;
    CoordMsg msg;
  };

  std::vector<MemoryController*> controllers_;
  Cycle latency_;
  std::deque<Pending> in_flight_;  // FIFO: constant latency keeps it sorted
  std::uint64_t sent_ = 0;
};

}  // namespace latdiv
