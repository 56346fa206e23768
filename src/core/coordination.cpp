#include "core/coordination.hpp"

#include "common/log.hpp"

namespace latdiv {

CoordinationNetwork::CoordinationNetwork(
    std::vector<MemoryController*> controllers, Cycle latency)
    : controllers_(std::move(controllers)), latency_(latency) {
  LATDIV_ASSERT(!controllers_.empty(), "empty coordination network");
}

void CoordinationNetwork::tick(Cycle now) {
  for (MemoryController* mc : controllers_) {
    for (const CoordMsg& msg : mc->outbox()) {
      in_flight_.push_back(Pending{now + latency_, msg});
      ++sent_;
    }
    mc->outbox().clear();
  }
  while (!in_flight_.empty() && in_flight_.front().due <= now) {
    const CoordMsg msg = in_flight_.front().msg;
    in_flight_.pop_front();
    for (MemoryController* mc : controllers_) {
      if (mc->id() != msg.source) mc->deliver_coordination(msg, now);
    }
  }
}

}  // namespace latdiv
