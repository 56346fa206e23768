#include "gpu/coalescer.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace latdiv {

void Coalescer::coalesce(const WarpInstr& instr, std::vector<Addr>& out) const {
  LATDIV_ASSERT(instr.kind != WarpInstr::Kind::kCompute,
                "coalescing a compute instruction");
  LATDIV_ASSERT(instr.active_lanes > 0 && instr.active_lanes <= kWarpLanes,
                "bad lane count");
  out.clear();
  for (std::uint32_t lane = 0; lane < instr.active_lanes; ++lane) {
    const Addr line = instr.lane_addr[lane] & ~(kLineBytes - 1);
    if (std::find(out.begin(), out.end(), line) == out.end()) {
      out.push_back(line);
    }
    if (perfect_ && !out.empty()) break;  // ideal: one request per instr
  }
}

void Coalescer::record(WarpInstr::Kind kind, std::size_t requests) {
  LATDIV_ASSERT(requests > 0, "memory instruction with no requests");
  if (kind == WarpInstr::Kind::kLoad) {
    ++stats_.loads;
    stats_.load_requests += requests;
    if (requests > 1) ++stats_.divergent_loads;
  } else {
    ++stats_.stores;
    stats_.store_requests += requests;
  }
}

}  // namespace latdiv
