// Per-warp-load-instruction lifetime tracking — the measurement substrate
// for the paper's divergence metrics.
//
// Every dynamic load that reaches DRAM is tracked from SM issue to the
// completion of its last DRAM request, yielding:
//   Fig. 3  — ratio of last-request latency to first-request latency and
//             memory controllers touched per warp;
//   §III-A  — banks touched per warp and the fraction of a warp's
//             requests that share a DRAM row;
//   Fig. 9  — effective memory latency (issue -> last DRAM completion);
//   Fig. 10 — absolute divergence gap (first -> last DRAM completion).
//
// Records live only while the load is in flight (~1k concurrent warps);
// finalisation folds them into running aggregates.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/address_map.hpp"

namespace latdiv::obs {
class ObsHub;
}

namespace latdiv {

struct TrackerSummary {
  std::uint64_t loads_finalized = 0;
  std::uint64_t loads_touching_dram = 0;
  Accumulator dram_reqs_per_load;     ///< among DRAM-touching loads
  Accumulator channels_per_load;      ///< Fig. 3 right axis
  Accumulator banks_per_load;         ///< distinct (channel,bank) pairs
  Accumulator same_row_frac;          ///< §III-A "30% in same row"
  Accumulator first_req_latency;      ///< issue -> first DRAM completion
  Accumulator last_req_latency;       ///< issue -> last DRAM completion
  Accumulator last_to_first_ratio;    ///< Fig. 3 divergence ratio
  Accumulator divergence_gap;         ///< Fig. 10 (cycles)
};

class InstrTracker {
 public:
  /// Attach the introspection hub (nullable).  Finalised loads feed the
  /// hub's divergence histograms and, when tracing, the warp timeline.
  void set_obs(obs::ObsHub* hub) { obs_ = hub; }

  /// SM issued a load that produced `lines` coalesced requests.
  void on_issue(WarpInstrUid uid, Cycle now);
  /// Same, with the owning <SM, warp> retained for the trace track.
  void on_issue(const WarpTag& tag, Cycle now);

  /// A request of `uid` entered a memory controller's read queue.
  void on_dram_request(WarpInstrUid uid, const DramLoc& loc);

  /// A DRAM request of `uid` finished its data burst.
  void on_dram_complete(WarpInstrUid uid, Cycle done);

  /// All of the load's lines have returned to the SM: fold and forget.
  void finalize(WarpInstrUid uid, Cycle now);

  [[nodiscard]] const TrackerSummary& summary() const { return summary_; }
  [[nodiscard]] std::size_t inflight() const { return records_.size(); }

  /// Snapshot serialization of in-flight records + aggregates (src/ckpt);
  /// the hub pointer is re-attached at construction.
  template <class Ar>
  void ckpt_io(Ar& ar);

 private:
  struct Record {
    Cycle issued = kNoCycle;
    Cycle first_done = kNoCycle;
    Cycle last_done = kNoCycle;
    SmId sm = 0;
    WarpId warp = 0;
    std::vector<DramLoc> locs;  ///< one per DRAM request (<= 32)
  };

  std::unordered_map<WarpInstrUid, Record> records_;
  TrackerSummary summary_;
  obs::ObsHub* obs_ = nullptr;
};

}  // namespace latdiv
