// Memory partition: one L2 slice + one GDDR5 channel controller.
//
// The partition is the glue between the crossbar and the memory
// controller:
//   * incoming reads probe the L2 after a pipeline delay; hits respond
//     directly, misses allocate an MSHR and enter the controller's read
//     queue (merging secondary misses to an outstanding line);
//   * incoming writes are absorbed by the write-back write-allocate L2;
//     DRAM writes are exclusively dirty evictions, which is why the
//     controller's write queue sees cache-filtered traffic as in the
//     paper's model;
//   * the warp-group completion tag (last request of a warp-group for
//     this partition) is forwarded to the controller even when the tagged
//     request itself hits in the L2 — the controller must learn that the
//     group is fully formed either way (§IV-B2).
//
// The L2 pipeline and crossbar interfaces run in the core clock domain;
// the controller ticks every DRAM command-clock cycle.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "cache/cache.hpp"
#include "cache/mshr.hpp"
#include "common/types.hpp"
#include "gpu/tracker.hpp"
#include "icnt/crossbar.hpp"
#include "mc/controller.hpp"

namespace latdiv {

struct PartitionConfig {
  CacheConfig l2{128 * 1024, 128, 16};  // paper Table II
  MshrConfig l2_mshr{64, 8};
  Cycle l2_latency = 16;  ///< core-domain pipeline cycles for a lookup
  std::uint32_t lookups_per_cycle = 2;
};

struct PartitionStats {
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_hits = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t mshr_merges = 0;
  std::uint64_t stall_cycles = 0;  ///< head blocked on a full resource
};

class Partition {
 public:
  /// `obs` (optional) is handed to the memory controller for
  /// request-lifecycle tracing; the partition itself never consults it.
  Partition(ChannelId id, const PartitionConfig& cfg, const McConfig& mc_cfg,
            const DramTiming& timing,
            std::unique_ptr<TransactionScheduler> policy,
            const AddressMap& amap, Crossbar& xbar, InstrTracker& tracker,
            obs::ObsHub* obs = nullptr);

  /// Core-domain tick: pull requests from the crossbar through the L2
  /// pipeline, process fills, send responses.
  void tick_core(Cycle now);

  /// DRAM-domain tick.
  void tick_dram(Cycle now) { mc_->tick(now); }

  [[nodiscard]] MemoryController& mc() { return *mc_; }
  [[nodiscard]] const MemoryController& mc() const { return *mc_; }
  [[nodiscard]] const Cache& l2() const { return l2_; }
  [[nodiscard]] const MshrFile& l2_mshr() const { return mshr_; }
  /// Completed DRAM reads awaiting L2 install (conservation audits).
  [[nodiscard]] std::size_t fills_pending() const { return fills_.size(); }
  [[nodiscard]] const PartitionStats& stats() const { return stats_; }
  [[nodiscard]] ChannelId id() const { return id_; }

  /// Snapshot serialization of L2/MSHR/pipeline/controller state
  /// (src/ckpt).
  template <class Ar>
  void ckpt_io(Ar& ar);

 private:
  struct Delayed {
    Cycle ready_at;
    MemRequest req;
  };

  void process_fills(Cycle now);
  void process_requests(Cycle now);
  void drain_responses(Cycle now);
  /// Handle one request after its L2 pipeline delay.  Returns false if a
  /// full downstream resource forces a retry next cycle.
  bool handle(const MemRequest& req, Cycle now);

  ChannelId id_;
  PartitionConfig cfg_;
  Cache l2_;
  MshrFile mshr_;
  const AddressMap& amap_;
  Crossbar& xbar_;
  InstrTracker& tracker_;
  std::unique_ptr<MemoryController> mc_;

  std::deque<Delayed> pipeline_;
  std::deque<MemRequest> fills_;
  std::deque<MemResponse> responses_;
  PartitionStats stats_;
};

}  // namespace latdiv
