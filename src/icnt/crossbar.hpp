// SM <-> memory-partition crossbar.
//
// Request side: each SM owns a FIFO injection queue; every interconnect
// cycle each partition grants one SM whose queue head targets it
// (round-robin).  Per-SM order is preserved end to end — the paper's
// warp-group tagging depends on it (§IV-B2: "the interconnect between the
// SMs and GMCs does not re-order requests from a single SM, even though it
// can interleave requests from different SMs").  Head-of-line blocking on
// a busy partition is intentional: it is what preserves the order.
//
// Sticky arbitration (the constructor's `sticky`) models the
// non-interleaving network of Yuan et al. used by the WAFCFS comparison:
// a partition keeps granting the same SM while that SM keeps requests for
// it at its queue head, so one warp's requests arrive contiguously.
//
// Response side: symmetric — per-partition output FIFOs, one response
// delivered per SM per cycle, fixed pipeline latency each way.
//
// Arbitration is event-driven: per partition, the set of SMs whose
// injection-queue head targets it, and per SM, the set of partitions whose
// output-queue head targets it, are updated at every push and pop.  A
// grant is a cyclic find-first-set from the round-robin pointer.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bit_rows.hpp"
#include "common/bounded_queue.hpp"
#include "common/log.hpp"
#include "common/types.hpp"
#include "mem/request.hpp"

namespace latdiv {

struct IcntConfig {
  std::uint32_t partitions = 6;
  Cycle request_latency = 8;   ///< interconnect cycles, injection->ejection
  Cycle response_latency = 8;
  std::uint32_t sm_queue_depth = 16;
  std::uint32_t partition_in_depth = 8;
};

/// Responses each partition's output queue holds.
inline constexpr std::uint32_t kPartitionOutDepth = 16;

struct IcntStats {
  std::uint64_t requests_moved = 0;
  std::uint64_t responses_moved = 0;
  std::uint64_t inject_stalls = 0;  ///< SM found its queue full
};

class Crossbar {
 public:
  /// `sticky` selects the WAFCFS (Yuan et al.) arbitration.
  Crossbar(const IcntConfig& cfg, std::uint32_t sms, bool sticky);

  // --- SM side ---
  [[nodiscard]] bool can_inject_request(SmId sm) const;
  void inject_request(SmId sm, MemRequest req, Cycle now);
  /// Response available for `sm` this cycle, if any (at most one).
  std::optional<MemResponse> pop_response(SmId sm, Cycle now);

  // --- partition side ---
  /// Front request for `part` if its delivery latency has elapsed; the
  /// partition may decline to pop (back-pressure stalls the arbiter).
  [[nodiscard]] const MemRequest* peek_request(ChannelId part,
                                               Cycle now) const;
  MemRequest pop_request(ChannelId part, Cycle now);
  [[nodiscard]] bool can_inject_response(ChannelId part) const;
  void inject_response(ChannelId part, MemResponse resp, Cycle now);

  /// Arbitrate and move packets; call once per interconnect cycle.
  void tick(Cycle now);

  void count_inject_stall() { ++stats_.inject_stalls; }
  [[nodiscard]] const IcntStats& stats() const { return stats_; }
  [[nodiscard]] bool sticky() const { return sticky_; }

  // Occupancy snapshots (time-series sampling; no timing effects).
  /// Requests waiting in SM injection queues.
  [[nodiscard]] std::size_t requests_queued() const {
    return requests_queued_;
  }
  /// Responses waiting in partition output queues.
  [[nodiscard]] std::size_t responses_queued() const {
    return responses_queued_;
  }

  /// Head masks and queue counters match the queues (invariant audit:
  /// they are maintained incrementally and rebuilt after a snapshot load).
  [[nodiscard]] bool heads_consistent() const;

  /// Snapshot serialization of every queue + arbiter pointer (src/ckpt).
  template <class Ar>
  void ckpt_io(Ar& ar);

 private:
  template <typename T>
  struct Timed {
    Cycle ready_at;
    T payload;
  };

  /// Pop the head of `sm`'s injection queue / `part`'s output queue,
  /// moving the queue's head-target bit to its new head.
  MemRequest pop_sm_queue(std::uint32_t sm);
  MemResponse pop_part_out(std::uint32_t part);
  /// Recompute head masks and counters from the queues (after a snapshot
  /// load).
  void rebuild_heads();

  IcntConfig cfg_;
  std::uint32_t sms_;
  bool sticky_;
  // Rings of sm_queue_depth, partition_in_depth and kPartitionOutDepth.
  std::vector<BoundedQueue<MemRequest>> sm_queues_;
  std::vector<BoundedQueue<Timed<MemRequest>>> part_in_;
  std::vector<BoundedQueue<MemResponse>> part_out_;
  // Rings of response_latency + 1: a tick pushes at most one response per
  // SM, and the SM pops a due head every core cycle.
  std::vector<BoundedQueue<Timed<MemResponse>>> sm_in_;
  std::vector<std::uint32_t> part_rr_;      ///< per-partition SM pointer
  std::vector<std::uint32_t> part_sticky_;  ///< last granted SM (sticky mode)
  std::vector<std::uint32_t> sm_rr_;        ///< per-SM partition pointer
  // Derived state (rebuilt after a snapshot load, never saved).
  BitRows req_heads_;   ///< row per partition: SMs whose head targets it
  BitRows resp_heads_;  ///< row per SM: partitions whose head targets it
  std::size_t requests_queued_ = 0;
  std::size_t responses_queued_ = 0;
  IcntStats stats_;
};

}  // namespace latdiv
