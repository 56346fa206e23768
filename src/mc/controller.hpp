// The GPU memory controller (paper Fig. 1): one per channel.
//
//   Read Queue (64) ─┐
//                    ├─ TransactionScheduler ─ per-bank Command Queues (8)
//   Write Queue (64)─┘         (policy)               │
//                                              Command Scheduler
//                                       (multi-level RR over bank groups,
//                                        in-order within a bank)
//                                                     │
//                                               GDDR5 Channel
//
// Writes are buffered and drained in batches between watermarks (32/16) to
// amortise bus turnaround (tWTR); an opportunistic drain runs when the read
// side is idle.  The command scheduler issues at most one DRAM command per
// cycle, interleaving across bank groups first (GDDR5's tCCDS < tCCDL
// rewards this) and servicing each bank's command queue strictly in order
// so that the transaction scheduler's decisions are preserved.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/bounded_queue.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "dram/channel.hpp"
#include "dram/params.hpp"
#include "mc/policy.hpp"
#include "mem/request.hpp"

namespace latdiv::obs {
class ObsHub;
}

namespace latdiv {

struct McConfig {
  std::uint32_t read_queue_size = 64;
  std::uint32_t write_queue_size = 64;
  std::uint32_t wq_high_watermark = 32;
  std::uint32_t wq_low_watermark = 16;
  std::uint32_t bank_queue_depth = 8;
  bool opportunistic_drain = true;
};

/// Controller-level counters (DRAM-level counters live in ChannelStats).
struct McStats {
  std::uint64_t reads_accepted = 0;   ///< pushes into the read queue
  std::uint64_t writes_accepted = 0;  ///< pushes into the write queue
  std::uint64_t reads_served = 0;
  std::uint64_t writes_served = 0;
  std::uint64_t drains_started = 0;
  Accumulator read_queueing_cycles;   ///< arrival -> CAS issue
  Accumulator read_service_cycles;    ///< arrival -> data complete
  // Fig. 12 inputs: at each drain start, how many fully-formed warp-groups
  // were stalled, and how many of those were unit-sized or orphaned
  // (1-2 requests remaining).
  std::uint64_t drain_stalled_groups = 0;
  std::uint64_t drain_stalled_small_groups = 0;
  // Per-bank row-buffer outcomes, classified when a request reaches the
  // head of its bank command queue (see RowOutcome).  Sum over banks
  // covers every CAS this controller issued; requests still queued or
  // in flight at end of run are simply unclassified.
  std::vector<std::uint64_t> bank_row_hits;
  std::vector<std::uint64_t> bank_row_misses;
  std::vector<std::uint64_t> bank_row_conflicts;
};

class MemoryController {
 public:
  /// `on_read_done(req, now)` fires the cycle read data is fully returned.
  using ResponseFn = std::function<void(const MemRequest&, Cycle)>;

  /// `obs` (optional) receives request-lifecycle events; it is strictly
  /// an observer — scheduling behaviour is identical with or without it.
  MemoryController(ChannelId id, const McConfig& cfg, const DramTiming& timing,
                   std::unique_ptr<TransactionScheduler> policy,
                   ResponseFn on_read_done, obs::ObsHub* obs = nullptr);

  // --- ingress (called by the partition) ---
  [[nodiscard]] bool can_accept_read() const { return !read_q_.full(); }
  [[nodiscard]] bool can_accept_write() const { return !write_q_.full(); }
  void push(MemRequest req, Cycle now);
  /// The partition saw the last request of `tag`'s warp-group for this
  /// controller (it may have been filtered by an L2 hit).
  void notify_group_complete(const WarpTag& tag, Cycle now);
  /// Deliver a coordination-network message (WG-M).
  void deliver_coordination(const CoordMsg& msg, Cycle now);

  /// Advance one command-clock cycle.
  void tick(Cycle now);

  // --- policy-facing API ---
  [[nodiscard]] BoundedQueue<MemRequest>& read_queue() { return read_q_; }
  [[nodiscard]] const BoundedQueue<MemRequest>& read_queue() const {
    return read_q_;
  }
  [[nodiscard]] BoundedQueue<MemRequest>& write_queue() { return write_q_; }
  [[nodiscard]] const BoundedQueue<MemRequest>& write_queue() const {
    return write_q_;
  }
  [[nodiscard]] bool bank_queue_has_space(BankId bank,
                                          std::size_t n = 1) const;
  [[nodiscard]] std::size_t bank_queue_size(BankId bank) const;
  [[nodiscard]] const std::deque<MemRequest>& bank_queue(BankId bank) const;
  /// Row a new transaction on `bank` would find "open": the row of the
  /// last transaction enqueued to that bank, falling back to the row open
  /// in the DRAM array (paper §IV-B1's hit/miss estimate).
  [[nodiscard]] RowId predicted_row(BankId bank) const;
  /// Consecutive same-row transactions at the tail of `bank`'s planned
  /// sequence (the WG-Bw MERB counter, maintained at insertion time).
  [[nodiscard]] std::uint32_t tail_streak(BankId bank) const;
  /// Move a request (already removed from a request queue) into its bank's
  /// command queue.  Caller must have checked bank_queue_has_space().
  void send_to_bank(MemRequest req, Cycle now);
  [[nodiscard]] const Channel& channel() const { return channel_; }
  /// Mutable channel access, needed to attach a command observer
  /// (src/check protocol checker).  Scheduling code must use the const
  /// accessor.
  [[nodiscard]] Channel& channel_mut() { return channel_; }
  /// Reads that issued their CAS but whose data burst has not completed
  /// (conservation audits: accepted == queued + pending + inflight + served).
  [[nodiscard]] std::size_t inflight_reads() const {
    return inflight_reads_.size();
  }
  [[nodiscard]] bool in_write_drain() const { return write_mode_; }
  [[nodiscard]] const McConfig& config() const { return cfg_; }
  [[nodiscard]] ChannelId id() const { return id_; }
  /// Broadcast queue drained by the owning coordination network each cycle.
  [[nodiscard]] std::vector<CoordMsg>& outbox() { return outbox_; }
  /// Policies call this when they select a warp-group (WG-M broadcast).
  void announce_selection(const WarpTag& tag, std::uint32_t score);
  /// Total requests sitting in all bank command queues.
  [[nodiscard]] std::size_t commands_pending() const { return cmdq_total_; }
  /// Number of banks with a non-empty command queue (MERB table index).
  [[nodiscard]] std::uint32_t banks_with_work() const {
    return nonempty_banks_;
  }

  // --- change tracking (policy score caches) ---
  /// Bumped whenever `bank`'s scheduling-visible state changes: its
  /// command queue contents, its insertion metadata (predicted row /
  /// tail streak) or its DRAM array state (open row).  Policies key
  /// per-bank score caches on this.
  [[nodiscard]] std::uint64_t bank_epoch(BankId bank) const {
    LATDIV_DCHECK(bank < bank_epoch_.size(), "bank out of range");
    return bank_epoch_[bank];
  }
  /// Bumped on every controller-state change a transaction scheduler can
  /// observe (queue pushes and pulls, command issue, drain-mode flips,
  /// group-completion and coordination deliveries).  A scheduling
  /// decision that failed at epoch E cannot succeed at epoch E unless
  /// time alone changes the answer.
  [[nodiscard]] std::uint64_t mutation_epoch() const {
    return mutation_epoch_;
  }

  [[nodiscard]] const std::vector<CoordMsg>& outbox() const {
    return outbox_;
  }

  // Fig. 12 accounting: policies report the warp-groups stalled when a
  // drain begins.
  void record_drain_stall(std::size_t groups, std::size_t small_groups);

  [[nodiscard]] const McStats& stats() const { return stats_; }
  [[nodiscard]] TransactionScheduler& policy() { return *policy_; }
  [[nodiscard]] const TransactionScheduler& policy() const { return *policy_; }

  /// Snapshot serialization of queues, drain state, DRAM timing state and
  /// the policy's private state (src/ckpt); the callback and hub wiring
  /// come from construction.
  template <class Ar>
  void ckpt_io(Ar& ar);

 private:
  struct Inflight {
    Cycle done;
    MemRequest req;
    friend bool operator<(const Inflight& a, const Inflight& b) {
      return a.done > b.done;  // min-heap on completion time
    }
  };

  void update_drain_mode(Cycle now);
  void issue_one_command(Cycle now);
  void complete_reads(Cycle now);
  [[nodiscard]] bool all_bank_queues_empty() const { return cmdq_total_ == 0; }
  /// Writes the current drain episode pulled out of the write queue so
  /// far: start depth plus arrivals absorbed, minus what is still queued.
  [[nodiscard]] std::uint64_t drained_writes() const {
    return wq_at_drain_start_ + writes_arrived_in_drain_ - write_q_.size();
  }

  ChannelId id_;
  McConfig cfg_;
  Channel channel_;
  std::unique_ptr<TransactionScheduler> policy_;
  ResponseFn on_read_done_;
  // Nullable; never consulted for decisions.
  obs::ObsHub* obs_ = nullptr;
  // Drain-episode accounting for obs_->drain_end's flushed-write count.
  std::size_t wq_at_drain_start_ = 0;
  std::uint64_t writes_arrived_in_drain_ = 0;

  BoundedQueue<MemRequest> read_q_;
  BoundedQueue<MemRequest> write_q_;
  std::vector<std::deque<MemRequest>> bank_q_;
  // Per-bank insertion metadata, SoA: predicted_row()/tail_streak() are
  // the policies' hottest probes and each touches exactly one of the two
  // arrays, so splitting them keeps the scanned array dense in cache.
  std::vector<RowId> bank_tail_row_;
  std::vector<std::uint32_t> bank_tail_streak_;
  std::size_t cmdq_total_ = 0;
  std::uint32_t nonempty_banks_ = 0;

  // Change counters for policy-side caches (see bank_epoch()).
  std::vector<std::uint64_t> bank_epoch_;
  std::uint64_t mutation_epoch_ = 0;

  bool write_mode_ = false;
  bool opportunistic_mode_ = false;

  // Multi-level round-robin pointers for the command scheduler.
  std::uint32_t rr_group_ = 0;
  std::vector<std::uint32_t> rr_bank_in_group_;

  std::priority_queue<Inflight> inflight_reads_;
  std::vector<CoordMsg> outbox_;
  McStats stats_;
};

}  // namespace latdiv
