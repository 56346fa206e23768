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
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
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
  /// First queued read that arrived at `arrival` and satisfies `match`,
  /// or read_queue().end().  push() stamps the current cycle and nothing
  /// reorders the queue, so arrivals do not decrease along it (a snapshot
  /// load refuses a queue that breaks this): a binary search finds the
  /// cycle's first arrival.
  template <class Match>
  [[nodiscard]] BoundedQueue<MemRequest>::const_iterator find_read(
      Cycle arrival, Match match) const {
    auto it = std::lower_bound(
        read_q_.begin(), read_q_.end(), arrival,
        [](const MemRequest& r, Cycle a) { return r.arrived_at_mc < a; });
    for (; it != read_q_.end() && it->arrived_at_mc == arrival; ++it) {
      if (match(*it)) return it;
    }
    return read_q_.end();
  }
  [[nodiscard]] BoundedQueue<MemRequest>& write_queue() { return write_q_; }
  [[nodiscard]] const BoundedQueue<MemRequest>& write_queue() const {
    return write_q_;
  }
  [[nodiscard]] bool bank_queue_has_space(BankId bank,
                                          std::size_t n = 1) const {
    return bank_queue(bank).free_slots() >= n;
  }
  [[nodiscard]] std::size_t bank_queue_size(BankId bank) const {
    return bank_queue(bank).size();
  }
  [[nodiscard]] const BoundedQueue<MemRequest>& bank_queue(BankId bank) const {
    LATDIV_ASSERT(bank < bank_q_.size(), "bank out of range");
    return bank_q_[bank];
  }
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
  /// (src/check protocol checker) and for sampled-mode row warming.
  /// Scheduling code must use the const accessor.
  [[nodiscard]] Channel& channel_mut() { return channel_; }
  /// Resynchronise after the clock jumped to `now` past unsimulated
  /// cycles (Simulator::teleport): re-anchor refresh and drop the command
  /// bounds and wake, since row warming may have changed what each bank
  /// head needs.
  void on_teleport(Cycle now) {
    channel_.rebase_refresh(now);
    reset_command_bounds();
    ++mutation_epoch_;
    ++layout_epoch_;
  }
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
    return static_cast<std::uint32_t>(std::popcount(busy_banks_));
  }
  /// The command scheduler's derived state holds at the start of cycle
  /// `now` (invariant audit): the busy-bank mask equals the non-empty
  /// bank queues, no busy bank's bound exceeds its head command's true
  /// earliest cycle, and the command wake exceeds none of them.
  [[nodiscard]] bool command_state_consistent(Cycle now) const;

  // --- change tracking (policy wakes and memos) ---
  /// Bumped on every controller-state change that can change a
  /// scheduling scan that moved nothing (IdleScanMemo): request-queue
  /// pushes and pulls, bank-queue pushes, CAS pops, drain-mode flips, a
  /// sampled-mode teleport and a snapshot load.  ACT/PRE/REF, group
  /// completions and coordination messages do not bump it (DESIGN.md,
  /// "Hot path & determinism contract").  Derived state: never saved.
  [[nodiscard]] std::uint64_t mutation_epoch() const {
    return mutation_epoch_;
  }

  /// Bumped on the events that reshape a policy's view other than
  /// request-queue pushes, CAS pops and group completions: bank-queue
  /// sends (new tail rows), drain flips, a sampled-mode teleport (row
  /// warming moves open rows) and a snapshot load.  Policies key their
  /// wakes on it (DESIGN.md, "Hot path & determinism contract").  Derived
  /// state: never saved.
  [[nodiscard]] std::uint64_t layout_epoch() const { return layout_epoch_; }
  /// Banks that lost a request to a CAS since the last call (the WG
  /// selection wake consumes them).  Derived state: never saved.
  [[nodiscard]] std::uint32_t take_popped_banks() {
    return std::exchange(popped_banks_, 0u);
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
  /// come from construction.  Load rejects requests outside this
  /// channel's banks, recounts the bank-queue counters and lets the
  /// policy rebuild its indexes (TransactionScheduler::on_load).
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
  /// The command `bank`'s head request needs next: CAS on a row hit, PRE
  /// on a conflict, ACT on a precharged bank.
  [[nodiscard]] DramCommand head_command(BankId bank) const;
  /// Issue `cmd` for `bank`'s head: classify its row outcome and, on a
  /// CAS, pop it into flight.
  void issue_head(BankId bank, const DramCommand& cmd, Cycle now);
  /// Smallest command bound over the busy banks (kNoCycle if none).
  [[nodiscard]] Cycle min_bank_bound() const;
  /// `bank`'s head or row state changed: probe it on the next scan.
  void reset_bank_bound(BankId bank) {
    bank_bound_[bank] = 0;
    cmd_wake_ = 0;
  }
  void reset_command_bounds() {
    bank_bound_.fill(0);
    cmd_wake_ = 0;
  }
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
  std::vector<BoundedQueue<MemRequest>> bank_q_;  ///< bank_queue_depth each
  // Per-bank insertion metadata, SoA: predicted_row()/tail_streak() are
  // the policies' hottest probes and each touches exactly one of the two
  // arrays, so splitting them keeps the scanned array dense in cache.
  std::vector<RowId> bank_tail_row_;
  std::vector<std::uint32_t> bank_tail_streak_;
  // Derived from bank_q_, recounted on snapshot load: the total depth
  // and one bit per non-empty queue (the busy-bank mask).
  std::size_t cmdq_total_ = 0;
  std::uint32_t busy_banks_ = 0;

  // See mutation_epoch().
  std::uint64_t mutation_epoch_ = 0;

  // Command bounds: per busy bank, a lower bound on the cycle its head's
  // next command becomes legal; a scan probes only banks whose bound has
  // been reached.  Commands to other banks and REF only add constraints,
  // so a bound stays valid until the bank's own head or row state changes
  // (a command to it, a new head, row warming, a load; DESIGN.md, "Why
  // the ignored events cannot change a failed answer").  The wake is
  // the smallest bound: scans before it are skipped.  Derived state:
  // reset on snapshot load and teleport, never saved.
  std::array<Cycle, 32> bank_bound_{};
  Cycle cmd_wake_ = 0;
  // See layout_epoch() and take_popped_banks().
  std::uint64_t layout_epoch_ = 0;
  std::uint32_t popped_banks_ = 0;

  bool write_mode_ = false;
  bool opportunistic_mode_ = false;

  // Multi-level round-robin pointers for the command scheduler.
  std::uint32_t rr_group_ = 0;
  std::vector<std::uint32_t> rr_bank_in_group_;

  /// Reads whose data is on the bus: a binary heap kept with
  /// std::push_heap / std::pop_heap, earliest completion at the front.
  std::vector<Inflight> inflight_reads_;
  std::vector<CoordMsg> outbox_;
  McStats stats_;
};

/// The oldest-row-hit-first scan over request queue `q` (the read or the
/// write queue): moves to its bank queue the oldest request whose bank
/// `eligible(bank)` admits and that hits the bank's predicted row, else,
/// with `fallback`, the oldest admitted request.  Returns whether one
/// moved.  FR-FCFS and both write schedulers are this scan.
template <class Eligible>
bool send_oldest_hit_first(MemoryController& mc, BoundedQueue<MemRequest>& q,
                           Eligible eligible, bool fallback, Cycle now) {
  auto best = q.end();
  for (auto it = q.begin(); it != q.end(); ++it) {
    if (!eligible(it->loc.bank)) continue;
    if (mc.predicted_row(it->loc.bank) == it->loc.row) {
      best = it;
      break;
    }
    if (fallback && best == q.end()) best = it;
  }
  if (best == q.end()) return false;
  MemRequest req = *best;
  q.erase(best);
  mc.send_to_bank(req, now);
  return true;
}

}  // namespace latdiv
