// Warp-group scheduling — the paper's contribution (§IV).
//
// One policy class implements the whole WG family; the paper's four design
// points are feature flags layered bottom-up exactly as in the evaluation:
//
//   WG     (§IV-B)  bank-aware shortest-job-first over *warp-groups*: all
//                   requests of one warp at this controller are scheduled
//                   as a unit; groups are ranked by an estimated completion
//                   time (row-hit=1 / row-miss=3 per request, plus the
//                   score of everything already queued at each bank; the
//                   group score is the max over its banks) and the lowest
//                   score wins, ties broken by most row-hits.
//   WG-M   (§IV-C)  + controllers broadcast (warp id, local score) when
//                   they select a group; a receiver holding the same
//                   warp's group lowers its local score by (LC - RC) when
//                   the local estimate LC exceeds the remote RC.
//   WG-Bw  (§IV-D)  + MERB: a row-miss from the selected group is admitted
//                   to a bank only after that bank's planned row-hit run
//                   reaches the MERB threshold; pending row hits from
//                   other (nearly-complete first) warps fill the gap, and
//                   the "orphan control" rule tops up runs that would
//                   leave only 1-2 stranded hits behind.
//   WG-W   (§IV-E)  + write awareness: once the write queue is within 8
//                   entries of its high watermark, warp-groups with a
//                   single remaining request are served first regardless
//                   of score, so an imminent drain does not strand
//                   almost-finished warps.
//
// Requests physically stay in the controller's 64-entry read queue until
// pulled; the warp sorter here is the paper's 128-entry <SM-id, Warp-id>
// tracking structure (we key it by the dynamic warp instruction, which is
// unique per in-flight load since warps block on loads).
//
// Liveness beyond the paper's text: if the read queue fills with requests
// of groups that are all incomplete, no group would ever become eligible
// and the controller would deadlock (the remaining requests of every group
// are stuck behind the full queue).  When no complete group exists and the
// queue is under pressure — or the oldest request exceeds an age bound —
// the policy falls back to draining the group that contains the oldest
// request.  Such partially-serviced groups are the "orphaned" groups of
// Fig. 12; their leftover requests are scheduled when their completion
// signal eventually arrives.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/log.hpp"
#include "core/merb.hpp"
#include "mc/controller.hpp"
#include "mc/policy.hpp"

namespace latdiv {

struct WgConfig {
  bool multi_channel = false;  ///< WG-M coordination
  bool merb = false;           ///< WG-Bw bandwidth optimisation
  bool write_aware = false;    ///< WG-W drain awareness
  /// Extension (paper Conclusions): prioritise warp-groups that touch
  /// DRAM rows other pending warp-groups also need — serving them opens
  /// rows that benefit multiple warps.  Off in all paper configurations.
  bool shared_data_boost = false;
  std::uint32_t shared_weight = 1;  ///< score discount per shared request

  std::uint32_t score_miss = 3;  ///< ~tRP+tRCD+tCAS (36 ns)
  std::uint32_t orphan_limit = 2;
  std::uint32_t wq_guard = 8;  ///< WG-W arms at (high watermark - guard)
  /// Liveness fallback: drain an incomplete group once the oldest request
  /// is this old, or when the read queue is nearly full.
  Cycle fallback_age = 8192;
  /// WG-M: how long a remote-selection message stays matchable against
  /// not-yet-arrived warp-groups.
  Cycle coord_msg_ttl = 256;
};

/// Per-warp-group bookkeeping (the warp sorter / bank table entry).
///
/// Besides the paper's counters this carries the incremental read-queue
/// index: the group's requests still waiting in the controller's read
/// queue, in queue order, and their bank footprint.  WgPolicy maintains
/// both in on_push and at every read-queue erase, so selection, scoring
/// and draining never rescan the read queue; a snapshot holds only the
/// fields above the index, which on_load rebuilds.
struct WgGroupMeta {
  /// Width of the footprint's bank mask and per-bank arrays.
  static constexpr std::uint32_t kMaxBanks = 32;

  WarpTag tag;
  Cycle first_arrival = kNoCycle;
  std::uint32_t seen = 0;    ///< requests received at this controller
  std::uint32_t pushed = 0;  ///< requests already sent to bank queues
  std::uint32_t coord_bonus = 0;  ///< accumulated WG-M score reduction
  bool complete = false;

  struct QueuedReq {
    std::uint64_t seq;  ///< controller-wide arrival sequence number
    Cycle arrival;      ///< == arrived_at_mc (non-decreasing in seq)
    BankId bank;
    RowId row;
  };
  /// This group's queued requests, in read-queue (= seq) order.
  std::vector<QueuedReq> items;
  /// The bank footprint of `items`: the banks it touches and, per touched
  /// bank, its request count and the row of its first request (entries
  /// of untouched banks are stale).
  std::uint32_t bank_mask = 0;
  std::array<std::uint32_t, kMaxBanks> bank_count{};
  std::array<RowId, kMaxBanks> bank_front_row{};

  /// Requests of this group currently in the read queue (== the old
  /// O(read-queue) pending_in_queue scan).
  [[nodiscard]] std::uint32_t queued() const { return seen - pushed; }
};

struct WgStats {
  std::uint64_t groups_completed = 0;
  std::uint64_t groups_selected = 0;
  std::uint64_t fallback_selections = 0;
  std::uint64_t merb_deferrals = 0;   ///< row-miss postponed for fillers
  std::uint64_t orphan_topups = 0;    ///< orphan-control filler pushes
  std::uint64_t coord_msgs_applied = 0;
  std::uint64_t writeaware_selections = 0;
  std::uint64_t shared_boosts = 0;  ///< selections aided by shared rows
  Accumulator group_size;             ///< requests per warp-group at this MC
};

class WgPolicy final : public TransactionScheduler {
 public:
  WgPolicy(const WgConfig& cfg, const DramTiming& timing)
      : cfg_(cfg), merb_(timing) {
    // The per-group bank footprint uses 32-bit bank masks and per-bank
    // scratch arrays of kMaxBanks (the WG paper's GDDR5 devices have 16
    // banks); wider devices need both widened before this policy can run
    // on them.
    LATDIV_ASSERT(timing.banks <= kMaxBanks,
                  "WgPolicy bank masks support at most 32 banks");
  }

  [[nodiscard]] const char* name() const override {
    if (cfg_.shared_data_boost) return "WG-Sh";
    if (cfg_.write_aware) return "WG-W";
    if (cfg_.merb) return "WG-Bw";
    if (cfg_.multi_channel) return "WG-M";
    return "WG";
  }

  void schedule_reads(MemoryController& mc, Cycle now) override;
  void on_push(MemoryController& mc, const MemRequest& req,
               Cycle now) override;
  void on_group_complete(MemoryController& mc, const WarpTag& tag,
                         Cycle now) override;
  void on_remote_selection(MemoryController& mc, const CoordMsg& msg,
                           Cycle now) override;
  void on_drain_start(MemoryController& mc, Cycle now) override;

  [[nodiscard]] const WgStats* wg_stats() const override { return &stats_; }
  /// A selected-but-undrained group is scheduler state the controller's
  /// queues don't show; schedule_reads clears it whenever the group's
  /// queued requests run out, so with an empty read queue this holds.
  [[nodiscard]] bool quiescent() const override { return !current_; }
  [[nodiscard]] const WgConfig& config() const { return cfg_; }

  /// Score of a queued request that extends the bank's row: ~tCAS
  /// (12 ns).  The row-miss score is WgConfig::score_miss.
  static constexpr std::uint32_t kScoreHit = 1;

  struct Score {
    std::uint32_t completion = 0;  ///< estimated completion-time score
    std::uint32_t row_hits = 0;    ///< tie-breaker
  };

  /// Completion-time estimate for the requests of `instr` currently in
  /// the read queue (paper §IV-B1), including each touched bank's queued
  /// backlog.  Request hit/miss status is evaluated against the bank's
  /// *planned* row sequence: predicted row, advanced per queued request.
  [[nodiscard]] Score score_group(const MemoryController& mc,
                                  WarpInstrUid instr) const;

  // Differential-test hooks (tests/test_wg_incremental.cpp): read-only
  // views of the incremental index so reference scans of the real read
  // queue can be checked against it after arbitrary event sequences.
  [[nodiscard]] const std::unordered_map<WarpInstrUid, WgGroupMeta>& groups()
      const {
    return groups_;
  }
  [[nodiscard]] const std::optional<WarpInstrUid>& current() const {
    return current_;
  }
  /// A failed selection armed the selection wake and no selection has
  /// run since.
  [[nodiscard]] bool wake_armed() const { return wake_.armed; }

  /// Snapshot serialization (src/ckpt): only the warp sorter's primary
  /// state — each group's tag, arrival, counters, WG-M bonus and
  /// completion flag — plus the selected group, the WG-M message window
  /// and stats.  The incremental read-queue index mirrors the
  /// controller's read queue and is rebuilt from it by on_load; the
  /// selection wake is derived and never saved; merb_ is a pure function
  /// of the DRAM timing and is rebuilt at construction.
  void ckpt_save(ckpt::CkptWriter& ar) const override;
  void ckpt_load(ckpt::CkptReader& ar) override;
  /// Rebuild the index by replaying mc.read_queue() through index_add;
  /// throws ckpt::CkptError if a queued read's group is not in the table,
  /// a group's queued count is not `seen - pushed`, or the selected group
  /// is unknown.
  void on_load(MemoryController& mc) override;

 private:
  /// Shared save/load body behind ckpt_save/ckpt_load (src/ckpt owns the
  /// definition; member access keeps the private index reachable).
  template <class Ar>
  void ckpt_io(Ar& ar);

  /// Sum of request scores pending in `bank`'s command queue.
  [[nodiscard]] std::uint32_t bank_queue_score(const MemoryController& mc,
                                               BankId bank) const;

  struct Cand;
  void select_next_group(MemoryController& mc, Cycle now);
  /// Candidate view of a group with queued requests: head, age, size and
  /// the banks that keep it from fitting the bank command queues.
  [[nodiscard]] Cand make_cand(const MemoryController& mc, WarpInstrUid instr,
                               const WgGroupMeta& meta) const;
  /// Selection wake: arm after a failed selection (`fallback` is the
  /// liveness-fallback candidate, if one fits), then report whether an
  /// event since can change the failed answer.
  void arm_wake(MemoryController& mc, const Cand* fallback, bool pressure);
  [[nodiscard]] bool wake_due(MemoryController& mc);
  /// Would `c` now change a failed selection's answer?  Otherwise the
  /// banks whose CAS pops can change that (0 = none).
  [[nodiscard]] bool wakes(const Cand& c) const;
  [[nodiscard]] std::uint32_t watch_banks(const Cand& c) const;
  /// `c` precedes the armed wake's fallback candidate (or there is none).
  [[nodiscard]] bool older_than_fallback(const Cand& c) const;
  /// Drain the current group's queued requests into bank queues, in
  /// list order, applying MERB admission for row misses when WG-Bw is
  /// on.  Returns the number of requests pushed.
  std::uint32_t drain_current(MemoryController& mc, Cycle now);
  /// Push one row-hit filler to `bank` from the group nearest completion.
  bool push_filler(MemoryController& mc, BankId bank, Cycle now);
  void forget_if_done(WarpInstrUid instr);

  [[nodiscard]] bool write_pressure(const MemoryController& mc) const;

  // --- incremental index maintenance -----------------------------------
  /// Record a read request entering the read queue (called from on_push,
  /// when the request is already queued).
  void index_add(WgGroupMeta& meta, const MemRequest& req);
  /// Record a read request leaving the read queue (called at every
  /// policy-side erase, immediately before send_to_bank).
  void index_remove(WgGroupMeta& meta, const MemRequest& req);

  /// Width of the per-group bank masks and the per-bank scratch arrays.
  static constexpr std::uint32_t kMaxBanks = WgGroupMeta::kMaxBanks;

  WgConfig cfg_;
  MerbTable merb_;
  std::unordered_map<WarpInstrUid, WgGroupMeta> groups_;
  std::optional<WarpInstrUid> current_;
  /// Exactly the groups with queued requests — the candidate universe for
  /// selection, so it never walks the groups_ hash table.  index_add
  /// appends a group whose list goes from 0 to 1 entries and index_remove
  /// swap-pops it when the list empties.  Order is irrelevant: every
  /// selection rule totally orders candidates itself.
  std::vector<std::pair<WarpInstrUid, WgGroupMeta*>> active_;

  /// Controller-wide arrival sequence for read requests; index items
  /// carry it so the read queue's relative order (push-back + erase) can
  /// be reconstructed from the index alone.
  std::uint64_t next_seq_ = 0;
  static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

  // Selection wake (derived, never saved).  Most controller mutations —
  // pushes, and pops or completions of groups that still cannot fit —
  // cannot change a failed answer.  Armed by a failed selection (an
  // empty read queue included), the wake lets the next one run only
  // when:
  //   * layout_epoch() moves (send, drain flip, teleport, load);
  //   * read-queue or WG-W write pressure turns on;
  //   * a CAS pops a bank that blocks a watched group, or a group
  //     completes, and that group now fits (see wakes());
  //   * with no fallback candidate, a request reaches a group that had
  //     none queued (a new fallback candidate, and with it an age bound);
  //   * the fallback candidate reaches the age bound (`until`).
  // A snapshot load or a teleport moves layout_epoch(), so the wake fires
  // before any watch (whose meta pointer a load invalidates) is read, and
  // the next failed selection re-arms it from scratch.
  struct Watch {
    WarpInstrUid instr;
    const WgGroupMeta* meta;
    std::uint32_t banks;  ///< CAS pops here can let the group fit
  };
  struct Wake {
    bool armed = false;
    bool due = false;  ///< set by on_push (new fallback candidate)
    bool pressure = false;
    bool write_pressure = false;
    std::uint64_t layout_epoch = 0;
    /// The fallback candidate's head_seq; kNoSeq = none.  Only an older
    /// group that starts to fit can move the age bound.
    std::uint64_t fb_seq = kNoSeq;
    /// The fallback's age bound: from then on time alone can flip the
    /// answer (kNoCycle = only an event can).
    Cycle until = kNoCycle;
    std::uint32_t banks = 0;  ///< union of watches_[].banks
  };
  Wake wake_;
  std::vector<Watch> watches_;
  /// Groups completed since the wake was armed.
  std::vector<WarpInstrUid> completed_;

  /// Scratch candidate list reused across select_next_group calls.
  struct Cand {
    WarpInstrUid instr;
    const WgGroupMeta* meta;
    std::uint64_t head_seq;  ///< seq of the group's earliest queued request
    std::uint32_t count;
    Cycle oldest;
    /// Banks whose command queue lacks room for this group's requests.
    std::uint32_t room_block;
    /// Non-empty banks whose row this group would close (the stream
    /// hysteresis; only selections that require drained banks check it).
    std::uint32_t drain_block;
    [[nodiscard]] bool fits(bool require_drained) const {
      return (room_block | (require_drained ? drain_block : 0u)) == 0;
    }
  };
  std::vector<Cand> cands_;
  /// WG-M: recent remote selections kept briefly so a coordination
  /// message can still boost a warp-group whose requests arrive here a
  /// few cycles *after* the remote controller selected it (the crossbar
  /// and the coordination network race; hardware would hold the message
  /// in the 128-entry tracking structure either way).
  struct RecentMsg {
    WarpInstrUid instr;
    std::uint32_t score;
    Cycle at;
  };
  std::deque<RecentMsg> recent_msgs_;
  WgStats stats_;
};

}  // namespace latdiv
