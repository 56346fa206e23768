// The throughput-optimized GPU memory controller baseline (paper §II-C).
//
// The GMC's row sorter forms streams of row-hit requests per bank; the
// transaction scheduler "picks a row-hit stream from the row sorter to
// service in each bank and interleaves requests to different banks" — so
// unlike classic FR-FCFS (one global pick), the GMC keeps EVERY bank's
// command queue fed with that bank's best stream each cycle.  Two
// fairness valves bound the reordering:
//   * an age threshold — a request older than `age_threshold` cycles is
//     scheduled next regardless of row locality;
//   * a maximum row-hit streak — a bank's planned same-row run is capped
//     so one stream cannot monopolise a bank.
//
// The streak state lives in the controller's per-bank insertion metadata
// (tail_streak), which is exactly the row sorter's "current stream length"
// without duplicating the bookkeeping here.
//
// The row sorter's streams are an index, not a read-queue walk: per bank,
// the (row, arrival) of its queued reads in queue order, appended in
// on_push, erased at GMC's own sends and rebuilt from the read queue in
// on_load (derived state, never saved).  A scan visits only banks with
// queued reads whose command queue is below the lookahead, and because
// arrivals do not decrease along the read queue a bank's aged candidate
// can only be the front of its list.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mc/controller.hpp"
#include "mc/policy.hpp"

namespace latdiv {

struct GmcConfig {
  /// Cycles after which a pending request pre-empts row-hit streaming
  /// (~680 ns at tCK=0.667ns, ~1.4x the typical loaded round trip).
  Cycle age_threshold = 1024;
  /// Maximum consecutive same-row transactions planned per bank.
  std::uint32_t max_hit_streak = 16;
};

class GmcPolicy : public TransactionScheduler {
 public:
  explicit GmcPolicy(const GmcConfig& cfg = {}) : cfg_(cfg) {}

  [[nodiscard]] const char* name() const override { return "GMC"; }

  /// One queued read in a bank's list.
  struct Queued {
    RowId row;
    Cycle arrival;
  };

  /// Sends each bank's pick as the scan finds it.  A send changes only
  /// its own bank's tail row, streak, depth and command bound, and
  /// find_read matches on the bank, so one bank's send cannot change
  /// another bank's pick: the send order is free.
  void schedule_reads(MemoryController& mc, Cycle now) override {
    // Per-bank lookahead: how many transactions may sit in a bank's
    // command queue before the row sorter stops feeding it.  Committing
    // decisions early into a deep in-order queue would forfeit row hits
    // from requests that arrive a few cycles later; the row sorter keeps
    // the choice open until the bank is nearly ready (double-buffering).
    constexpr std::size_t kBankLookahead = 2;
    auto& rq = mc.read_queue();
    for (std::uint32_t m = queued_banks_; m != 0; m &= m - 1) {
      const auto bank = static_cast<BankId>(std::countr_zero(m));
      const std::size_t depth = mc.bank_queue_size(bank);
      if (depth >= kBankLookahead) continue;
      std::vector<Queued>& reads = banks_[bank];
      const std::size_t idx = pick_in_bank(mc, bank, reads, depth, now);
      if (idx == reads.size()) continue;
      const Queued& q = reads[idx];
      const auto it = mc.find_read(q.arrival, [&](const MemRequest& r) {
        return r.loc.bank == bank && r.loc.row == q.row;
      });
      LATDIV_ASSERT(it != rq.end(), "GMC pick not queued");
      MemRequest req = *it;
      rq.erase(it);
      reads.erase(reads.begin() + static_cast<std::ptrdiff_t>(idx));
      if (reads.empty()) queued_banks_ &= ~(1u << bank);
      mc.send_to_bank(req, now);
    }
  }

  void on_push(MemoryController&, const MemRequest& req, Cycle) override {
    if (req.kind != ReqKind::kRead) return;
    banks_[req.loc.bank].push_back(Queued{req.loc.row, req.arrived_at_mc});
    queued_banks_ |= 1u << req.loc.bank;
  }

  /// Rebuild the per-bank lists from the loaded read queue.
  void on_load(MemoryController& mc) override {
    for (std::vector<Queued>& reads : banks_) reads.clear();
    queued_banks_ = 0;
    for (const MemRequest& req : mc.read_queue()) on_push(mc, req, 0);
  }

  /// A bank's queued reads, in read-queue order.
  [[nodiscard]] const std::vector<Queued>& bank_reads(BankId bank) const {
    return banks_[bank];
  }

  [[nodiscard]] const GmcConfig& config() const { return cfg_; }

 private:
  /// Index in `reads` of `bank`'s pick, or reads.size() for none.  The
  /// starvation valve first, then row-hit streaming below the streak
  /// cap, then (streak capped) the oldest stream-breaking request, then
  /// arrival order.
  [[nodiscard]] std::size_t pick_in_bank(const MemoryController& mc,
                                         BankId bank,
                                         const std::vector<Queued>& reads,
                                         std::size_t depth, Cycle now) const {
    // The starvation valve overrides the hysteresis: an over-age request
    // is inserted as soon as the bank can take it at all.  The front is
    // the bank's oldest read.
    if (now - reads.front().arrival > cfg_.age_threshold) return 0;
    const RowId open = mc.predicted_row(bank);
    const auto extends = [open](const Queued& q) { return q.row == open; };
    if (mc.tail_streak(bank) < cfg_.max_hit_streak) {
      const auto hit = std::find_if(reads.begin(), reads.end(), extends);
      if (hit != reads.end()) {
        return static_cast<std::size_t>(hit - reads.begin());
      }
    }
    // Row-closing candidates only go in once the bank has fully drained:
    // a hit for the still-open row may be one arrival away, and closing
    // early forfeits it (the row sorter's stream hysteresis).
    if (depth != 0) return reads.size();
    const auto breaker = std::find_if_not(reads.begin(), reads.end(), extends);
    return breaker != reads.end()
               ? static_cast<std::size_t>(breaker - reads.begin())
               : 0;
  }

  static constexpr std::size_t kMaxBanks = 32;

  GmcConfig cfg_;
  // The row sorter's per-bank streams (derived; see the file comment) and
  // the banks whose list is non-empty.
  std::array<std::vector<Queued>, kMaxBanks> banks_;
  std::uint32_t queued_banks_ = 0;
};

}  // namespace latdiv
