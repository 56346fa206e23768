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
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>

#include "mc/controller.hpp"
#include "mc/idle_scan_memo.hpp"
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

  void schedule_reads(MemoryController& mc, Cycle now) override {
    auto& rq = mc.read_queue();
    if (rq.empty()) return;
    // A scan that picked nothing repeats identically until the queues or
    // tail rows change, or the oldest request crosses the age threshold.
    if (idle_.holds(mc, now)) return;

    // One pass: per bank, remember the queue position of the best
    // candidate in each priority class (positions are stable until we
    // erase, which happens afterwards in descending order).
    constexpr std::size_t kMaxBanks = 32;
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    // Per-bank lookahead: how many transactions may sit in a bank's
    // command queue before the row sorter stops feeding it.  Committing
    // decisions early into a deep in-order queue would forfeit row hits
    // from requests that arrive a few cycles later; the row sorter keeps
    // the choice open until the bank is nearly ready (double-buffering).
    constexpr std::size_t kBankLookahead = 2;
    struct Cand {
      std::size_t aged, hit, breaker, oldest;
    };
    std::array<Cand, kMaxBanks> cands;
    cands.fill(Cand{kNone, kNone, kNone, kNone});
    const auto banks = static_cast<std::size_t>(mc.channel().timing().banks);
    LATDIV_ASSERT(banks <= kMaxBanks, "bank count above candidate table");

    std::size_t pos = 0;
    for (auto it = rq.begin(); it != rq.end(); ++it, ++pos) {
      const BankId bank = it->loc.bank;
      const std::size_t depth = mc.bank_queue_size(bank);
      if (depth >= kBankLookahead) continue;
      Cand& c = cands[bank];
      const bool extends = mc.predicted_row(bank) == it->loc.row;
      // Row-closing candidates only go in once the bank has fully drained:
      // a hit for the still-open row may be one arrival away, and closing
      // early forfeits it (the row sorter's stream hysteresis).
      const bool miss_ok = depth == 0;
      const bool under_cap = mc.tail_streak(bank) < cfg_.max_hit_streak;
      if (c.oldest == kNone && ((extends && under_cap) || miss_ok)) {
        c.oldest = pos;
      }
      // The starvation valve overrides the hysteresis: an over-age
      // request is inserted as soon as the bank can take it at all.
      if (c.aged == kNone && now - it->arrived_at_mc > cfg_.age_threshold) {
        c.aged = pos;
      }
      if (c.hit == kNone && extends && under_cap) c.hit = pos;
      if (c.breaker == kNone && !extends && miss_ok) c.breaker = pos;
    }

    // Per bank: starvation valve, then row-hit streaming below the streak
    // cap, then (streak capped) the oldest stream-breaking request, then
    // arrival order.  Collect the picks and erase from the back so the
    // recorded positions stay valid.
    std::array<std::size_t, kMaxBanks> picks;
    std::size_t n_picks = 0;
    for (std::size_t b = 0; b < banks; ++b) {
      const Cand& c = cands[b];
      std::size_t pick = c.aged;
      if (pick == kNone) pick = c.hit;
      if (pick == kNone) pick = c.breaker;
      if (pick == kNone) pick = c.oldest;
      if (pick != kNone) picks[n_picks++] = pick;
    }
    if (n_picks == 0) {
      // The queue is in arrival order, so its front ages out first.
      idle_.arm(mc, rq.front().arrived_at_mc + cfg_.age_threshold + 1);
      return;
    }
    std::sort(picks.begin(), picks.begin() + n_picks);
    for (std::size_t i = n_picks; i-- > 0;) {
      auto it = rq.begin() + static_cast<std::ptrdiff_t>(picks[i]);
      MemRequest req = *it;
      rq.erase(it);
      mc.send_to_bank(req, now);
    }
  }

  [[nodiscard]] const IdleScanMemo& idle_memo() const { return idle_; }

 private:
  GmcConfig cfg_;
  // Armed by a scan that picked nothing, until its oldest request ages
  // out.
  IdleScanMemo idle_;
};

}  // namespace latdiv
