// Behavioural tests for the baseline transaction schedulers: FCFS,
// FR-FCFS, GMC (streak cap + age threshold), WAFCFS and SBWAS, and
// randomized checks of their derived state (SBWAS's per-warp counts,
// GMC's per-bank lists and the shared idle-scan memo) against
// O(read-queue) reference scans.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "dram/params.hpp"
#include "mc/controller.hpp"
#include "mc/policy_fcfs.hpp"
#include "mc/policy_frfcfs.hpp"
#include "mc/policy_gmc.hpp"
#include "mc/policy_sbwas.hpp"
#include "mc/policy_wafcfs.hpp"

namespace latdiv {
namespace {

DramTiming timing_no_refresh() {
  DramParams p;
  p.refresh_enabled = false;
  return DramTiming::from(p);
}

MemRequest read_to(BankId bank, RowId row, std::uint32_t col = 0,
                   WarpInstrUid uid = 1) {
  MemRequest r;
  r.kind = ReqKind::kRead;
  r.addr = (static_cast<Addr>(row) << 15) | (static_cast<Addr>(col) << 7) |
           (static_cast<Addr>(bank) << 28);
  r.loc.bank = bank;
  r.loc.bank_group = bank / 4;
  r.loc.row = row;
  r.loc.col = col;
  r.tag.instr = uid;
  return r;
}

struct Harness {
  explicit Harness(std::unique_ptr<TransactionScheduler> policy,
                   McConfig cfg = {})
      : mc(0, cfg, timing_no_refresh(), std::move(policy),
           [this](const MemRequest& req, Cycle) {
             order.push_back(req);
           }) {}

  void run_to(Cycle end) {
    for (; now < end; ++now) mc.tick(now);
  }

  Cycle now = 0;
  std::vector<MemRequest> order;
  MemoryController mc;
};

// --- FCFS ---------------------------------------------------------------

TEST(Fcfs, ServesStrictArrivalOrderSameBank) {
  Harness h(std::make_unique<FcfsPolicy>());
  h.mc.push(read_to(0, 1, 0, 10), 0);
  h.mc.push(read_to(0, 9, 0, 20), 0);  // row miss in between
  h.mc.push(read_to(0, 1, 1, 30), 0);  // would be a hit if reordered
  h.run_to(1000);
  ASSERT_EQ(h.order.size(), 3u);
  EXPECT_EQ(h.order[0].tag.instr, 10u);
  EXPECT_EQ(h.order[1].tag.instr, 20u);
  EXPECT_EQ(h.order[2].tag.instr, 30u);
}

TEST(Fcfs, HeadOfLineBlocksOnFullBankQueue) {
  Harness h(std::make_unique<FcfsPolicy>());
  for (int i = 0; i < 9; ++i) h.mc.push(read_to(0, i, 0, i), 0);
  h.mc.push(read_to(5, 1, 0, 99), 0);  // different, idle bank
  h.run_to(12);
  // Bank 0's queue (depth 8) is full; the request to bank 5 is behind the
  // 9th bank-0 request and must NOT have been scheduled yet.
  EXPECT_EQ(h.mc.bank_queue_size(5), 0u);
}

// --- FR-FCFS ------------------------------------------------------------

TEST(FrFcfs, PrefersRowHitOverOlderMiss) {
  Harness h(std::make_unique<FrFcfsPolicy>());
  h.mc.push(read_to(0, 1, 0, 10), 0);
  h.run_to(30);  // row 1 is now the predicted/open row
  h.mc.push(read_to(0, 9, 0, 20), 30);  // older miss
  h.mc.push(read_to(0, 1, 1, 30), 30);  // younger hit
  h.run_to(1000);
  ASSERT_EQ(h.order.size(), 3u);
  EXPECT_EQ(h.order[1].tag.instr, 30u) << "row hit should jump the miss";
  EXPECT_EQ(h.order[2].tag.instr, 20u);
}

TEST(FrFcfs, FallsBackToOldestWhenNoHits) {
  Harness h(std::make_unique<FrFcfsPolicy>());
  h.mc.push(read_to(0, 5, 0, 10), 0);
  h.mc.push(read_to(0, 6, 0, 20), 0);
  h.run_to(1000);
  ASSERT_EQ(h.order.size(), 2u);
  EXPECT_EQ(h.order[0].tag.instr, 10u);
}

TEST(FrFcfs, SkipsRequestsForFullBanks) {
  Harness h(std::make_unique<FrFcfsPolicy>());
  for (int i = 0; i < 8; ++i) h.mc.push(read_to(0, i, 0, i), 0);
  h.mc.push(read_to(5, 1, 0, 99), 0);
  h.run_to(12);
  // Unlike FCFS, FR-FCFS schedules around the saturated bank.
  EXPECT_EQ(h.mc.bank_queue_size(5), 1u);
}

// --- GMC ----------------------------------------------------------------

TEST(Gmc, StreakCapBreaksRowMonopoly) {
  GmcConfig cfg;
  cfg.max_hit_streak = 4;
  Harness h(std::make_unique<GmcPolicy>(cfg));
  // 8 hits to row 1 and one miss to row 9, all present from cycle 0.
  for (int i = 0; i < 8; ++i) h.mc.push(read_to(0, 1, i, 10 + i), 0);
  h.mc.push(read_to(0, 9, 0, 99), 0);
  h.run_to(2000);
  ASSERT_EQ(h.order.size(), 9u);
  // The miss must be serviced before the full streak of 8 hits finishes.
  std::size_t miss_pos = 0;
  for (std::size_t i = 0; i < h.order.size(); ++i) {
    if (h.order[i].tag.instr == 99) miss_pos = i;
  }
  EXPECT_LT(miss_pos, 8u);
}

TEST(Gmc, AgeThresholdRescuesStarvedRequest) {
  GmcConfig cfg;
  cfg.age_threshold = 100;
  cfg.max_hit_streak = 1000;  // disable the streak valve
  Harness h(std::make_unique<GmcPolicy>(cfg));
  // Establish row 1 as the open stream first.
  for (int i = 0; i < 4; ++i) h.mc.push(read_to(0, 1, i, i), 0);
  h.run_to(30);
  h.mc.push(read_to(0, 9, 0, 99), 30);  // the would-be-starved miss
  // A *continuous* supply of row-1 hits (arrival rate above the drain
  // rate of one CAS per tCCDL) that would starve the miss forever
  // without the age valve (streaks are uncapped here).
  int pushed = 0;
  while (pushed < 40) {
    for (int j = 0; j < 4 && pushed < 40; ++j, ++pushed) {
      h.mc.push(read_to(0, 1, pushed % 16, 100 + pushed), h.now);
    }
    h.run_to(h.now + 10);
  }
  h.run_to(4000);
  ASSERT_EQ(h.order.size(), 45u);
  std::size_t miss_pos = h.order.size();
  for (std::size_t i = 0; i < h.order.size(); ++i) {
    if (h.order[i].tag.instr == 99) miss_pos = i;
  }
  EXPECT_GT(miss_pos, 4u) << "hits younger than the threshold go first";
  EXPECT_LT(miss_pos, 44u) << "aged request must pre-empt the hit stream";
}

TEST(Gmc, ExploitsRowHitsLikeFrFcfs) {
  Harness h(std::make_unique<GmcPolicy>());
  h.mc.push(read_to(0, 1, 0, 10), 0);
  h.run_to(30);
  h.mc.push(read_to(0, 9, 0, 20), 30);
  h.mc.push(read_to(0, 1, 1, 30), 30);
  h.run_to(1000);
  ASSERT_EQ(h.order.size(), 3u);
  EXPECT_EQ(h.order[1].tag.instr, 30u);
}

// --- WAFCFS -------------------------------------------------------------

TEST(Wafcfs, InOrderLikeFcfs) {
  Harness h(std::make_unique<WafcfsPolicy>());
  h.mc.push(read_to(0, 1, 0, 10), 0);
  h.mc.push(read_to(0, 9, 0, 20), 0);
  h.mc.push(read_to(0, 1, 1, 30), 0);
  h.run_to(1000);
  ASSERT_EQ(h.order.size(), 3u);
  EXPECT_EQ(h.order[0].tag.instr, 10u);
  EXPECT_EQ(h.order[1].tag.instr, 20u);
  EXPECT_EQ(h.order[2].tag.instr, 30u);
}

// --- SBWAS --------------------------------------------------------------

TEST(Sbwas, InterleavedWritesFlag) {
  SbwasPolicy p;
  EXPECT_TRUE(p.wants_interleaved_writes());
}

TEST(Sbwas, HighAlphaFavoursShortWarp) {
  // Warp 7 has a single request (a row miss); warp 1 has a long row-hit
  // stream.  With alpha=0.75 the potential of the unit warp
  // (0.75/1) beats a hit (0.25), so it must be served first.
  SbwasConfig cfg;
  cfg.alpha = 0.75;
  Harness h(std::make_unique<SbwasPolicy>(cfg));
  h.mc.push(read_to(0, 1, 0, 1), 0);
  h.run_to(30);
  for (int i = 1; i < 8; ++i) h.mc.push(read_to(0, 1, i, 1), 30);
  h.mc.push(read_to(0, 9, 0, 7), 30);
  h.run_to(2000);
  ASSERT_EQ(h.order.size(), 9u);
  EXPECT_EQ(h.order[1].tag.instr, 7u);
}

TEST(Sbwas, LowAlphaFavoursRowHits) {
  SbwasConfig cfg;
  cfg.alpha = 0.25;
  Harness h(std::make_unique<SbwasPolicy>(cfg));
  h.mc.push(read_to(0, 1, 0, 1), 0);
  h.run_to(30);
  for (int i = 1; i < 8; ++i) h.mc.push(read_to(0, 1, i, 1), 30);
  h.mc.push(read_to(0, 9, 0, 7), 30);
  h.run_to(2000);
  ASSERT_EQ(h.order.size(), 9u);
  // With alpha=0.25 a hit (0.75) always beats the short-warp potential
  // (<= 0.25): the miss drains last.
  EXPECT_EQ(h.order.back().tag.instr, 7u);
}

TEST(Sbwas, DrainsWritesUnderPressure) {
  SbwasConfig cfg;
  cfg.write_pressure = 4;
  Harness h(std::make_unique<SbwasPolicy>(cfg));
  for (int i = 0; i < 6; ++i) {
    MemRequest w = read_to(0, 2, i, kNoWarpInstr);
    w.kind = ReqKind::kWrite;
    h.mc.push(w, 0);
  }
  for (int i = 0; i < 4; ++i) h.mc.push(read_to(1, 1, i, 5), 0);
  h.run_to(2000);
  EXPECT_EQ(h.mc.stats().writes_served, 6u);
  EXPECT_EQ(h.order.size(), 4u);
}

/// Deterministic 64-bit LCG: the streams below are reproducible from the
/// seed alone.
struct Lcg {
  std::uint64_t state;
  std::uint32_t below(std::uint32_t n) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>((state >> 11) % n);
  }
};

MemRequest write_to(BankId bank, RowId row, std::uint32_t col) {
  MemRequest w = read_to(bank, row, col, kNoWarpInstr);
  w.kind = ReqKind::kWrite;
  return w;
}

/// Service order of one seeded read stream (warp instructions of 1-6
/// requests over 4 banks, pushed in batches) under SBWAS with `alpha`.
std::vector<MemRequest> sbwas_service_order(double alpha) {
  SbwasConfig cfg;
  cfg.alpha = alpha;
  Harness h(std::make_unique<SbwasPolicy>(cfg));
  Lcg rng{0x5eed};
  WarpInstrUid uid = 0;
  for (int batch = 0; batch < 40; ++batch) {
    for (int instr = 0; instr < 4; ++instr) {
      ++uid;
      const std::uint32_t n = 1 + rng.below(6);
      for (std::uint32_t i = 0; i < n && h.mc.can_accept_read(); ++i) {
        h.mc.push(read_to(rng.below(4), 1 + rng.below(3), rng.below(32), uid),
                  h.now);
      }
    }
    h.run_to(h.now + 40);
  }
  h.run_to(h.now + 4000);
  return h.order;
}

bool same_order(const std::vector<MemRequest>& a,
                const std::vector<MemRequest>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].tag.instr != b[i].tag.instr || a[i].addr != b[i].addr) {
      return false;
    }
  }
  return true;
}

TEST(Sbwas, QuarterAndHalfAlphaServeIdentically) {
  // SBWAS serves the hit when 1 - alpha >= alpha / remaining, and
  // remaining >= 1, so for any alpha <= 0.5 a schedulable hit always
  // wins: the {0.25, 0.5} "profiling" is a tie (EXPERIMENTS.md, §VI-C).
  const std::vector<MemRequest> quarter = sbwas_service_order(0.25);
  const std::vector<MemRequest> half = sbwas_service_order(0.5);
  ASSERT_GT(quarter.size(), 300u);
  EXPECT_TRUE(same_order(quarter, half));
  // The stream does offer SBWAS a choice: alpha 0.75 serves it otherwise.
  EXPECT_FALSE(same_order(quarter, sbwas_service_order(0.75)));
}

TEST(Sbwas, NeverEntersDrainMode) {
  SbwasConfig cfg;
  Harness h(std::make_unique<SbwasPolicy>(cfg));
  for (int i = 0; i < 40; ++i) {
    MemRequest w = read_to(i % 16, 2, i / 16, kNoWarpInstr);
    w.kind = ReqKind::kWrite;
    h.mc.push(w, 0);
  }
  h.run_to(100);
  EXPECT_FALSE(h.mc.in_write_drain());
  h.run_to(5000);
  EXPECT_EQ(h.mc.stats().writes_served, 40u);
}

// --- Derived state against O(read-queue) references ---------------------
//
// SBWAS keeps its per-warp counts up to date at push and erase, GMC keeps
// per-bank lists of its queued reads, and SBWAS and FR-FCFS skip a
// scheduling call while their idle-scan memo holds.  The streams below
// check, on every cycle, that the counts equal a fresh recount of the
// read queue and GMC's lists its per-bank subsequences; on every call the
// memo skips, that a reference scan finds no read and no write that
// could move; and on every GMC call, that it sends exactly what the
// original full-queue scan picks.

/// Reference: could the policy move a request into a bank queue now?
using CanMove = std::function<bool(const MemoryController&, Cycle)>;

bool ref_write_moves(const MemoryController& mc, bool force) {
  for (const MemRequest& w : mc.write_queue()) {
    if (!mc.bank_queue_has_space(w.loc.bank)) continue;
    if (force || mc.predicted_row(w.loc.bank) == w.loc.row) return true;
  }
  return false;
}

bool ref_read_below_two(const MemoryController& mc) {
  for (const MemRequest& r : mc.read_queue()) {
    if (mc.bank_queue_size(r.loc.bank) < 2) return true;
  }
  return false;
}

CanMove ref_sbwas(const SbwasConfig& cfg) {
  return [cfg](const MemoryController& mc, Cycle) {
    if (mc.write_queue().size() >= cfg.write_pressure &&
        ref_write_moves(mc, /*force=*/true)) {
      return true;
    }
    if (mc.read_queue().empty()) return ref_write_moves(mc, /*force=*/true);
    return ref_read_below_two(mc) || ref_write_moves(mc, /*force=*/false);
  };
}

CanMove ref_frfcfs() {
  return [](const MemoryController& mc, Cycle) {
    return ref_read_below_two(mc);
  };
}

/// The original GMC scan over the whole read queue: per bank with room
/// under the lookahead, the first request of each priority class (aged,
/// row hit under the streak cap, stream breaker on a drained bank,
/// oldest admissible), picked in that order.  Returns the read-queue
/// positions of the picks, in descending order.
std::vector<std::size_t> ref_gmc_picks(const MemoryController& mc,
                                       const GmcConfig& cfg, Cycle now) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  struct Cand {
    std::size_t aged = kNone, hit = kNone, breaker = kNone, oldest = kNone;
  };
  std::vector<Cand> cands(mc.channel().timing().banks);
  std::size_t pos = 0;
  for (auto it = mc.read_queue().begin(); it != mc.read_queue().end();
       ++it, ++pos) {
    const BankId bank = it->loc.bank;
    const std::size_t depth = mc.bank_queue_size(bank);
    if (depth >= 2) continue;
    Cand& c = cands[bank];
    const bool extends = mc.predicted_row(bank) == it->loc.row;
    const bool miss_ok = depth == 0;
    const bool under_cap = mc.tail_streak(bank) < cfg.max_hit_streak;
    if (c.oldest == kNone && ((extends && under_cap) || miss_ok)) {
      c.oldest = pos;
    }
    if (c.aged == kNone && now - it->arrived_at_mc > cfg.age_threshold) {
      c.aged = pos;
    }
    if (c.hit == kNone && extends && under_cap) c.hit = pos;
    if (c.breaker == kNone && !extends && miss_ok) c.breaker = pos;
  }
  std::vector<std::size_t> picks;
  for (const Cand& c : cands) {
    std::size_t pick = c.aged;
    if (pick == kNone) pick = c.hit;
    if (pick == kNone) pick = c.breaker;
    if (pick == kNone) pick = c.oldest;
    if (pick != kNone) picks.push_back(pick);
  }
  std::sort(picks.rbegin(), picks.rend());
  return picks;
}

/// GMC's per-bank lists must equal each bank's read-queue subsequence.
void expect_gmc_lists_match(const MemoryController& mc, const GmcPolicy& p,
                            Cycle now) {
  for (BankId b = 0; b < mc.channel().timing().banks; ++b) {
    std::vector<std::pair<RowId, Cycle>> want;
    for (const MemRequest& r : mc.read_queue()) {
      if (r.loc.bank == b) want.emplace_back(r.loc.row, r.arrived_at_mc);
    }
    std::vector<std::pair<RowId, Cycle>> got;
    for (const GmcPolicy::Queued& q : p.bank_reads(b)) {
      got.emplace_back(q.row, q.arrival);
    }
    ASSERT_EQ(got, want) << "cycle " << now << " bank " << +b;
  }
}

bool same_request(const MemRequest& a, const MemRequest& b) {
  return a.tag.instr == b.tag.instr && a.addr == b.addr &&
         a.arrived_at_mc == b.arrived_at_mc;
}

/// A GMC call must send exactly the reference's picks: each leaves the
/// read queue and lands at its bank queue's tail.
void check_gmc_call(MemoryController& mc, GmcPolicy& gmc, Cycle now) {
  const std::vector<std::size_t> want = ref_gmc_picks(mc, gmc.config(), now);
  std::vector<MemRequest> rest(mc.read_queue().begin(), mc.read_queue().end());
  std::vector<MemRequest> sent;
  for (const std::size_t pos : want) {  // descending: positions stay valid
    sent.push_back(rest[pos]);
    rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(pos));
  }
  gmc.schedule_reads(mc, now);
  ASSERT_EQ(mc.read_queue().size(), rest.size()) << "cycle " << now;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    const auto pos = static_cast<std::ptrdiff_t>(i);
    ASSERT_TRUE(same_request(mc.read_queue().begin()[pos], rest[i]))
        << "cycle " << now << " read-queue position " << i;
  }
  for (const MemRequest& r : sent) {
    const auto& q = mc.bank_queue(r.loc.bank);
    ASSERT_FALSE(q.empty());
    const auto tail = static_cast<std::ptrdiff_t>(q.size() - 1);
    ASSERT_TRUE(same_request(q.begin()[tail], r))
        << "cycle " << now << " bank " << +r.loc.bank;
  }
}

/// Forwards to policy P and, on every scheduling call the memo skips,
/// asks the reference whether anything could have moved.  GMC has no
/// memo: each of its calls is checked against its original full-queue
/// scan instead.
template <class P>
class MemoChecked final : public TransactionScheduler {
 public:
  MemoChecked(std::unique_ptr<P> inner, CanMove can_move)
      : inner_(std::move(inner)), can_move_(std::move(can_move)) {}

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] bool wants_interleaved_writes() const override {
    return inner_->wants_interleaved_writes();
  }
  void schedule_reads(MemoryController& mc, Cycle now) override {
    if constexpr (std::is_same_v<P, GmcPolicy>) {
      ++checked;
      check_gmc_call(mc, *inner_, now);
      return;
    } else if (holds(mc)) {
      ++skips;
      if (can_move_(mc, now)) {
        ADD_FAILURE() << "memo skipped a call that could move, cycle " << now;
      }
    }
    inner_->schedule_reads(mc, now);
  }
  /// The memo holds (GMC, with none, always reads as idle).
  [[nodiscard]] bool holds(const MemoryController& mc) const {
    if constexpr (std::is_same_v<P, GmcPolicy>) {
      return true;
    } else {
      return inner_->idle_memo().holds(mc);
    }
  }
  void schedule_writes(MemoryController& mc, Cycle now) override {
    inner_->schedule_writes(mc, now);
  }
  void on_push(MemoryController& mc, const MemRequest& req,
               Cycle now) override {
    inner_->on_push(mc, req, now);
  }

  [[nodiscard]] const P& inner() const { return *inner_; }
  std::uint64_t skips = 0;
  std::uint64_t checked = 0;  ///< GMC calls compared with the reference

 private:
  std::unique_ptr<P> inner_;
  CanMove can_move_;
};

/// SBWAS's counts must equal a recount of the read queue.
void expect_counts_match(const MemoryController& mc, const SbwasPolicy& p,
                         Cycle now) {
  std::map<WarpInstrUid, std::uint32_t> recount;
  for (const MemRequest& r : mc.read_queue()) ++recount[r.tag.instr];
  const SbwasPolicy::Counts expected(recount.begin(), recount.end());
  ASSERT_EQ(p.remaining(), expected) << "cycle " << now;
}

struct StreamShape {
  /// Reads go to banks [0, read_banks), writes to the banks above.
  BankId read_banks = 4;
  /// Reads pause every other 200 cycles, so the read queue empties.
  bool bursty = false;
  /// While the memo holds (GMC: on any cycle), now and then warm a
  /// queued write's row into its never-used bank and teleport
  /// (sampled-mode row warming): no request moves, yet the bank's
  /// predicted row does.
  bool warm_rows = false;
};

template <class P>
void run_memo_stream(std::unique_ptr<P> policy, CanMove can_move,
                     std::uint64_t seed, StreamShape shape,
                     Cycle cycles = 4000) {
  auto checked =
      std::make_unique<MemoChecked<P>>(std::move(policy), std::move(can_move));
  MemoChecked<P>& c = *checked;
  Harness h(std::move(checked));
  Lcg rng{seed};
  WarpInstrUid uid = 0;
  std::uint32_t left = 0;  // requests still to come of warp instruction uid
  std::uint64_t warms = 0;
  const auto write_banks = static_cast<std::uint32_t>(16 - shape.read_banks);
  for (; h.now < cycles; ++h.now) {
    const Cycle now = h.now;
    const bool quiet = shape.bursty && (now / 200) % 2 == 1;
    while (!quiet && h.mc.can_accept_read() && rng.below(3) == 0) {
      if (left == 0) {
        ++uid;
        left = 1 + rng.below(8);
      }
      h.mc.push(read_to(rng.below(shape.read_banks), 1 + rng.below(3),
                        rng.below(32), uid),
                now);
      --left;
    }
    // Writes come in clumps of 1-4 to one row, like the write-backs of
    // one evicted row, so several can be ready to move at once.
    if (rng.below(20) == 0) {
      const auto bank =
          static_cast<BankId>(shape.read_banks + rng.below(write_banks));
      const RowId row = 1 + rng.below(3);
      for (std::uint32_t n = 1 + rng.below(4);
           n > 0 && h.mc.can_accept_write(); --n) {
        h.mc.push(write_to(bank, row, rng.below(32)), now);
      }
    }
    if (shape.warm_rows && rng.below(4) == 0 && c.holds(h.mc)) {
      for (const MemRequest& w : h.mc.write_queue()) {
        if (h.mc.predicted_row(w.loc.bank) != kNoRow) continue;
        h.mc.channel_mut().warm_row(w.loc.bank, w.loc.row);
        h.mc.on_teleport(now);
        ++warms;
        break;
      }
    }
    if constexpr (std::is_same_v<P, SbwasPolicy>) {
      expect_counts_match(h.mc, c.inner(), now);
    } else if constexpr (std::is_same_v<P, GmcPolicy>) {
      expect_gmc_lists_match(h.mc, c.inner(), now);
    }
    h.mc.tick(now);
    if constexpr (std::is_same_v<P, SbwasPolicy>) {
      expect_counts_match(h.mc, c.inner(), now);
    } else if constexpr (std::is_same_v<P, GmcPolicy>) {
      expect_gmc_lists_match(h.mc, c.inner(), now);
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(h.order.size(), 200u);
  if (shape.warm_rows) {
    EXPECT_GT(warms, 0u) << "the stream never warmed a row";
  }
  if constexpr (std::is_same_v<P, GmcPolicy>) {
    EXPECT_GT(c.checked, 500u) << "too few calls compared with the scan";
  } else {
    EXPECT_GT(c.skips, 20u) << "the stream never exercised the memo";
  }
}

TEST(BaselineIncremental, SbwasSteadyReads) {
  const SbwasConfig cfg;
  run_memo_stream(std::make_unique<SbwasPolicy>(cfg), ref_sbwas(cfg), 0x51,
                  StreamShape{});
}

TEST(BaselineIncremental, SbwasBurstsUnderWritePressure) {
  // Write pressure forces writes, and quiet gaps empty the read queue so
  // the forced-write path runs too.
  SbwasConfig cfg;
  cfg.alpha = 0.75;
  cfg.write_pressure = 8;
  StreamShape shape;
  shape.bursty = true;
  run_memo_stream(std::make_unique<SbwasPolicy>(cfg), ref_sbwas(cfg), 0x52,
                  shape);
}

TEST(BaselineIncremental, SbwasRowWarming) {
  // No write pressure: a write to a never-used bank waits for a row hit,
  // which only row warming can give it.
  SbwasConfig cfg;
  cfg.write_pressure = 1000;
  StreamShape shape;
  shape.warm_rows = true;
  run_memo_stream(std::make_unique<SbwasPolicy>(cfg), ref_sbwas(cfg), 0x53,
                  shape);
}

TEST(BaselineIncremental, FrFcfsStream) {
  StreamShape shape;
  shape.bursty = true;
  shape.warm_rows = true;
  run_memo_stream(std::make_unique<FrFcfsPolicy>(), ref_frfcfs(), 0x54,
                  shape);
}

TEST(BaselineIncremental, GmcStream) {
  GmcConfig cfg;
  cfg.age_threshold = 256;
  cfg.max_hit_streak = 4;
  StreamShape shape;
  shape.warm_rows = true;
  run_memo_stream(std::make_unique<GmcPolicy>(cfg), nullptr, 0x57, shape);
}

TEST(BaselineIncremental, GmcAgeOut) {
  // A short age threshold makes reads age out while nothing else moves,
  // so the starvation valve picks many banks' front reads.
  GmcConfig cfg;
  cfg.age_threshold = 32;
  cfg.max_hit_streak = 4;
  StreamShape shape;
  shape.bursty = true;
  shape.warm_rows = true;
  run_memo_stream(std::make_unique<GmcPolicy>(cfg), nullptr, 0x55, shape);
}

}  // namespace
}  // namespace latdiv
