// Randomized differential test for WgPolicy's incremental read-queue
// index (the warp sorter's per-group bookkeeping).
//
// The policy does not scan the controller's read queue to enumerate
// candidates, order them, or score them — it keeps each group's queued
// requests in a list, maintained incrementally.  This test reimplements
// the original O(read-queue) reference scans directly against
// MemoryController::read_queue() and, after every cycle of a randomized
// event stream (pushes, completions, coordination messages, ticks that
// drain and fill banks), asserts that every list equals its group's
// read-queue subsequence with the bank footprint of a recount, that the
// candidate ordering, every group score and every selection outcome are
// identical to the reference, and that every drain of a group selected
// on an earlier cycle leaves the read queue and the bank queues exactly
// as the original read-queue walk does.  Thousands of events per
// configuration exercise the add/remove/erase paths of all WG variants.
#include "core/policy_wg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/merb.hpp"
#include "dram/params.hpp"
#include "mc/controller.hpp"

namespace latdiv {
namespace {

DramTiming timing_no_refresh() {
  DramParams p;
  p.refresh_enabled = false;
  return DramTiming::from(p);
}

/// Deterministic 64-bit LCG so the event stream is identical on every
/// run and platform (std::mt19937 would also do, but this keeps the
/// stream trivially reproducible from the seed alone).
struct Lcg {
  std::uint64_t state;
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 11;
  }
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(next() % n);
  }
};

MemRequest make_read(BankId bank, RowId row, std::uint32_t col,
                     WarpInstrUid uid) {
  MemRequest r;
  r.kind = ReqKind::kRead;
  r.addr = (static_cast<Addr>(bank) << 28) | (static_cast<Addr>(row) << 15) |
           (static_cast<Addr>(col) << 7);
  r.loc.bank = bank;
  r.loc.bank_group = bank / 4;
  r.loc.row = row;
  r.loc.col = col;
  r.tag.instr = uid;
  r.tag.warp = static_cast<WarpId>(uid % 48);
  r.tag.sm = static_cast<SmId>(uid % 30);
  return r;
}

// ---- reference scans (the original O(read-queue) implementations) -----

/// Requests of `instr` in the read queue, in queue order.
std::vector<MemRequest> ref_pending(const MemoryController& mc,
                                    WarpInstrUid instr) {
  std::vector<MemRequest> out;
  for (const MemRequest& r : mc.read_queue()) {
    if (r.tag.instr == instr) out.push_back(r);
  }
  return out;
}

/// Groups in read-queue first-occurrence order (the reference candidate
/// order of the original selection loop).
std::vector<WarpInstrUid> ref_candidate_order(const MemoryController& mc) {
  std::vector<WarpInstrUid> order;
  for (const MemRequest& r : mc.read_queue()) {
    if (std::find(order.begin(), order.end(), r.tag.instr) == order.end()) {
      order.push_back(r.tag.instr);
    }
  }
  return order;
}

/// Reference bank backlog score: walk the bank's command queue from the
/// channel's open row (WgPolicy::kScoreHit per extending request,
/// score_miss per row change).
std::uint32_t ref_bank_queue_score(const MemoryController& mc, BankId bank,
                                   const WgConfig& cfg) {
  std::uint32_t score = 0;
  RowId running = mc.channel().open_row(bank);
  for (const MemRequest& q : mc.bank_queue(bank)) {
    score += (q.loc.row == running) ? WgPolicy::kScoreHit : cfg.score_miss;
    running = q.loc.row;
  }
  return score;
}

/// Reference group score (paper §IV-B1): per touched bank, simulate the
/// planned row sequence from the controller's predictor across the
/// group's queued requests in queue order; group score is the max.
WgPolicy::Score ref_score(const MemoryController& mc, const WgConfig& cfg,
                          WarpInstrUid instr) {
  WgPolicy::Score out;
  std::vector<BankId> banks;
  for (const MemRequest& r : ref_pending(mc, instr)) {
    if (std::find(banks.begin(), banks.end(), r.loc.bank) == banks.end()) {
      banks.push_back(r.loc.bank);
    }
  }
  for (const BankId bank : banks) {
    RowId running = mc.predicted_row(bank);
    std::uint32_t score = ref_bank_queue_score(mc, bank, cfg);
    for (const MemRequest& r : ref_pending(mc, instr)) {
      if (r.loc.bank != bank) continue;
      const bool hit = r.loc.row == running;
      score += hit ? WgPolicy::kScoreHit : cfg.score_miss;
      if (hit) ++out.row_hits;
      running = r.loc.row;
    }
    out.completion = std::max(out.completion, score);
  }
  return out;
}

/// Reference selection outcome: would a warp-group be selected from the
/// read queue right now?  Mirrors the selection rules (WG-W unit tier,
/// BASJF over complete groups that fit and respect the stream hysteresis,
/// liveness fallback under pressure or age) straight from the queues.
bool ref_selects(const MemoryController& mc, const WgConfig& cfg,
                 const std::set<WarpInstrUid>& complete, Cycle now) {
  const auto& rq = mc.read_queue();
  const std::size_t depth = mc.config().bank_queue_depth;
  const bool write_pressure =
      cfg.write_aware && !mc.in_write_drain() &&
      mc.write_queue().size() + cfg.wq_guard >= mc.config().wq_high_watermark;
  bool any_fallback = false;
  Cycle fallback_oldest = kNoCycle;
  for (const WarpInstrUid instr : ref_candidate_order(mc)) {
    const auto pending = ref_pending(mc, instr);
    std::map<BankId, std::vector<const MemRequest*>> by_bank;
    for (const MemRequest& r : pending) by_bank[r.loc.bank].push_back(&r);
    bool room = true;
    bool drained = true;
    for (const auto& [bank, reqs] : by_bank) {
      const std::size_t queued = mc.bank_queue_size(bank);
      if (queued + std::min(reqs.size(), depth) > depth) room = false;
      if (queued != 0 && mc.predicted_row(bank) != reqs.front()->loc.row) {
        drained = false;
      }
    }
    const bool done = complete.count(instr) != 0;
    if (done && room && (drained || (write_pressure && pending.size() == 1))) {
      return true;
    }
    if (room) {
      any_fallback = true;
      fallback_oldest = std::min(fallback_oldest, pending.front().arrived_at_mc);
    }
  }
  // WgPolicy's read-queue pressure threshold: within 4 entries of full.
  const bool pressure = rq.size() + 4 >= rq.capacity();
  return any_fallback && (pressure || now - fallback_oldest >= cfg.fallback_age);
}

// ---- reference drain (the original read-queue walk) --------------------

/// The controller state the original drain walk reads and writes, copied
/// out of a controller so the walk can run without touching it.  Sends
/// change only the bank's depth, tail row and streak (a command queue
/// gains no room during a scheduling call).
struct DrainShadow {
  explicit DrainShadow(const MemoryController& mc)
      : rq(mc.read_queue().begin(), mc.read_queue().end()) {
    const auto banks = mc.channel().timing().banks;
    for (BankId b = 0; b < banks; ++b) {
      depth.push_back(mc.bank_queue_size(b));
      tail.push_back(mc.predicted_row(b));
      tail_set.push_back(mc.tail_streak(b) > 0);
      streak.push_back(mc.tail_streak(b));
    }
    cap = mc.config().bank_queue_depth;
    sent.resize(banks);
  }

  [[nodiscard]] bool has_space(BankId b) const { return depth[b] < cap; }
  [[nodiscard]] std::uint32_t banks_with_work() const {
    return static_cast<std::uint32_t>(std::count_if(
        depth.begin(), depth.end(), [](std::size_t d) { return d != 0; }));
  }
  /// MemoryController::send_to_bank's effect on the state above.
  void send(std::size_t pos) {
    const MemRequest r = rq[pos];
    rq.erase(rq.begin() + static_cast<std::ptrdiff_t>(pos));
    const BankId b = r.loc.bank;
    if (tail_set[b] && r.loc.row == tail[b]) {
      ++streak[b];
    } else {
      tail[b] = r.loc.row;
      tail_set[b] = true;
      streak[b] = 1;
    }
    ++depth[b];
    sent[b].push_back(r);
  }
  [[nodiscard]] std::uint32_t queued(WarpInstrUid instr) const {
    return static_cast<std::uint32_t>(
        std::count_if(rq.begin(), rq.end(), [instr](const MemRequest& r) {
          return r.tag.instr == instr;
        }));
  }

  std::vector<MemRequest> rq;
  std::vector<std::size_t> depth;
  std::vector<RowId> tail;  ///< predicted row
  std::vector<bool> tail_set;
  std::vector<std::uint32_t> streak;
  std::size_t cap = 0;
  std::vector<std::vector<MemRequest>> sent;  ///< per bank, in send order
};

/// The original filler search: the request to `bank`'s predicted row of
/// the group with the fewest queued requests, oldest first.
bool ref_push_filler(DrainShadow& s, WarpInstrUid current, BankId bank) {
  const RowId target = s.tail[bank];
  if (target == kNoRow || !s.has_space(bank)) return false;
  std::size_t best = s.rq.size();
  std::uint32_t best_remaining = 0;
  for (std::size_t i = 0; i < s.rq.size(); ++i) {
    const MemRequest& r = s.rq[i];
    if (r.loc.bank != bank || r.loc.row != target) continue;
    if (r.tag.instr == current) continue;
    const std::uint32_t rem = s.queued(r.tag.instr);
    if (best == s.rq.size() || rem < best_remaining) {
      best = i;
      best_remaining = rem;
    }
  }
  if (best == s.rq.size()) return false;
  s.send(best);
  return true;
}

/// The original drain_current: two passes over the read queue, skipping
/// other groups' requests, restarting from the queue head after every
/// pass-0 send and every filler push.
void ref_drain(DrainShadow& s, const WgConfig& cfg, const MerbTable& merb,
               WarpInstrUid current) {
  constexpr std::uint32_t kMaxPushes = 8;
  std::uint32_t pushes = 0;
  for (int pass = 0; pass < 2; ++pass) {
    std::size_t i = 0;
    while (i < s.rq.size() && pushes < kMaxPushes) {
      const MemRequest& r = s.rq[i];
      const BankId bank = r.loc.bank;
      if (r.tag.instr != current ||
          (pass == 0 && s.tail[bank] != r.loc.row) || !s.has_space(bank)) {
        ++i;
        continue;
      }
      if (cfg.merb && s.tail[bank] != r.loc.row) {
        if (s.streak[bank] < merb.value(s.banks_with_work())) {
          if (ref_push_filler(s, current, bank)) {
            ++pushes;
            i = 0;
            continue;
          }
        } else {
          const RowId target = s.tail[bank];
          const auto fillers = static_cast<std::uint32_t>(std::count_if(
              s.rq.begin(), s.rq.end(), [&](const MemRequest& q) {
                return q.loc.bank == bank && q.loc.row == target &&
                       q.tag.instr != current;
              }));
          if (fillers >= 1 && fillers <= cfg.orphan_limit) {
            bool pushed_any = false;
            while (pushes < kMaxPushes && ref_push_filler(s, current, bank)) {
              ++pushes;
              pushed_any = true;
            }
            if (pushed_any) {
              i = 0;
              continue;
            }
          }
        }
        if (!s.has_space(bank)) {
          ++i;
          continue;
        }
      }
      s.send(i);
      ++pushes;
      if (pass == 0) i = 0;
    }
  }
}

bool same_request(const MemRequest& a, const MemRequest& b) {
  return a.tag.instr == b.tag.instr && a.addr == b.addr &&
         a.arrived_at_mc == b.arrived_at_mc;
}

/// Does `mc` hold the result of `ref`, run from `before`?  The read
/// queue must equal the reference's, and each bank queue must have
/// gained exactly its sends.  With `exact` off later rounds may have
/// pulled more: the reference's sends must come first and the rest of
/// the read queue is not compared.
bool drained_as(const MemoryController& mc, const DrainShadow& before,
                const DrainShadow& ref, bool exact) {
  if (exact) {
    if (mc.read_queue().size() != ref.rq.size()) return false;
    for (std::size_t i = 0; i < ref.rq.size(); ++i) {
      const auto pos = static_cast<std::ptrdiff_t>(i);
      if (!same_request(mc.read_queue().begin()[pos], ref.rq[i])) {
        return false;
      }
    }
  }
  for (BankId b = 0; b < ref.sent.size(); ++b) {
    const auto& q = mc.bank_queue(b);
    const std::size_t added = q.size() - before.depth[b];
    const auto& want = ref.sent[b];
    if (exact ? added != want.size() : added < want.size()) return false;
    for (std::size_t k = 0; k < want.size(); ++k) {
      const auto pos = static_cast<std::ptrdiff_t>(before.depth[b] + k);
      if (!same_request(q.begin()[pos], want[k])) return false;
    }
  }
  return true;
}

/// Forwards to a WgPolicy and checks every scheduling call that drains
/// one known group against ref_drain run on a copy of the controller
/// state: a call that starts with a group selected drains it first, and
/// a call that selects exactly one group drains that one (still
/// selected afterwards, or else one of the groups the call emptied).
/// The comparison is exact unless a later round of the same call
/// selected another group.
class DrainChecked final : public TransactionScheduler {
 public:
  DrainChecked(std::unique_ptr<WgPolicy> inner, const DramTiming& timing)
      : inner_(std::move(inner)), merb_(timing) {}

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  void schedule_reads(MemoryController& mc, Cycle now) override {
    const DrainShadow before(mc);
    const std::optional<WarpInstrUid> entry = inner_->current();
    const std::uint64_t selected = inner_->wg_stats()->groups_selected;
    inner_->schedule_reads(mc, now);
    const std::uint64_t selections =
        inner_->wg_stats()->groups_selected - selected;

    std::vector<WarpInstrUid> drained;
    if (entry) {
      drained.push_back(*entry);
    } else if (selections == 1 && inner_->current()) {
      drained.push_back(*inner_->current());
    } else if (selections == 1) {
      for (const MemRequest& r : before.rq) {
        const bool gone = std::none_of(
            mc.read_queue().begin(), mc.read_queue().end(),
            [&](const MemRequest& q) { return q.tag.instr == r.tag.instr; });
        if (gone && std::find(drained.begin(), drained.end(), r.tag.instr) ==
                        drained.end()) {
          drained.push_back(r.tag.instr);
        }
      }
    }
    if (drained.empty()) return;
    const bool exact = entry ? selections == 0 : true;
    const bool any = std::any_of(
        drained.begin(), drained.end(), [&](WarpInstrUid instr) {
          DrainShadow ref = before;
          ref_drain(ref, inner_->config(), merb_, instr);
          return drained_as(mc, before, ref, exact);
        });
    ASSERT_TRUE(any) << "cycle " << now << ": the drain of "
                     << (entry ? "the selected group" : "a new selection")
                     << " differs from the read-queue walk";
    ++checked;
  }
  void on_push(MemoryController& mc, const MemRequest& req,
               Cycle now) override {
    inner_->on_push(mc, req, now);
  }
  void on_group_complete(MemoryController& mc, const WarpTag& tag,
                         Cycle now) override {
    inner_->on_group_complete(mc, tag, now);
  }
  void on_remote_selection(MemoryController& mc, const CoordMsg& msg,
                           Cycle now) override {
    inner_->on_remote_selection(mc, msg, now);
  }
  void on_drain_start(MemoryController& mc, Cycle now) override {
    inner_->on_drain_start(mc, now);
  }
  [[nodiscard]] const WgStats* wg_stats() const override {
    return inner_->wg_stats();
  }

  std::uint64_t checked = 0;

 private:
  std::unique_ptr<WgPolicy> inner_;
  MerbTable merb_;
};

// ---- the differential harness -----------------------------------------

struct DiffHarness {
  explicit DiffHarness(WgConfig cfg)
      : cfg_(cfg),
        mc(0, McConfig{}, timing_no_refresh(), make_policy(cfg),
           [](const MemRequest&, Cycle) {}) {}

  std::unique_ptr<TransactionScheduler> make_policy(const WgConfig& cfg) {
    auto p = std::make_unique<WgPolicy>(cfg, timing_no_refresh());
    wg = p.get();
    auto checked =
        std::make_unique<DrainChecked>(std::move(p), timing_no_refresh());
    drains = checked.get();
    return checked;
  }

  /// Assert the incremental index mirrors the read queue exactly.
  void check_index() const {
    const auto order = ref_candidate_order(mc);
    for (const WarpInstrUid instr : order) {
      const auto git = wg->groups().find(instr);
      ASSERT_NE(git, wg->groups().end()) << "queued group not tracked";
      const WgGroupMeta& meta = git->second;
      const auto pending = ref_pending(mc, instr);
      ASSERT_EQ(meta.queued(), pending.size()) << "instr " << instr;

      // The group's list must be exactly its read-queue subsequence
      // (bank, row, arrival), in order.
      ASSERT_EQ(meta.items.size(), pending.size()) << "instr " << instr;
      for (std::size_t i = 0; i < pending.size(); ++i) {
        EXPECT_EQ(meta.items[i].bank, pending[i].loc.bank);
        EXPECT_EQ(meta.items[i].row, pending[i].loc.row);
        EXPECT_EQ(meta.items[i].arrival, pending[i].arrived_at_mc);
      }
    }

    // Every group's bank footprint must equal a recount of its list
    // (empty for a group with nothing queued).
    for (const auto& [instr, meta] : wg->groups()) {
      std::uint32_t mask = 0;
      std::array<std::uint32_t, WgGroupMeta::kMaxBanks> count{};
      std::array<RowId, WgGroupMeta::kMaxBanks> front{};
      for (const MemRequest& r : ref_pending(mc, instr)) {
        if ((mask & (1u << r.loc.bank)) == 0) front[r.loc.bank] = r.loc.row;
        mask |= 1u << r.loc.bank;
        ++count[r.loc.bank];
      }
      ASSERT_EQ(meta.bank_mask, mask) << "instr " << instr;
      for (std::uint32_t m = mask; m != 0; m &= m - 1) {
        const int b = std::countr_zero(m);
        EXPECT_EQ(meta.bank_count[b], count[b]) << "instr " << instr;
        EXPECT_EQ(meta.bank_front_row[b], front[b]) << "instr " << instr;
      }
    }

    // Candidate order: groups sorted by their front item's seq must equal
    // the queue's first-occurrence order.
    std::vector<std::pair<std::uint64_t, WarpInstrUid>> by_seq;
    for (const auto& [instr, meta] : wg->groups()) {
      if (!meta.items.empty()) {
        by_seq.emplace_back(meta.items.front().seq, instr);
      }
    }
    std::sort(by_seq.begin(), by_seq.end());
    ASSERT_EQ(by_seq.size(), order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(by_seq[i].second, order[i]) << "candidate rank " << i;
    }
  }

  /// Assert every queued group's incremental score equals the reference.
  void check_scores() const {
    for (const WarpInstrUid instr : ref_candidate_order(mc)) {
      const WgPolicy::Score inc = wg->score_group(mc, instr);
      const WgPolicy::Score ref = ref_score(mc, cfg_, instr);
      EXPECT_EQ(inc.completion, ref.completion) << "instr " << instr;
      EXPECT_EQ(inc.row_hits, ref.row_hits) << "instr " << instr;
      // Scored twice: scoring only reads the index and the queues.
      const WgPolicy::Score again = wg->score_group(mc, instr);
      EXPECT_EQ(again.completion, ref.completion);
      EXPECT_EQ(again.row_hits, ref.row_hits);
    }
  }

  WgConfig cfg_;
  WgPolicy* wg = nullptr;
  DrainChecked* drains = nullptr;
  MemoryController mc;
};

/// Drive `cycles` of randomized traffic through the controller, checking
/// the index and the scores after every cycle.  Every cycle that starts
/// with no selected group also checks the selection outcome against
/// ref_selects: a group is selected exactly when the reference selects
/// one, so a selection the wake sleeps through fails the test.  `writes`
/// mixes in write traffic (WG-W pressure, drains).
void run_differential(WgConfig cfg, std::uint64_t seed, Cycle cycles,
                      bool writes = false) {
  DiffHarness h(cfg);
  Lcg rng{seed};
  WarpInstrUid next_uid = 1;
  // Open groups: uid -> remaining requests to emit before completion.
  std::map<WarpInstrUid, std::pair<WarpTag, std::uint32_t>> open;
  std::set<WarpInstrUid> complete;
  std::uint64_t armed_cycles = 0;

  for (Cycle now = 0; now < cycles; ++now) {
    // Maybe start a new group (up to 8 requests over up to 4 banks).
    if (open.size() < 6 && rng.below(4) == 0) {
      const WarpInstrUid uid = next_uid++;
      open[uid] = {WarpTag{}, 1 + rng.below(8)};
    }
    // Emit requests of open groups while the read queue has room.
    for (auto it = open.begin(); it != open.end();) {
      auto& [uid, entry] = *it;
      bool advanced = false;
      while (entry.second > 0 &&
             h.mc.read_queue().size() + 2 < h.mc.read_queue().capacity() &&
             rng.below(3) == 0) {
        const BankId bank = static_cast<BankId>(rng.below(4) * 4);
        const RowId row = 1 + rng.below(3);
        const MemRequest r = make_read(bank, row, rng.below(64), uid);
        entry.first = r.tag;
        h.mc.push(r, now);
        --entry.second;
        advanced = true;
      }
      if (entry.second == 0) {
        // All requests arrived: complete the group (sometimes late).
        if (rng.below(2) == 0) {
          h.mc.notify_group_complete(entry.first, now);
          complete.insert(uid);
          it = open.erase(it);
          continue;
        }
      }
      ++it;
      (void)advanced;
    }
    // WG-M: occasionally inject a remote-selection message for a live or
    // future group (exercises the replay path).
    if (cfg.multi_channel && rng.below(16) == 0) {
      CoordMsg msg;
      msg.tag.instr = 1 + rng.below(static_cast<std::uint32_t>(next_uid) + 2);
      msg.score = rng.below(12);
      h.mc.deliver_coordination(msg, now);
    }

    if (writes && h.mc.can_accept_write() && rng.below(3) == 0) {
      MemRequest w = make_read(static_cast<BankId>(rng.below(16)),
                               1 + rng.below(3), rng.below(64), 0);
      w.kind = ReqKind::kWrite;
      h.mc.push(w, now);
    }

    // Compared only when the cycle stays in read mode: a drain flip
    // during the tick changes what the selection sees.
    const bool idle =
        !h.wg->current().has_value() && !h.mc.in_write_drain();
    const bool want = idle && ref_selects(h.mc, cfg, complete, now);
    const bool was_armed = h.wg->wake_armed();
    const std::uint64_t selected = h.wg->wg_stats()->groups_selected;
    h.mc.tick(now);
    if (idle && !h.mc.in_write_drain()) {
      const bool got = h.wg->wg_stats()->groups_selected != selected;
      ASSERT_EQ(got, want) << "cycle " << now << (was_armed ? " (armed)" : "");
      if (was_armed) ++armed_cycles;
    }
    h.check_index();
    h.check_scores();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(armed_cycles, 0u) << "the stream never armed the wake";
  EXPECT_GT(h.drains->checked, 50u) << "the stream drained too little";
}

TEST(WgIncremental, DifferentialWg) {
  run_differential(WgConfig{}, 0x1234, 1500);
}

TEST(WgIncremental, DifferentialWgM) {
  WgConfig cfg;
  cfg.multi_channel = true;
  run_differential(cfg, 0x5678, 1500);
}

TEST(WgIncremental, DifferentialWgBw) {
  WgConfig cfg;
  cfg.multi_channel = true;
  cfg.merb = true;
  run_differential(cfg, 0x9abc, 1500);
}

TEST(WgIncremental, DifferentialWgW) {
  WgConfig cfg;
  cfg.multi_channel = true;
  cfg.merb = true;
  cfg.write_aware = true;
  run_differential(cfg, 0xdef0, 1500);
}

TEST(WgIncremental, DifferentialWgShared) {
  WgConfig cfg;
  cfg.merb = true;
  cfg.shared_data_boost = true;
  run_differential(cfg, 0x2468, 1500);
}

TEST(WgIncremental, DifferentialWgWWithWrites) {
  // Write traffic turns WG-W's write pressure on and off and starts
  // drains, so the wake also sees pressure flips and drain-mode changes.
  WgConfig cfg;
  cfg.merb = true;
  cfg.write_aware = true;
  run_differential(cfg, 0x7531, 3000, /*writes=*/true);
}

TEST(WgIncremental, DifferentialShortFallbackAge) {
  // A tiny fallback age forces frequent incomplete-group drains, hitting
  // the index-remove path for partially-arrived groups.
  WgConfig cfg;
  cfg.fallback_age = 32;
  run_differential(cfg, 0x1357, 1500);
}

}  // namespace
}  // namespace latdiv
