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
// read-queue subsequence, and that the candidate ordering, every group
// score and every selection outcome are identical to the reference.
// Thousands of events per configuration exercise the add/remove/erase
// paths of all WG variants.
#include "core/policy_wg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

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

// ---- the differential harness -----------------------------------------

struct DiffHarness {
  explicit DiffHarness(WgConfig cfg)
      : cfg_(cfg),
        mc(0, McConfig{}, timing_no_refresh(), make_policy(cfg),
           [](const MemRequest&, Cycle) {}) {}

  std::unique_ptr<WgPolicy> make_policy(const WgConfig& cfg) {
    auto p = std::make_unique<WgPolicy>(cfg, timing_no_refresh());
    wg = p.get();
    return p;
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
