#include "core/policy_wg.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "ckpt/error.hpp"
#include "common/log.hpp"

namespace latdiv {

namespace {

/// Truncated (bank, row) key for the shared-row search — must match the
/// historical census exactly, including its 24-bit row truncation.
inline std::uint32_t census_key(BankId bank, RowId row) {
  return (static_cast<std::uint32_t>(bank) << 24) | (row & 0xFFFFFF);
}

/// Liveness fallback: the read queue counts as "under pressure" once it
/// is within this many entries of full.
constexpr std::size_t kRqPressureSlack = 4;

/// Cap on bank-queue insertions per drain_current call (selected-group
/// requests plus MERB fillers).
constexpr std::uint32_t kMaxPushesPerCycle = 8;

}  // namespace

// ---- incremental read-queue index -------------------------------------
//
// The index mirrors the read queue: every read request of a group is one
// QueuedReq in that group's list, in queue (arrival-sequence) order.  The
// queue only ever push_backs and erases, so relative order is stable and
// `seq` reconstructs it exactly: a group's position among the selection
// candidates is its front item's seq (the old code's
// first-occurrence-in-queue order).  Each list carries its bank footprint,
// so a candidate folds banks rather than requests.  The rare searches —
// MERB orphan control, the shared-row count and the filler search — read
// the read queue itself.

void WgPolicy::index_add(WgGroupMeta& meta, const MemRequest& req) {
  const BankId bank = req.loc.bank;
  meta.items.push_back(WgGroupMeta::QueuedReq{next_seq_++, req.arrived_at_mc,
                                              bank, req.loc.row});
  if (meta.items.size() == 1) active_.emplace_back(req.tag.instr, &meta);
  if ((meta.bank_mask & (1u << bank)) == 0) {
    meta.bank_mask |= 1u << bank;
    meta.bank_count[bank] = 0;
    meta.bank_front_row[bank] = req.loc.row;
  }
  ++meta.bank_count[bank];
}

void WgPolicy::index_remove(WgGroupMeta& meta, const MemRequest& req) {
  // The erased queue element is always the earliest remaining request of
  // this group matching its (bank, row), so the first (bank, row, arrival)
  // match in the seq-ordered list is the right one.
  const auto it = std::find_if(
      meta.items.begin(), meta.items.end(),
      [&](const WgGroupMeta::QueuedReq& q) {
        return q.bank == req.loc.bank && q.row == req.loc.row &&
               q.arrival == req.arrived_at_mc;
      });
  LATDIV_ASSERT(it != meta.items.end(), "index_remove: request not indexed");
  const BankId bank = it->bank;
  const RowId row = it->row;
  meta.items.erase(it);
  if (--meta.bank_count[bank] == 0) {
    meta.bank_mask &= ~(1u << bank);
  } else if (meta.bank_front_row[bank] == row) {
    // The bank's first request may be the one that left.
    meta.bank_front_row[bank] =
        std::find_if(meta.items.begin(), meta.items.end(),
                     [bank](const WgGroupMeta::QueuedReq& q) {
                       return q.bank == bank;
                     })->row;
  }
  if (!meta.items.empty()) return;
  const auto ait =
      std::find_if(active_.begin(), active_.end(),
                   [&](const auto& e) { return e.first == req.tag.instr; });
  LATDIV_ASSERT(ait != active_.end(), "index_remove: drained group not listed");
  *ait = active_.back();
  active_.pop_back();
}

void WgPolicy::on_load(MemoryController& mc) {
  // ckpt_load left a fresh group table with empty lists.  Replaying the
  // queue renumbers seq from 0: relative order survives, and nothing
  // compares seq values across a load (the wake that holds one is due).
  active_.clear();
  next_seq_ = 0;
  if (current_ && groups_.count(*current_) == 0) {
    throw ckpt::CkptError(
        "snapshot corrupt: selected warp-group not in the group table");
  }
  for (const MemRequest& req : mc.read_queue()) {
    const auto it = groups_.find(req.tag.instr);
    if (it == groups_.end()) {
      throw ckpt::CkptError(
          "snapshot corrupt: queued read of a warp-group not in the group "
          "table");
    }
    index_add(it->second, req);
  }
  // lint: unordered-iter-ok (any-of check; the error names no group)
  for (const auto& [instr, meta] : groups_) {
    if (meta.items.size() != meta.queued()) {
      throw ckpt::CkptError(
          "snapshot corrupt: warp-group request count disagrees with the "
          "read queue");
    }
  }
}

// ---- notifications ----------------------------------------------------

void WgPolicy::on_push(MemoryController& mc, const MemRequest& req,
                       Cycle now) {
  if (req.kind != ReqKind::kRead) return;  // warp-groups are read-only
  WgGroupMeta& meta = groups_[req.tag.instr];
  const bool first = meta.seen == 0;
  // With no fallback candidate, a group gaining its first queued request
  // may become one, which sets an age bound the failed selection lacks.
  if (wake_.armed && wake_.fb_seq == kNoSeq && meta.queued() == 0) {
    wake_.due = true;
  }
  // Index before the WG-M replay below: the replay scores this group, and
  // the request is already in the read queue when on_push fires.
  index_add(meta, req);
  if (first) {
    meta.tag = req.tag;
    meta.first_arrival = now;
    // A remote controller may have selected this warp before its
    // requests reached us; replay any matching recent message.
    if (cfg_.multi_channel) {
      while (!recent_msgs_.empty() &&
             recent_msgs_.front().at + cfg_.coord_msg_ttl < now) {
        recent_msgs_.pop_front();
      }
      for (const RecentMsg& m : recent_msgs_) {
        if (m.instr == req.tag.instr) {
          CoordMsg replay;
          replay.tag = req.tag;
          replay.score = m.score;
          ++meta.seen;  // count first so the handler sees it pending
          on_remote_selection(mc, replay, now);
          --meta.seen;
          break;
        }
      }
    }
  }
  ++meta.seen;
}

void WgPolicy::on_group_complete(MemoryController&, const WarpTag& tag,
                                 Cycle) {
  auto it = groups_.find(tag.instr);
  if (it == groups_.end()) return;  // every request hit in the caches
  it->second.complete = true;
  ++stats_.groups_completed;
  if (wake_.armed) completed_.push_back(tag.instr);
  forget_if_done(tag.instr);
}

void WgPolicy::on_remote_selection(MemoryController& mc, const CoordMsg& msg,
                                   Cycle now) {
  if (!cfg_.multi_channel) return;
  auto it = groups_.find(msg.tag.instr);
  if (it == groups_.end() || it->second.pushed >= it->second.seen) {
    // Nothing to boost yet — remember the message briefly in case this
    // warp's requests are still in flight towards us.
    recent_msgs_.push_back(RecentMsg{msg.tag.instr, msg.score, now});
    if (recent_msgs_.size() > 64) recent_msgs_.pop_front();
    return;
  }
  WgGroupMeta& meta = it->second;
  const Score local = score_group(mc, msg.tag.instr);
  const std::uint32_t lc = local.completion > meta.coord_bonus
                               ? local.completion - meta.coord_bonus
                               : 0;
  // Another controller expects to finish this warp's requests at RC; if
  // we are the laggard (LC > RC), boost the group by the difference.
  if (lc > msg.score) {
    meta.coord_bonus += lc - msg.score;
    ++stats_.coord_msgs_applied;
  }
}

void WgPolicy::on_drain_start(MemoryController& mc, Cycle) {
  std::size_t stalled = 0;
  std::size_t small = 0;
  // lint: unordered-iter-ok (pure counting; no selection by position)
  for (const auto& [instr, meta] : groups_) {
    const std::uint32_t remaining = meta.queued();
    if (remaining == 0) continue;
    ++stalled;
    const bool unit_sized = meta.seen == 1;
    const bool orphaned = meta.pushed > 0 && remaining <= cfg_.orphan_limit;
    if (unit_sized || orphaned) ++small;
  }
  mc.record_drain_stall(stalled, small);
}

bool WgPolicy::write_pressure(const MemoryController& mc) const {
  if (!cfg_.write_aware) return false;
  // Only the window BEFORE a drain matters: once the drain is underway
  // the stalled groups are already stalled, and right after it the
  // occupancy passes back down through the band harmlessly.
  if (mc.in_write_drain()) return false;
  return mc.write_queue().size() + cfg_.wq_guard >=
         mc.config().wq_high_watermark;
}

// ---- scoring ----------------------------------------------------------

std::uint32_t WgPolicy::bank_queue_score(const MemoryController& mc,
                                         BankId bank) const {
  std::uint32_t score = 0;
  RowId running = mc.channel().open_row(bank);
  for (const MemRequest& queued : mc.bank_queue(bank)) {
    score += (queued.loc.row == running) ? kScoreHit : cfg_.score_miss;
    running = queued.loc.row;
  }
  return score;
}

WgPolicy::Score WgPolicy::score_group(const MemoryController& mc,
                                      WarpInstrUid instr) const {
  const auto git = groups_.find(instr);
  if (git == groups_.end()) return {};
  const WgGroupMeta& meta = git->second;

  // Walk the group's queued requests with a running row per touched bank,
  // simulating each bank's planned row sequence from the controller's
  // predictor.  Only the banks in `touched` are initialised.
  Score out;
  std::uint32_t touched = 0;
  std::array<RowId, kMaxBanks> running;
  std::array<std::uint32_t, kMaxBanks> score;
  for (const WgGroupMeta::QueuedReq& q : meta.items) {
    if ((touched & (1u << q.bank)) == 0) {
      touched |= 1u << q.bank;
      running[q.bank] = mc.predicted_row(q.bank);
      score[q.bank] = bank_queue_score(mc, q.bank);
    }
    const bool hit = q.row == running[q.bank];
    score[q.bank] += hit ? kScoreHit : cfg_.score_miss;
    if (hit) ++out.row_hits;
    running[q.bank] = q.row;
  }
  for (; touched != 0; touched &= touched - 1) {
    out.completion = std::max(out.completion, score[std::countr_zero(touched)]);
  }
  return out;
}

void WgPolicy::forget_if_done(WarpInstrUid instr) {
  auto it = groups_.find(instr);
  if (it == groups_.end()) return;
  const WgGroupMeta& meta = it->second;
  // A drained group has already left active_ (index_remove).
  if (meta.complete && meta.pushed >= meta.seen &&
      (!current_ || *current_ != instr)) {
    groups_.erase(it);
  }
}

// ---- selection --------------------------------------------------------

WgPolicy::Cand WgPolicy::make_cand(const MemoryController& mc,
                                   WarpInstrUid instr,
                                   const WgGroupMeta& meta) const {
  // A group fits when (a) its requests fit the bank command queues and
  // (b) any bank whose row it would close has drained — the same stream
  // hysteresis the GMC row sorter applies: a hit for the still-open row
  // may be one arrival away, and closing early forfeits it.  The
  // liveness fallback ignores (b).
  LATDIV_DCHECK(!meta.items.empty(), "candidate without queued requests");
  const auto depth_cap = mc.config().bank_queue_depth;
  // The list is in queue order, so its front is the oldest request.
  Cand c{instr,
         &meta,
         meta.items.front().seq,
         static_cast<std::uint32_t>(meta.items.size()),
         meta.items.front().arrival,
         0,
         0};
  for (std::uint32_t m = meta.bank_mask; m != 0; m &= m - 1) {
    const auto bank = static_cast<BankId>(std::countr_zero(m));
    const std::size_t queued = mc.bank_queue_size(bank);
    // Groups larger than a bank's command queue can never fit whole;
    // they become selectable once the full queue depth is free and then
    // drain incrementally (drain_current keeps them current).
    const auto need =
        std::min<std::size_t>(meta.bank_count[bank], depth_cap);
    if (queued + need > depth_cap) c.room_block |= 1u << bank;
    if (queued != 0 && mc.predicted_row(bank) != meta.bank_front_row[bank]) {
      c.drain_block |= 1u << bank;
    }
  }
  return c;
}

void WgPolicy::select_next_group(MemoryController& mc, Cycle now) {
  if (wake_.armed && now < wake_.until && !wake_due(mc)) return;
  wake_.armed = false;

  // Candidates come from the incremental per-group index (one entry per
  // group with queued requests), in no particular order: every selection
  // rule below ends on head_seq, the read queue's first-occurrence order,
  // as the final tie-breaker (arrivals do not decrease along the queue,
  // so this is also oldest-request-first).  Nothing mutates the bank
  // queues during a selection, so the candidates' fit masks stay valid
  // throughout.  An empty read queue yields no candidates and arms the
  // wake below; its first request then wakes it (see on_push).
  cands_.clear();
  for (const auto& [instr, meta] : active_) {
    cands_.push_back(make_cand(mc, instr, *meta));
  }
  auto older = [](const Cand& a, const Cand& b) {
    return a.head_seq < b.head_seq;
  };

  // WG-W: imminent write drain — unit-remaining complete groups first.
  // Two tiers: unit groups that respect the stream hysteresis are
  // preferred; only when none exists does drain-imminence justify
  // closing a row early to finish a warp before the drain.
  if (write_pressure(mc)) {
    const Cand* best = nullptr;
    for (const bool require_drained : {true, false}) {
      for (const Cand& c : cands_) {
        if (!c.meta->complete) continue;
        if (c.count != 1 || !c.fits(require_drained)) continue;
        if (best == nullptr || older(c, *best)) best = &c;
      }
      if (best != nullptr) break;
    }
    if (best != nullptr) {
      current_ = best->instr;
      ++stats_.groups_selected;
      ++stats_.writeaware_selections;
      stats_.group_size.add(best->meta->seen);
      if (cfg_.multi_channel) {
        mc.announce_selection(best->meta->tag, 0);
      }
      return;
    }
  }

  // Shared-data extension: how many of the group's queued requests touch
  // a (bank, row) that at least one other pending group also needs, read
  // straight off the read queue.
  auto shared_requests = [&](const Cand& c) -> std::uint32_t {
    const auto& rq = mc.read_queue();
    std::uint32_t n = 0;
    for (const WgGroupMeta::QueuedReq& q : c.meta->items) {
      const std::uint32_t key = census_key(q.bank, q.row);
      const bool shared =
          std::any_of(rq.begin(), rq.end(), [&](const MemRequest& r) {
            return r.tag.instr != c.instr &&
                   census_key(r.loc.bank, r.loc.row) == key;
          });
      if (shared) ++n;
    }
    return n;
  };

  // BASJF: lowest effective completion score among complete groups; ties
  // go to the group with more row hits, then the older group.
  const Cand* best = nullptr;
  Score best_score{};
  std::uint32_t best_effective = 0;
  bool best_was_boosted = false;
  for (const Cand& c : cands_) {
    if (!c.meta->complete || !c.fits(/*require_drained=*/true)) continue;
    const Score s = score_group(mc, c.instr);
    std::uint32_t bonus = c.meta->coord_bonus;
    std::uint32_t shared_bonus = 0;
    if (cfg_.shared_data_boost) {
      shared_bonus = cfg_.shared_weight * shared_requests(c);
      bonus += shared_bonus;
    }
    const std::uint32_t eff = s.completion > bonus ? s.completion - bonus : 0;
    const bool better =
        best == nullptr || eff < best_effective ||
        (eff == best_effective &&
         (s.row_hits > best_score.row_hits ||
          (s.row_hits == best_score.row_hits && older(c, *best))));
    if (better) {
      best = &c;
      best_score = s;
      best_effective = eff;
      best_was_boosted = shared_bonus > 0;
    }
  }
  if (best != nullptr && best_was_boosted) ++stats_.shared_boosts;

  if (best == nullptr) {
    // No fully-formed warp-group.  Liveness fallback: under queue pressure
    // or age limit, drain the group holding the oldest request so the
    // remaining members of other groups can reach the controller.
    const auto& rq = mc.read_queue();
    const bool pressure = rq.size() + kRqPressureSlack >= rq.capacity();
    const Cand* oldest = nullptr;
    for (const Cand& c : cands_) {
      if (!c.fits(/*require_drained=*/false)) continue;
      if (oldest == nullptr || older(c, *oldest)) oldest = &c;
    }
    if (oldest == nullptr) {
      // No candidate fits (or none is queued): only a state change helps.
      arm_wake(mc, nullptr, pressure);
      return;
    }
    if (!pressure && now - oldest->oldest < cfg_.fallback_age) {
      // Time alone can flip this outcome: wake when the age bound hits.
      arm_wake(mc, oldest, pressure);
      return;
    }
    current_ = oldest->instr;
    ++stats_.groups_selected;
    ++stats_.fallback_selections;
    stats_.group_size.add(oldest->meta->seen);
    return;
  }

  current_ = best->instr;
  ++stats_.groups_selected;
  stats_.group_size.add(best->meta->seen);
  if (cfg_.multi_channel) {
    mc.announce_selection(best->meta->tag, best_effective);
  }
}

// ---- selection wake ---------------------------------------------------
//
// A failed selection stays failed until one of its inputs moves: the
// candidate set, each candidate's completeness and fit masks, the read
// and write pressure, and the clock against the fallback age bound.  With
// no selection in progress nothing pulls from the read queue, so queued
// requests only accumulate: a push can only add banks a group must fit,
// and a new group's oldest request is younger than every queued one.
// A group's fit can therefore only improve through a CAS pop at one of
// its blocking banks (a send or a drain flip moves layout_epoch()).

bool WgPolicy::older_than_fallback(const Cand& c) const {
  return c.head_seq < wake_.fb_seq;
}

bool WgPolicy::wakes(const Cand& c) const {
  if (c.meta->complete) {
    // BASJF (or the WG-W hysteresis tier) would select it, the WG-W
    // unit tier would, or it moves the fallback's age bound.
    return c.fits(true) ||
           (c.fits(false) && (older_than_fallback(c) ||
                              (wake_.write_pressure && c.count == 1)));
  }
  return c.fits(false) && older_than_fallback(c);
}

std::uint32_t WgPolicy::watch_banks(const Cand& c) const {
  if (c.meta->complete) return c.room_block | c.drain_block;
  // An incomplete group matters only as a fallback older than the current
  // one, which must be failing to fit (else it would be the fallback).
  return older_than_fallback(c) ? c.room_block : 0;
}

void WgPolicy::arm_wake(MemoryController& mc, const Cand* fallback,
                        bool pressure) {
  wake_ = Wake{};
  wake_.armed = true;
  wake_.pressure = pressure;
  wake_.write_pressure = write_pressure(mc);
  wake_.layout_epoch = mc.layout_epoch();
  if (fallback != nullptr) {
    wake_.fb_seq = fallback->head_seq;
    wake_.until = fallback->oldest + cfg_.fallback_age;
  }
  (void)mc.take_popped_banks();  // this selection already saw them
  completed_.clear();
  watches_.clear();
  for (const Cand& c : cands_) {
    const std::uint32_t banks = watch_banks(c);
    if (banks == 0) continue;
    watches_.push_back(Watch{c.instr, c.meta, banks});
    wake_.banks |= banks;
  }
}

bool WgPolicy::wake_due(MemoryController& mc) {
  if (wake_.due || mc.layout_epoch() != wake_.layout_epoch) return true;
  const auto& rq = mc.read_queue();
  if (!wake_.pressure && rq.size() + kRqPressureSlack >= rq.capacity()) {
    return true;
  }
  if (!wake_.write_pressure && write_pressure(mc)) return true;

  // Newly complete groups: selectable now, or watched from here on.
  for (const WarpInstrUid instr : completed_) {
    const auto it = groups_.find(instr);
    if (it == groups_.end() || it->second.queued() == 0) continue;
    const Cand c = make_cand(mc, instr, it->second);
    if (wakes(c)) return true;
    auto wit = std::find_if(watches_.begin(), watches_.end(),
                            [&](const Watch& w) { return w.instr == instr; });
    if (wit == watches_.end()) {
      watches_.push_back(Watch{instr, c.meta, 0});
      wit = watches_.end() - 1;
    }
    wit->banks = watch_banks(c);
    wake_.banks |= wit->banks;
  }
  completed_.clear();

  // CAS pops at watched banks: re-check only the groups they block.
  const std::uint32_t popped = mc.take_popped_banks() & wake_.banks;
  if (popped == 0) return false;
  wake_.banks = 0;
  for (Watch& w : watches_) {
    if ((w.banks & popped) != 0) {
      const Cand c = make_cand(mc, w.instr, *w.meta);
      if (wakes(c)) return true;
      w.banks = watch_banks(c);
    }
    wake_.banks |= w.banks;
  }
  return false;
}

// ---- draining ---------------------------------------------------------

bool WgPolicy::push_filler(MemoryController& mc, BankId bank, Cycle now) {
  auto& rq = mc.read_queue();
  const RowId target_row = mc.predicted_row(bank);
  if (target_row == kNoRow || !mc.bank_queue_has_space(bank)) return false;

  // Prefer the filler whose warp-group is closest to completion at this
  // controller (paper: overlap the miss with hits from nearly-complete
  // warps); among ties, the request oldest in the queue.  Scanning in
  // queue order and taking a later match only with strictly fewer queued
  // requests minimises (remaining, seq).
  auto best = rq.end();
  std::uint32_t best_remaining = 0;
  for (auto it = rq.begin(); it != rq.end(); ++it) {
    if (it->loc.bank != bank || it->loc.row != target_row) continue;
    if (current_ && it->tag.instr == *current_) continue;  // not a filler
    const std::uint32_t rem = groups_.at(it->tag.instr).queued();
    if (best == rq.end() || rem < best_remaining) {
      best = it;
      best_remaining = rem;
    }
  }
  if (best == rq.end()) return false;

  MemRequest req = *best;
  rq.erase(best);
  WgGroupMeta& meta = groups_.at(req.tag.instr);
  index_remove(meta, req);
  mc.send_to_bank(req, now);
  ++meta.pushed;
  return true;
}

std::uint32_t WgPolicy::drain_current(MemoryController& mc, Cycle now) {
  LATDIV_ASSERT(current_.has_value(), "drain without a selected group");
  const WarpInstrUid instr = *current_;
  WgGroupMeta& meta = groups_.at(instr);
  const std::vector<WgGroupMeta::QueuedReq>& items = meta.items;
  auto& rq = mc.read_queue();
  std::uint32_t pushes = 0;

  // The bank table services each bank's slice of the warp-group as a
  // row-sorted stream: requests extending a bank's current row go first,
  // so the group's intra-warp row locality survives the (arbitrary)
  // arrival order.  Two passes: row-extending requests, then the rest.
  // The walk is over the group's own list, which is the read queue
  // restricted to the group: fillers never come from it, so every
  // restart revisits the same requests in the same order.
  for (int pass = 0; pass < 2; ++pass) {
    std::size_t i = 0;
    while (i < items.size() && pushes < kMaxPushesPerCycle) {
      const WgGroupMeta::QueuedReq q = items[i];
      const BankId bank = q.bank;
      const bool miss = mc.predicted_row(bank) != q.row;
      if (pass == 0 && miss) {
        ++i;  // misses wait for the second pass
        continue;
      }
      if (!mc.bank_queue_has_space(bank)) {
        ++i;  // this bank is saturated; other banks of the group may go
        continue;
      }
      if (cfg_.merb && miss) {
        const std::uint32_t threshold = merb_.value(mc.banks_with_work());
        if (mc.tail_streak(bank) < threshold) {
          if (push_filler(mc, bank, now)) {
            ++stats_.merb_deferrals;
            ++pushes;
            i = 0;  // a filler moved the bank's tail; rescan
            continue;
          }
          // No fillers available: nothing to hide behind; admit the miss.
        } else {
          // Threshold met — orphan control: if only 1..orphan_limit hits
          // to the outgoing row remain, service them before closing it.
          const RowId target = mc.predicted_row(bank);
          const auto fillers = static_cast<std::uint32_t>(
              std::count_if(rq.begin(), rq.end(), [&](const MemRequest& r) {
                return r.loc.bank == bank && r.loc.row == target &&
                       r.tag.instr != instr;
              }));
          if (fillers >= 1 && fillers <= cfg_.orphan_limit) {
            bool pushed_any = false;
            while (pushes < kMaxPushesPerCycle &&
                   push_filler(mc, bank, now)) {
              ++stats_.orphan_topups;
              ++pushes;
              pushed_any = true;
            }
            if (pushed_any) {
              i = 0;
              continue;
            }
          }
        }
        if (!mc.bank_queue_has_space(bank)) {
          ++i;
          continue;
        }
      }
      // The read-queue element index_remove keys on: the first match of
      // (instr, bank, row, arrival), the same request as items[i].
      const auto it = mc.find_read(q.arrival, [&](const MemRequest& r) {
        return r.tag.instr == instr && r.loc.bank == bank && r.loc.row == q.row;
      });
      LATDIV_ASSERT(it != rq.end(), "drain_current: request not queued");
      const MemRequest req = *it;
      rq.erase(it);
      index_remove(meta, req);
      mc.send_to_bank(req, now);
      ++meta.pushed;
      ++pushes;
      // Pass 0: a new tail row may unlock more hits.  Pass 1: items[i] is
      // now the next request.
      if (pass == 0) i = 0;
    }
  }
  return pushes;
}

void WgPolicy::schedule_reads(MemoryController& mc, Cycle now) {
  // Several rounds per cycle: each selected group now fits its bank
  // queues by construction, so a round either pulls a whole group or
  // stops — multiple small groups can be pulled in one cycle, keeping
  // every bank fed (the GMC feeds all banks in parallel; the warp-aware
  // scheduler must not fall behind on sheer insertion throughput).
  for (int round = 0; round < 4; ++round) {
    if (!current_) select_next_group(mc, now);
    if (!current_) return;
    const WarpInstrUid instr = *current_;
    drain_current(mc, now);
    if (groups_.at(instr).queued() == 0) {
      // Fully pulled (or, for a fallback-selected incomplete group, all
      // of its received requests pulled) — move on.
      current_.reset();
      forget_if_done(instr);
      continue;
    }
    return;
  }
}

}  // namespace latdiv
