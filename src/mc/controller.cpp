#include "mc/controller.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "obs/hub.hpp"

namespace latdiv {

// ---- TransactionScheduler defaults -----------------------------------

void TransactionScheduler::schedule_writes(MemoryController& mc, Cycle now) {
  auto& wq = mc.write_queue();
  if (wq.empty()) return;
  // FR-FCFS over the write queue: oldest row-hit, else oldest schedulable.
  auto best = wq.end();
  for (auto it = wq.begin(); it != wq.end(); ++it) {
    if (!mc.bank_queue_has_space(it->loc.bank)) continue;
    if (mc.predicted_row(it->loc.bank) == it->loc.row) {
      best = it;
      break;
    }
    if (best == wq.end()) best = it;
  }
  if (best != wq.end()) {
    MemRequest req = *best;
    wq.erase(best);
    mc.send_to_bank(req, now);
  }
}

void TransactionScheduler::on_push(MemoryController&, const MemRequest&,
                                   Cycle) {}
void TransactionScheduler::on_group_complete(MemoryController&,
                                             const WarpTag&, Cycle) {}
void TransactionScheduler::on_remote_selection(MemoryController&,
                                               const CoordMsg&, Cycle) {}
void TransactionScheduler::on_drain_start(MemoryController&, Cycle) {}

// ---- MemoryController -------------------------------------------------

MemoryController::MemoryController(ChannelId id, const McConfig& cfg,
                                   const DramTiming& timing,
                                   std::unique_ptr<TransactionScheduler> policy,
                                   ResponseFn on_read_done,
                                   obs::ObsHub* obs)
    : id_(id),
      cfg_(cfg),
      channel_(timing),
      policy_(std::move(policy)),
      on_read_done_(std::move(on_read_done)),
      obs_(obs),
      read_q_(cfg.read_queue_size),
      write_q_(cfg.write_queue_size),
      bank_q_(timing.banks, BoundedQueue<MemRequest>(cfg.bank_queue_depth)),
      bank_tail_row_(timing.banks, kNoRow),
      bank_tail_streak_(timing.banks, 0),
      rr_bank_in_group_(timing.banks / timing.banks_per_group, 0) {
  LATDIV_ASSERT(policy_ != nullptr, "controller needs a policy");
  LATDIV_ASSERT(timing.banks <= 32, "popped-bank mask supports 32 banks");
  LATDIV_ASSERT(cfg.wq_low_watermark < cfg.wq_high_watermark &&
                    cfg.wq_high_watermark <= cfg.write_queue_size,
                "bad write watermarks");
  stats_.bank_row_hits.assign(timing.banks, 0);
  stats_.bank_row_misses.assign(timing.banks, 0);
  stats_.bank_row_conflicts.assign(timing.banks, 0);
}

void MemoryController::push(MemRequest req, Cycle now) {
  req.arrived_at_mc = now;
  ++mutation_epoch_;
  if (req.kind == ReqKind::kRead) {
    LATDIV_ASSERT(!read_q_.full(), "read queue overflow");
    read_q_.push(req);
    ++stats_.reads_accepted;
  } else {
    LATDIV_ASSERT(!write_q_.full(), "write queue overflow");
    write_q_.push(req);
    ++stats_.writes_accepted;
    if (write_mode_) ++writes_arrived_in_drain_;
  }
  if (obs_ != nullptr) obs_->req_enqueued(req, now);
  policy_->on_push(*this, req, now);
}

void MemoryController::notify_group_complete(const WarpTag& tag, Cycle now) {
  policy_->on_group_complete(*this, tag, now);
}

void MemoryController::deliver_coordination(const CoordMsg& msg, Cycle now) {
  policy_->on_remote_selection(*this, msg, now);
}

RowId MemoryController::predicted_row(BankId bank) const {
  LATDIV_ASSERT(bank < bank_q_.size(), "bank out of range");
  const RowId tail = bank_tail_row_[bank];
  return tail != kNoRow ? tail : channel_.open_row(bank);
}

std::uint32_t MemoryController::tail_streak(BankId bank) const {
  LATDIV_ASSERT(bank < bank_q_.size(), "bank out of range");
  return bank_tail_streak_[bank];
}

void MemoryController::send_to_bank(MemRequest req, Cycle now) {
  const BankId bank = req.loc.bank;
  LATDIV_ASSERT(bank_queue_has_space(bank), "bank command queue overflow");
  LATDIV_ASSERT(req.arrived_at_mc != kNoCycle && req.arrived_at_mc <= now,
                "request never entered a request queue");
  if (req.loc.row == bank_tail_row_[bank]) {
    ++bank_tail_streak_[bank];
  } else {
    bank_tail_row_[bank] = req.loc.row;
    bank_tail_streak_[bank] = 1;
  }
  if (bank_q_[bank].empty()) {
    ++nonempty_banks_;
    cmd_wake_ = 0;  // a new bank head: the next scan may issue for it
  }
  bank_q_[bank].push(req);
  ++cmdq_total_;
  ++mutation_epoch_;
  ++layout_epoch_;
  if (obs_ != nullptr) obs_->req_to_bank(req, now);
}

void MemoryController::announce_selection(const WarpTag& tag,
                                          std::uint32_t score) {
  outbox_.push_back(CoordMsg{id_, tag, score});
}

void MemoryController::record_drain_stall(std::size_t groups,
                                          std::size_t small_groups) {
  stats_.drain_stalled_groups += groups;
  stats_.drain_stalled_small_groups += small_groups;
}

void MemoryController::update_drain_mode(Cycle now) {
  if (policy_->wants_interleaved_writes()) return;  // SBWAS-style
  if (!write_mode_) {
    if (write_q_.size() >= cfg_.wq_high_watermark) {
      write_mode_ = true;
      opportunistic_mode_ = false;
      ++stats_.drains_started;
      ++mutation_epoch_;
      ++layout_epoch_;
      wq_at_drain_start_ = write_q_.size();
      writes_arrived_in_drain_ = 0;
      if (obs_ != nullptr) obs_->drain_begin(id_, now);
      policy_->on_drain_start(*this, now);
    } else if (read_q_.empty() && !write_q_.empty() &&
               all_bank_queues_empty()) {
      write_mode_ = true;
      opportunistic_mode_ = true;
      ++mutation_epoch_;
      ++layout_epoch_;
      wq_at_drain_start_ = write_q_.size();
      writes_arrived_in_drain_ = 0;
      if (obs_ != nullptr) obs_->drain_begin(id_, now);
    }
  } else {
    if (write_q_.size() <= cfg_.wq_low_watermark) {
      write_mode_ = false;
      ++mutation_epoch_;
      ++layout_epoch_;
      if (obs_ != nullptr) obs_->drain_end(id_, now, drained_writes());
    } else if (opportunistic_mode_ && !read_q_.empty() &&
               write_q_.size() < cfg_.wq_high_watermark) {
      // A read arrived during an opportunistic drain: yield to it.
      write_mode_ = false;
      ++mutation_epoch_;
      ++layout_epoch_;
      if (obs_ != nullptr) obs_->drain_end(id_, now, drained_writes());
    }
  }
}

void MemoryController::complete_reads(Cycle now) {
  while (!inflight_reads_.empty() && inflight_reads_.front().done <= now) {
    std::pop_heap(inflight_reads_.begin(), inflight_reads_.end());
    Inflight done = inflight_reads_.back();
    inflight_reads_.pop_back();
    LATDIV_DCHECK(done.req.completed == kNoCycle,
                  "read completing a second time");
    LATDIV_DCHECK(done.done >= done.req.arrived_at_mc,
                  "read completed before it arrived");
    done.req.completed = done.done;
    stats_.read_service_cycles.add(
        static_cast<double>(done.done - done.req.arrived_at_mc));
    ++stats_.reads_served;
    if (obs_ != nullptr) obs_->req_data(done.req, done.done);
    if (on_read_done_) on_read_done_(done.req, now);
  }
}

void MemoryController::issue_one_command(Cycle now) {
  // Refresh has absolute priority once due: close banks, then REF.
  if (channel_.refresh_due(now)) {
    if (channel_.all_banks_closed()) {
      const DramCommand ref{DramCmd::kRefresh, 0, kNoRow};
      if (channel_.can_issue(ref, now)) {
        channel_.issue(ref, now);
        cmd_wake_ = 0;
      }
      return;
    }
    const auto banks = static_cast<BankId>(channel_.timing().banks);
    for (BankId b = 0; b < banks; ++b) {
      const DramCommand pre{DramCmd::kPrecharge, b, kNoRow};
      if (channel_.open_row(b) != kNoRow && channel_.can_issue(pre, now)) {
        channel_.issue(pre, now);
        cmd_wake_ = 0;
        return;
      }
    }
    return;  // waiting on tRAS/tRTP/tWR before banks can close
  }

  if (cmdq_total_ == 0) return;  // every bank queue is empty
  // The last scan issued nothing and no bank head or row state has changed
  // since: no head's command is legal before the recorded wake cycle.
  if (now < cmd_wake_) return;

  Cycle wake = kNoCycle;
  const DramTiming& t = channel_.timing();
  const std::uint32_t groups = t.banks / t.banks_per_group;
  for (std::uint32_t g_off = 0; g_off < groups; ++g_off) {
    const std::uint32_t g = (rr_group_ + g_off) % groups;
    for (std::uint32_t b_off = 0; b_off < t.banks_per_group; ++b_off) {
      const std::uint32_t in_group =
          (rr_bank_in_group_[g] + b_off) % t.banks_per_group;
      const auto bank = static_cast<BankId>(g * t.banks_per_group + in_group);
      if (bank_q_[bank].empty()) continue;
      MemRequest& head = bank_q_[bank].front();

      DramCommand cmd;
      const RowId open = channel_.open_row(bank);
      if (open == head.loc.row) {
        cmd = {head.kind == ReqKind::kRead ? DramCmd::kRead : DramCmd::kWrite,
               bank, head.loc.row};
      } else if (open != kNoRow) {
        cmd = {DramCmd::kPrecharge, bank, kNoRow};
      } else {
        cmd = {DramCmd::kActivate, bank, head.loc.row};
      }
      const Cycle at = channel_.earliest(cmd, now);
      if (at != now) {
        wake = std::min(wake, at);
        continue;
      }

      const Cycle done = channel_.issue(cmd, now);
      cmd_wake_ = 0;
      // The first command issued on behalf of a still-unclassified head
      // fixes its row-buffer outcome: straight CAS = the row was already
      // open (hit), ACT from precharged = miss, PRE of another row =
      // conflict.  Later commands for the same head (the ACT after a
      // conflict's PRE, the CAS after either) leave it untouched.
      if (head.row_outcome == RowOutcome::kNone) {
        switch (cmd.cmd) {
          case DramCmd::kRead:
          case DramCmd::kWrite:
            head.row_outcome = RowOutcome::kHit;
            ++stats_.bank_row_hits[bank];
            break;
          case DramCmd::kActivate:
            head.row_outcome = RowOutcome::kMiss;
            ++stats_.bank_row_misses[bank];
            break;
          case DramCmd::kPrecharge:
            head.row_outcome = RowOutcome::kConflict;
            ++stats_.bank_row_conflicts[bank];
            break;
          case DramCmd::kRefresh:
            break;  // never reaches here (refresh handled above)
        }
      }
      if (cmd.cmd == DramCmd::kRead || cmd.cmd == DramCmd::kWrite) {
        ++mutation_epoch_;  // the bank queue shrinks
        popped_banks_ |= 1u << bank;
        MemRequest req = bank_q_[bank].pop();
        if (bank_q_[bank].empty()) --nonempty_banks_;
        LATDIV_DCHECK(req.loc.bank == bank && req.loc.row == cmd.row,
                      "CAS issued for a request other than the bank head");
        --cmdq_total_;
        req.cas_issued = now;
        if (obs_ != nullptr) obs_->req_cas(req, now);
        if (cmd.cmd == DramCmd::kRead) {
          stats_.read_queueing_cycles.add(
              static_cast<double>(now - req.arrived_at_mc));
          inflight_reads_.push_back(Inflight{done, req});
          std::push_heap(inflight_reads_.begin(), inflight_reads_.end());
        } else {
          ++stats_.writes_served;
          if (obs_ != nullptr) obs_->req_write_retired(req, done);
        }
        // Advance the round-robin pointers past the bank that got data
        // service, so other bank groups / banks get the next slot.
        rr_bank_in_group_[g] = (in_group + 1) % t.banks_per_group;
        rr_group_ = (g + 1) % groups;
      }
      return;  // one command per cycle on the command bus
    }
  }
  cmd_wake_ = wake;
}

void MemoryController::tick(Cycle now) {
  complete_reads(now);
  update_drain_mode(now);
  if (policy_->wants_interleaved_writes()) {
    policy_->schedule_reads(*this, now);  // policy manages both queues
  } else if (write_mode_) {
    policy_->schedule_writes(*this, now);
  } else {
    policy_->schedule_reads(*this, now);
  }
  issue_one_command(now);
  channel_.on_cycle_end(now);
}

}  // namespace latdiv
