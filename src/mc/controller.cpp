#include "mc/controller.hpp"

#include <algorithm>
#include <bit>

#include "common/log.hpp"
#include "obs/hub.hpp"

namespace latdiv {

// ---- TransactionScheduler defaults -----------------------------------

void TransactionScheduler::schedule_writes(MemoryController& mc, Cycle now) {
  // FR-FCFS over the write queue: oldest row-hit, else oldest schedulable.
  send_oldest_hit_first(
      mc, mc.write_queue(),
      [&mc](BankId bank) { return mc.bank_queue_has_space(bank); },
      /*fallback=*/true, now);
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
    busy_banks_ |= 1u << bank;
    reset_bank_bound(bank);  // a new bank head: the next scan probes it
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

DramCommand MemoryController::head_command(BankId bank) const {
  const MemRequest& head = bank_q_[bank].front();
  const RowId open = channel_.open_row(bank);
  if (open == head.loc.row) {
    return {head.kind == ReqKind::kRead ? DramCmd::kRead : DramCmd::kWrite,
            bank, head.loc.row};
  }
  if (open != kNoRow) return {DramCmd::kPrecharge, bank, kNoRow};
  return {DramCmd::kActivate, bank, head.loc.row};
}

Cycle MemoryController::min_bank_bound() const {
  Cycle at = kNoCycle;
  for (std::uint32_t busy = busy_banks_; busy != 0; busy &= busy - 1) {
    at = std::min(at, bank_bound_[std::countr_zero(busy)]);
  }
  return at;
}

bool MemoryController::command_state_consistent(Cycle now) const {
  std::uint32_t busy = 0;
  Cycle earliest_head = kNoCycle;
  for (std::size_t b = 0; b < bank_q_.size(); ++b) {
    if (bank_q_[b].empty()) continue;
    busy |= 1u << b;
    const auto bank = static_cast<BankId>(b);
    const Cycle at = channel_.earliest(head_command(bank), now);
    if (bank_bound_[b] > at) return false;
    earliest_head = std::min(earliest_head, at);
  }
  return busy == busy_banks_ && cmd_wake_ <= earliest_head;
}

void MemoryController::issue_one_command(Cycle now) {
  // Refresh has absolute priority once due: close banks, then REF.  REF
  // only raises each bank's earliest ACT, so it leaves the bounds valid;
  // a refresh PRE changes its bank's next command.
  if (channel_.refresh_due(now)) {
    if (channel_.all_banks_closed()) {
      const DramCommand ref{DramCmd::kRefresh, 0, kNoRow};
      if (channel_.can_issue(ref, now)) channel_.issue(ref, now);
      return;
    }
    const auto banks = static_cast<BankId>(channel_.timing().banks);
    for (BankId b = 0; b < banks; ++b) {
      const DramCommand pre{DramCmd::kPrecharge, b, kNoRow};
      if (channel_.open_row(b) != kNoRow && channel_.can_issue(pre, now)) {
        channel_.issue(pre, now);
        reset_bank_bound(b);
        return;
      }
    }
    return;  // waiting on tRAS/tRTP/tWR before banks can close
  }

  if (busy_banks_ == 0) return;  // every bank queue is empty
  // No busy bank's bound has been reached: no head's command is legal.
  if (now < cmd_wake_) return;

  // Multi-level round robin: bank groups from rr_group_, then the busy
  // banks of each group from its pointer, wrapping.  A bank whose bound
  // is still ahead is skipped; the others are probed and re-bounded.
  Cycle wake = kNoCycle;
  const DramTiming& t = channel_.timing();
  const std::uint32_t per_group = t.banks_per_group;
  const std::uint32_t groups = t.banks / per_group;
  const std::uint32_t group_bits =
      per_group == 32 ? ~0u : (1u << per_group) - 1u;
  std::uint32_t g = rr_group_;
  for (std::uint32_t g_off = 0; g_off < groups; ++g_off) {
    const std::uint32_t base = g * per_group;
    const std::uint32_t busy = (busy_banks_ >> base) & group_bits;
    const std::uint32_t from_rr = busy & (~0u << rr_bank_in_group_[g]);
    for (std::uint32_t pending : {from_rr, busy & ~from_rr}) {
      for (; pending != 0; pending &= pending - 1) {
        const auto in_group =
            static_cast<std::uint32_t>(std::countr_zero(pending));
        const auto bank = static_cast<BankId>(base + in_group);
        if (bank_bound_[bank] > now) {
          wake = std::min(wake, bank_bound_[bank]);
          continue;
        }
        const DramCommand cmd = head_command(bank);
        const Cycle at = channel_.earliest(cmd, now);
        bank_bound_[bank] = at;
        if (at != now) {
          wake = std::min(wake, at);
          continue;
        }
        issue_head(bank, cmd, now);
        if (cmd.cmd == DramCmd::kRead || cmd.cmd == DramCmd::kWrite) {
          // Advance the round-robin pointers past the bank that got data
          // service, so other bank groups / banks get the next slot.
          rr_bank_in_group_[g] = in_group + 1 == per_group ? 0 : in_group + 1;
          rr_group_ = g + 1 == groups ? 0 : g + 1;
        }
        if (!bank_q_[bank].empty()) {
          bank_bound_[bank] = channel_.earliest(head_command(bank), now);
        }
        cmd_wake_ = std::max(now + 1, min_bank_bound());
        return;  // one command per cycle on the command bus
      }
    }
    g = g + 1 == groups ? 0 : g + 1;
  }
  cmd_wake_ = wake;
}

void MemoryController::issue_head(BankId bank, const DramCommand& cmd,
                                  Cycle now) {
  MemRequest& head = bank_q_[bank].front();
  const Cycle done = channel_.issue(cmd, now);
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
  if (cmd.cmd != DramCmd::kRead && cmd.cmd != DramCmd::kWrite) return;
  ++mutation_epoch_;  // the bank queue shrinks
  popped_banks_ |= 1u << bank;
  MemRequest req = bank_q_[bank].pop();
  if (bank_q_[bank].empty()) busy_banks_ &= ~(1u << bank);
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
