#include "dram/channel.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace latdiv {

Channel::Channel(const DramTiming& timing)
    : timing_(timing),
      bank_row_(timing.banks, kNoRow),
      bank_earliest_act_(timing.banks, 0),
      bank_earliest_cas_(timing.banks, 0),
      bank_earliest_pre_(timing.banks, 0) {
  next_refresh_at_ = timing_.trefi;
  stats_.per_bank_activates.assign(timing.banks, 0);
  stats_.per_bank_precharges.assign(timing.banks, 0);
}

RowId Channel::open_row(BankId bank) const {
  LATDIV_ASSERT(bank < bank_row_.size(), "bank index out of range");
  return bank_row_[bank];
}

bool Channel::open_banks_consistent() const {
  return std::count_if(bank_row_.begin(), bank_row_.end(),
                       [](RowId row) { return row != kNoRow; }) ==
         static_cast<std::ptrdiff_t>(open_banks_);
}

bool Channel::refresh_due(Cycle now) const {
  return timing_.refresh_enabled && now >= next_refresh_at_;
}

namespace {

/// `at` raised to `prev + gap` when a previous command at `prev` exists.
inline Cycle after(Cycle at, Cycle prev, Cycle gap) {
  return prev != kNoCycle ? std::max(at, prev + gap) : at;
}

}  // namespace

Cycle Channel::act_earliest(BankId bank, Cycle now) const {
  if (bank_row_[bank] != kNoRow) return kNoCycle;  // must be precharged
  Cycle at = std::max(now, bank_earliest_act_[bank]);  // tRP / tRC / tRFC
  at = after(at, last_act_, timing_.trrd);
  return after(at, act_window_[act_window_pos_], timing_.tfaw);
}

Cycle Channel::cas_earliest(const DramCommand& cmd, Cycle now) const {
  const RowId row = bank_row_[cmd.bank];
  if (row == kNoRow || row != cmd.row) return kNoCycle;  // row must be open
  Cycle at = std::max(now, bank_earliest_cas_[cmd.bank]);  // tRCD
  const auto group = static_cast<BankGroupId>(cmd.bank / timing_.banks_per_group);
  if (cmd.cmd == DramCmd::kRead) {
    at = after(at, last_rd_cmd_,
               group == last_rd_group_ ? timing_.tccdl : timing_.tccds);
    return after(at, last_wr_cmd_, timing_.write_to_read());
  }
  at = after(at, last_wr_cmd_,
             group == last_wr_group_ ? timing_.tccdl : timing_.tccds);
  return after(at, last_rd_cmd_, timing_.read_to_write());
}

Cycle Channel::earliest(const DramCommand& cmd, Cycle now) const {
  LATDIV_ASSERT(cmd.bank < bank_row_.size() || cmd.cmd == DramCmd::kRefresh,
                "bank index out of range");
  switch (cmd.cmd) {
    case DramCmd::kActivate:
      return act_earliest(cmd.bank, now);
    case DramCmd::kPrecharge:
      if (bank_row_[cmd.bank] == kNoRow) return kNoCycle;
      return std::max(now, bank_earliest_pre_[cmd.bank]);
    case DramCmd::kRead:
    case DramCmd::kWrite:
      return cas_earliest(cmd, now);
    case DramCmd::kRefresh:
      if (!all_banks_closed()) return kNoCycle;
      // Every bank's precharge must have completed (earliest_act embeds
      // tRP after a PRE).
      Cycle at = now;
      for (Cycle bank_at : bank_earliest_act_) at = std::max(at, bank_at);
      return at;
  }
  LATDIV_UNREACHABLE("bad DramCmd");
}

Cycle Channel::issue(const DramCommand& cmd, Cycle now) {
  for (const CommandObserver& obs : observers_) obs(cmd, now);
  LATDIV_ASSERT(can_issue(cmd, now), "illegal DRAM command issued");
  LATDIV_ASSERT(last_cmd_cycle_ == kNoCycle || now > last_cmd_cycle_,
                "two commands in one cycle on a single command bus");
  last_cmd_cycle_ = now;

  switch (cmd.cmd) {
    case DramCmd::kActivate: {
      LATDIV_ASSERT(cmd.row != kNoRow, "ACT needs a row");
      bank_row_[cmd.bank] = cmd.row;
      ++open_banks_;
      bank_earliest_cas_[cmd.bank] = now + timing_.trcd;
      bank_earliest_pre_[cmd.bank] = now + timing_.tras;
      bank_earliest_act_[cmd.bank] = now + timing_.trc;
      last_act_ = now;
      act_window_[act_window_pos_] = now;
      act_window_pos_ = (act_window_pos_ + 1) % act_window_.size();
      ++stats_.activates;
      ++stats_.per_bank_activates[cmd.bank];
      return kNoCycle;
    }
    case DramCmd::kPrecharge: {
      bank_row_[cmd.bank] = kNoRow;
      --open_banks_;
      bank_earliest_act_[cmd.bank] =
          std::max(bank_earliest_act_[cmd.bank], now + timing_.trp);
      ++stats_.precharges;
      ++stats_.per_bank_precharges[cmd.bank];
      return kNoCycle;
    }
    case DramCmd::kRead: {
      bank_earliest_pre_[cmd.bank] =
          std::max(bank_earliest_pre_[cmd.bank], now + timing_.trtp);
      last_rd_cmd_ = now;
      last_rd_group_ =
          static_cast<BankGroupId>(cmd.bank / timing_.banks_per_group);
      const Cycle data_start = now + timing_.tcas;
      LATDIV_ASSERT(data_start >= data_bus_free_at_,
                    "read data bus collision (CCD/turnaround bug)");
      data_bus_free_at_ = data_start + timing_.tburst;
      stats_.data_bus_busy_cycles += timing_.tburst;
      ++stats_.reads;
      return data_start + timing_.tburst;
    }
    case DramCmd::kWrite: {
      const Cycle data_start = now + timing_.twl;
      const Cycle data_end = data_start + timing_.tburst;
      bank_earliest_pre_[cmd.bank] =
          std::max(bank_earliest_pre_[cmd.bank], data_end + timing_.twr);
      last_wr_cmd_ = now;
      last_wr_group_ =
          static_cast<BankGroupId>(cmd.bank / timing_.banks_per_group);
      LATDIV_ASSERT(data_start >= data_bus_free_at_,
                    "write data bus collision (CCD/turnaround bug)");
      data_bus_free_at_ = data_end;
      stats_.data_bus_busy_cycles += timing_.tburst;
      ++stats_.writes;
      return data_end;
    }
    case DramCmd::kRefresh: {
      for (Cycle& at : bank_earliest_act_) {
        at = std::max(at, now + timing_.trfc);
      }
      next_refresh_at_ += timing_.trefi;
      ++stats_.refreshes;
      return kNoCycle;
    }
  }
  LATDIV_UNREACHABLE("bad DramCmd");
}

void Channel::on_cycle_end(Cycle) {
  if (all_banks_closed()) ++stats_.all_banks_idle_cycles;
}

}  // namespace latdiv
