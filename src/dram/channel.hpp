// One GDDR5 channel: 16 banks in 4 bank groups behind a shared 64-bit
// command/data interface (two x32 chips operated in tandem as one rank).
//
// The channel is a pure timing legality-checker and state machine: the
// memory controller decides *what* to issue; the channel answers *whether*
// a command is legal this cycle and applies its effects.  Every constraint
// from the paper's Table II is enforced:
//
//   per-bank:   tRC, tRCD, tRP, tRAS, tRTP, tWR
//   inter-bank: tRRD, tFAW (sliding 4-activate window)
//   CAS-to-CAS: tCCDL (same bank group), tCCDS (different bank group)
//   turnaround: tWTR (write->read), tCAS+tBURST+tRTRS-tWL (read->write)
//   refresh:    tREFI cadence, tRFC occupancy, all banks precharged
//
// At most one command may issue per cycle (single command bus).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "dram/command.hpp"
#include "dram/params.hpp"

namespace latdiv {

/// Counters consumed by the power model and the bench reports.
struct ChannelStats {
  std::uint64_t activates = 0;
  std::uint64_t precharges = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t data_bus_busy_cycles = 0;  ///< cycles a burst occupied the bus
  std::uint64_t all_banks_idle_cycles = 0; ///< sampled by on_cycle_end()
  // Per-bank breakdowns (sum over banks == the aggregate above).  Sized by
  // the channel to timing.banks; ground truth for the tracing layer's
  // per-bank ACT/PRE event counts.
  std::vector<std::uint64_t> per_bank_activates;
  std::vector<std::uint64_t> per_bank_precharges;
};

class Channel {
 public:
  explicit Channel(const DramTiming& timing);

  /// First cycle at or after `now` at which `cmd` is legal if no other
  /// command issues in between, or kNoCycle if the bank's row state must
  /// change first (ACT to an open bank, PRE to a closed one, CAS to a row
  /// that is not open, REF with a bank open).  Every timing constraint is
  /// a lower bound on the issue cycle, so legality is monotone in time and
  /// this is the single definition of it.  Never mutates state.
  [[nodiscard]] Cycle earliest(const DramCommand& cmd, Cycle now) const;

  /// Is `cmd` legal at cycle `now`?  Never mutates state.
  [[nodiscard]] bool can_issue(const DramCommand& cmd, Cycle now) const {
    return earliest(cmd, now) == now;
  }

  /// Apply `cmd` at cycle `now` (caller must have checked can_issue).
  /// Returns the cycle the command's data transfer completes: for RD the
  /// cycle read data is fully at the controller, for WR the cycle write
  /// data has been accepted; kNoCycle for non-data commands.
  Cycle issue(const DramCommand& cmd, Cycle now);

  /// Observers invoked at the top of issue() for every command, before any
  /// state change, in attachment order.  Used by the protocol-conformance
  /// checker (src/check) to shadow-validate the command stream
  /// independently of can_issue(), and by the introspection layer
  /// (src/obs) to narrate ACT/PRE/REF onto the trace timeline.
  using CommandObserver = std::function<void(const DramCommand&, Cycle)>;
  void add_command_observer(CommandObserver obs) {
    observers_.push_back(std::move(obs));
  }

  /// Row currently open in `bank` (kNoRow if precharged).
  [[nodiscard]] RowId open_row(BankId bank) const;

  /// True once the refresh interval has elapsed; the command scheduler
  /// must drain/precharge and issue kRefresh.
  [[nodiscard]] bool refresh_due(Cycle now) const;

  /// True if every bank is precharged (prerequisite for kRefresh).
  [[nodiscard]] bool all_banks_closed() const { return open_banks_ == 0; }
  /// The open-bank count matches the row table (invariant audit).
  [[nodiscard]] bool open_banks_consistent() const;

  /// Bookkeeping sampled once per cycle by the owning controller (idle
  /// accounting only; no timing effects).
  void on_cycle_end(Cycle now);

  [[nodiscard]] const ChannelStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const DramTiming& timing() const noexcept { return timing_; }

  /// Functional row warming during a sampled-mode skip interval
  /// (ckpt::SampledRunner): open `row` in `bank` without issuing commands
  /// or consuming bus time.  Sampled mode runs with the protocol checker
  /// off; this is never called on a detailed-timing path.
  void warm_row(BankId bank, RowId row) {
    open_banks_ += static_cast<std::uint32_t>(row != kNoRow) -
                   static_cast<std::uint32_t>(bank_row_[bank] != kNoRow);
    bank_row_[bank] = row;
  }

  /// Re-anchor the refresh cadence after a sampled-mode jump to `now`:
  /// keeps tREFI-multiple spacing while skipping the due times inside the
  /// interval (whose bank time the skip did not model anyway).
  void rebase_refresh(Cycle now) {
    if (!timing_.refresh_enabled || next_refresh_at_ >= now) return;
    const Cycle behind = now - next_refresh_at_;
    next_refresh_at_ += (behind / timing_.trefi + 1) * timing_.trefi;
  }

  /// Snapshot serialization of bank/bus/refresh timing state (src/ckpt);
  /// observers are re-attached at construction.
  template <class Ar>
  void ckpt_io(Ar& ar);

 private:
  [[nodiscard]] Cycle act_earliest(BankId bank, Cycle now) const;
  [[nodiscard]] Cycle cas_earliest(const DramCommand& cmd, Cycle now) const;

  DramTiming timing_;
  // Per-bank row-buffer state, SoA: the hottest probes scan exactly one
  // attribute across all banks (all_banks_closed over rows, refresh
  // legality over earliest-ACT), so parallel arrays keep each scan dense
  // instead of striding over 32-byte bank structs.
  std::vector<RowId> bank_row_;           ///< open row (kNoRow = precharged)
  /// Banks whose bank_row_ is not kNoRow.  Derived: kept at ACT, PRE and
  /// warm_row, recounted on snapshot load, never saved.
  std::uint32_t open_banks_ = 0;
  std::vector<Cycle> bank_earliest_act_;  ///< tRP after PRE, tRC after ACT, tRFC after REF
  std::vector<Cycle> bank_earliest_cas_;  ///< tRCD after ACT
  std::vector<Cycle> bank_earliest_pre_;  ///< tRAS after ACT, tRTP after RD, tWR after WR

  // Inter-bank activate tracking: last activate (tRRD) and the last four
  // activates (tFAW sliding window); kNoCycle = "no such activate yet".
  Cycle last_act_ = kNoCycle;
  std::array<Cycle, 4> act_window_ = {kNoCycle, kNoCycle, kNoCycle, kNoCycle};
  std::size_t act_window_pos_ = 0;

  // CAS-to-CAS and bus-turnaround tracking.
  Cycle last_rd_cmd_ = kNoCycle;
  Cycle last_wr_cmd_ = kNoCycle;
  BankGroupId last_rd_group_ = 0;
  BankGroupId last_wr_group_ = 0;

  Cycle last_cmd_cycle_ = kNoCycle;  // single-command-bus assertion
  Cycle data_bus_free_at_ = 0;
  Cycle next_refresh_at_ = 0;

  // Observers are registered at construction and invoked synchronously
  // on this channel's tick.
  std::vector<CommandObserver> observers_;
  ChannelStats stats_;
};

}  // namespace latdiv
