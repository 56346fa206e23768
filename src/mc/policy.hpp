// Transaction-scheduler policy interface (paper Fig. 1, block 4).
//
// A MemoryController owns the fixed microarchitecture — read/write queues,
// per-bank command queues, the command scheduler, the write-drain state
// machine — and delegates exactly one decision to a TransactionScheduler:
// *which request(s) move from the request queues into the per-bank command
// queues this cycle*.  Every scheduler in the paper (GMC, FCFS, FR-FCFS,
// WAFCFS, SBWAS, WG and its variants) is one implementation of this
// interface, so all of them share identical DRAM timing and queue plumbing
// and differ only in the policy under test.
#pragma once

#include "common/types.hpp"
#include "mem/request.hpp"

namespace latdiv {

namespace ckpt {
class CkptWriter;
class CkptReader;
}  // namespace ckpt

class MemoryController;
struct WgStats;

/// Coordination message exchanged between controllers (WG-M, §IV-C):
/// 32 bits on the wire — SM id, warp id, and the local completion-time
/// score of the warp-group the sender just selected.
struct CoordMsg {
  ChannelId source = 0;
  WarpTag tag;
  std::uint32_t score = 0;  ///< sender's local completion-time estimate
};

class TransactionScheduler {
 public:
  virtual ~TransactionScheduler() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Move zero or more read requests from mc.read_queue() into bank
  /// command queues via mc.send_to_bank().  Called once per controller
  /// cycle while the controller is in read mode.
  virtual void schedule_reads(MemoryController& mc, Cycle now) = 0;

  /// Write-drain scheduling.  The default implementation drains the write
  /// queue oldest-first with a row-hit preference (FR-FCFS over writes),
  /// which is the paper's baseline behaviour for every policy except WG-W
  /// (which alters the *read* priorities leading up to a drain, not the
  /// drain order itself).
  virtual void schedule_writes(MemoryController& mc, Cycle now);

  /// Notification: a request was accepted into the read or write queue.
  virtual void on_push(MemoryController& mc, const MemRequest& req,
                       Cycle now);

  /// Notification: the partition has seen the last request of warp-group
  /// `tag` for this controller (the request itself may have hit in L2 and
  /// never arrived here).
  virtual void on_group_complete(MemoryController& mc, const WarpTag& tag,
                                 Cycle now);

  /// Notification: another controller selected a warp-group (WG-M).
  virtual void on_remote_selection(MemoryController& mc, const CoordMsg& msg,
                                   Cycle now);

  /// Notification: a high-watermark write drain is about to begin.  WG-W
  /// uses the *approach* to the watermark (see WgPolicy); this hook exists
  /// so warp-aware policies can record Fig. 12's stalled-group statistics.
  virtual void on_drain_start(MemoryController& mc, Cycle now);

  /// SBWAS interleaves writes with reads instead of using drain bursts.
  [[nodiscard]] virtual bool wants_interleaved_writes() const { return false; }

  /// Warp-group statistics view, for policies that keep warp-group
  /// bookkeeping (the WG family).  Wrapper policies should forward to the
  /// wrapped scheduler so Simulator::collect() can aggregate WG counters
  /// without downcasting concrete types.  Null when the policy has none.
  [[nodiscard]] virtual const WgStats* wg_stats() const { return nullptr; }

  /// True when the policy is a pure function of the controller's queue
  /// and bank state: with no queued work it does nothing until new work
  /// arrives.  The simulator steps every cycle and never reads this; it
  /// stays part of the interface because forwarding wrappers outside
  /// src/ (latbench's traced policy) override it.
  [[nodiscard]] virtual bool quiescent() const { return true; }

  /// Snapshot hooks (src/ckpt).  A snapshot holds only primary state:
  /// what no other saved field determines.  Policies with such private
  /// state override both sides (WgPolicy's warp-group table); stateless
  /// schedulers — everything that decides purely from the controller's
  /// queues and bank state — inherit the no-ops and round-trip through a
  /// snapshot for free.
  virtual void ckpt_save(ckpt::CkptWriter&) const {}
  virtual void ckpt_load(ckpt::CkptReader&) {}
  /// Called by the controller right after ckpt_load, once its own queues
  /// are loaded: rebuild any index derived from them (SBWAS's per-warp
  /// counts, GMC's per-bank lists, the WG read-queue index and bank
  /// footprints — derived state is never saved), and throw
  /// ckpt::CkptError if the loaded private state contradicts them.
  virtual void on_load(MemoryController&) {}
};

}  // namespace latdiv
