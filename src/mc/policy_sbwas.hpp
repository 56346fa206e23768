// Single-Bank Warp-Aware Scheduling (Lakshminarayana et al., CAL 2011) —
// the paper's closest prior work, compared in §VI-C1.
//
// Per bank, SBWAS chooses between (a) the oldest row-hit request and
// (b) the request from the warp with the fewest requests remaining, using
// a potential function biased by a profiled parameter alpha:
//
//     potential(hit)   = (1 - alpha)
//     potential(short) = alpha / remaining_requests(warp)
//
// alpha is profiled offline per workload over {0.25, 0.5, 0.75} exactly as
// the paper describes.  Unlike WG, SBWAS has no notion of bank occupancy
// or cross-bank/cross-channel warp state, and it interleaves writes with
// reads instead of using drain bursts — both differences the paper calls
// out when explaining why SBWAS trails WG-W.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "mc/controller.hpp"
#include "mc/idle_scan_memo.hpp"
#include "mc/policy.hpp"

namespace latdiv {

struct SbwasConfig {
  double alpha = 0.5;  ///< profiled per workload over {0.25, 0.5, 0.75}
  /// Write pressure point at which a write is scheduled unconditionally
  /// (interleaved-write model: no drain hysteresis, so the policy itself
  /// must keep the write queue from overflowing).
  std::size_t write_pressure = 48;
};

class SbwasPolicy final : public TransactionScheduler {
 public:
  explicit SbwasPolicy(const SbwasConfig& cfg = {}) : cfg_(cfg) {}

  [[nodiscard]] const char* name() const override { return "SBWAS"; }
  [[nodiscard]] bool wants_interleaved_writes() const override { return true; }

  void schedule_reads(MemoryController& mc, Cycle now) override;
  void on_push(MemoryController& mc, const MemRequest& req,
               Cycle now) override;
  void on_load(MemoryController& mc) override;

  /// (warp instruction, queued reads) for every warp instruction with a
  /// read in the read queue, sorted by warp instruction.
  using Counts = std::vector<std::pair<WarpInstrUid, std::uint32_t>>;
  [[nodiscard]] const Counts& remaining() const { return remaining_; }
  [[nodiscard]] const IdleScanMemo& idle_memo() const { return idle_; }

 private:
  [[nodiscard]] Counts::iterator find_count(WarpInstrUid instr);
  bool try_schedule_write(MemoryController& mc, Cycle now, bool force);

  SbwasConfig cfg_;
  // Read-queue requests per dynamic warp instruction, kept up to date at
  // push and at SBWAS's own erase (the queue holds at most 64 entries,
  // so a flat sorted vector; only point lookups).  Derived state, never
  // saved: on_load recounts the loaded read queue.
  Counts remaining_;
  // Armed by a call that moved neither a read nor a write.
  IdleScanMemo idle_;
};

}  // namespace latdiv
