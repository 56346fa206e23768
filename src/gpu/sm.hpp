// Streaming multiprocessor (SIMT core) timing model.
//
// Captures exactly the behaviours the paper's memory study depends on:
//   * 32-lane warps execute in lockstep; a warp that issues a load BLOCKS
//     until every coalesced request returns (the latency-divergence
//     mechanism under study);
//   * greedy-then-oldest warp scheduling hides latency with TLP until all
//     warps are blocked (§III-A "Multithreading");
//   * the coalescer merges lanes into 128B line requests (§III-A);
//   * an L1 with MSHRs filters and merges traffic; loads allocate, stores
//     write through without allocating (write-evict);
//   * a load/store unit dispatches a divergent access's requests over
//     multiple cycles, in order, so the interconnect sees each warp's
//     requests as an ordered train and the *last* request per memory
//     partition can carry the warp-group completion tag (§IV-B2).
//
// Functional execution (register values, control flow) is delegated to
// the workload generator; the SM is purely a timing model, which is all
// the paper's evaluation requires (see DESIGN.md substitutions).
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cache.hpp"
#include "cache/mshr.hpp"
#include "common/types.hpp"
#include "gpu/coalescer.hpp"
#include "gpu/tracker.hpp"
#include "icnt/crossbar.hpp"
#include "mem/address_map.hpp"
#include "workload/instr_source.hpp"

namespace latdiv {

enum class WarpSchedPolicy : std::uint8_t {
  kGto,  ///< greedy-then-oldest (default; GPGPU-Sim's strongest baseline)
  kLrr,  ///< loose round-robin: rotate the start point every issue
};

struct SmConfig {
  std::uint32_t warps = 32;  ///< 1024 threads / 32 lanes (paper Table II)
  WarpSchedPolicy warp_sched = WarpSchedPolicy::kGto;
  CacheConfig l1{32 * 1024, 128, 8};
  MshrConfig l1_mshr{32, 8};
  /// All latencies in global (DRAM command-clock) cycles.
  Cycle l1_hit_latency = 8;
  Cycle fill_ready_delay = 2;
  std::uint32_t lsu_width = 2;  ///< line dispatches per core cycle
  std::uint32_t core_clock_ratio = 2;  ///< DRAM cycles per core cycle
  bool perfect_coalescing = false;     ///< Fig. 4 ideal
};

struct SmStats {
  std::uint64_t instructions = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t issue_stall_mshr = 0;  ///< load couldn't reserve MSHRs
  std::uint64_t no_ready_warp_cycles = 0;
};

class Sm {
 public:
  Sm(SmId id, const SmConfig& cfg, InstrSource& gen,
     const AddressMap& amap, Crossbar& xbar, InstrTracker& tracker,
     WarpInstrUid uid_base, WarpInstrUid uid_stride);

  /// Core-domain tick.
  void tick(Cycle now);

  /// Earliest core-domain cycle >= now at which a tick can change this
  /// SM's own state (it sets the idle_until_ memo): `now` while the LSU
  /// is busy, a warp lacks a pre-generated instruction (the next draw
  /// from the shared instruction stream is globally ordered and must not
  /// move), or any unblocked warp is ready; otherwise the earliest
  /// ready_at of the unblocked warps.  Warps blocked on loads are woken
  /// externally (the crossbar's response queues carry that event), so
  /// they contribute nothing; kNoCycle when every warp is blocked.
  [[nodiscard]] Cycle next_event(Cycle now) const;

  [[nodiscard]] const SmStats& stats() const { return stats_; }
  [[nodiscard]] const Coalescer& coalescer() const { return coalescer_; }
  [[nodiscard]] const Cache& l1() const { return l1_; }
  [[nodiscard]] const MshrFile& mshr() const { return mshr_; }

  /// Warps blocked on an in-flight divergent load.  Each such warp owns
  /// exactly one live InstrTracker record, so the sum over all SMs must
  /// equal InstrTracker::inflight() (checked by the invariant auditor).
  [[nodiscard]] std::size_t warps_blocked_on_loads() const {
    std::size_t n = 0;
    for (const Warp& w : warps_) {
      if (w.pending_lines > 0) ++n;
    }
    return n;
  }

  /// Functional L1 warming during a sampled-mode skip interval
  /// (ckpt::SampledRunner): install recency/presence for `line` without
  /// issuing any request.  Counts in cache stats like a normal access —
  /// sampled-mode estimates never read hit rates across a skip.
  void warm_line(Addr line) {
    if (!l1_.touch(line)) l1_.fill(line);
  }

  /// Snapshot serialization of the full core state (src/ckpt).
  template <class Ar>
  void ckpt_io(Ar& ar);

 private:
  struct Warp {
    Cycle ready_at = 0;
    std::uint32_t pending_lines = 0;  ///< outstanding loads block the warp
    bool waiting_lsu = false;         ///< store dispatch in progress
    bool has_next = false;
    WarpInstr next;
    /// mem_epoch_+1 when issue_memory last failed for `next` (0 = never):
    /// until the L1/MSHR state changes, re-running the classify loop
    /// would fail identically, so the retry short-circuits (it still
    /// counts its issue_stall_mshr tick).
    std::uint64_t issue_fail_epoch = 0;
    /// Coalesced line set of `next`, computed once at generation time
    /// (issue retries must not re-run the coalescer: it is pure, and
    /// re-running it would double-count statistics and burn host time).
    std::vector<Addr> lines;
  };

  struct Lsu {
    bool active = false;
    bool is_store = false;
    WarpId warp = 0;
    std::vector<MemRequest> queue;
    std::size_t next = 0;
  };

  void accept_response(Cycle now);
  void dispatch_lsu(Cycle now);
  void try_issue(Cycle now);
  [[nodiscard]] bool issuable(const Warp& w, Cycle now) const;
  bool issue_memory(WarpId wid, Cycle now);
  void generate_next(WarpId wid);

  SmId id_;
  SmConfig cfg_;
  InstrSource& gen_;
  const AddressMap& amap_;
  Crossbar& xbar_;
  InstrTracker& tracker_;

  Cache l1_;
  MshrFile mshr_;
  Coalescer coalescer_;
  std::vector<Warp> warps_;
  Lsu lsu_;
  /// Bumped whenever L1 or MSHR contents change (fills, releases,
  /// invalidates, reservations) — the entire state the issue_memory
  /// classify loop reads.  Keys the per-warp issue_fail_epoch memo.
  std::uint64_t mem_epoch_ = 0;
  /// Until this cycle no warp can issue (set by a fully-failed scheduler
  /// scan via next_event(); reset whenever a response wakes a warp).  A
  /// tick before it skips the warp scan and just counts the idle cycle.
  Cycle idle_until_ = 0;
  WarpId last_issued_ = 0;
  WarpInstrUid next_uid_;
  WarpInstrUid uid_stride_;
  SmStats stats_;
};

}  // namespace latdiv
