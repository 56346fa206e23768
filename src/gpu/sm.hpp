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
#include "common/bit_rows.hpp"
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

// The SM's fixed organisation (paper Table II).  Latencies are in global
// (DRAM command-clock) cycles.
inline constexpr CacheConfig kL1{32 * 1024, 8};  ///< 32KB, 8-way
inline constexpr MshrConfig kL1Mshr{32, 8};
inline constexpr Cycle kL1HitLatency = 8;
inline constexpr Cycle kFillReadyDelay = 2;  ///< fill to warp wake-up
/// Line requests the load/store unit dispatches per core cycle.
inline constexpr std::uint32_t kLsuWidth = 2;

struct SmConfig {
  std::uint32_t warps = 32;  ///< 1024 threads / 32 lanes (paper Table II)
  WarpSchedPolicy warp_sched = WarpSchedPolicy::kGto;
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

  /// The issue masks match the warp table (invariant audit: they are
  /// maintained incrementally and rebuilt after a snapshot load).
  [[nodiscard]] bool issue_masks_consistent() const;

  /// Functional L1 warming during a sampled-mode skip interval
  /// (ckpt::SampledRunner): `lanes` adjacent lanes of one load access
  /// `line` (a coalesced run), installing its recency/presence without
  /// issuing any request.  Exactly equivalent to `lanes` single-lane
  /// calls: counts in cache stats like a normal access — sampled-mode
  /// estimates never read hit rates across a skip.
  ///
  /// Known defect, kept for result compatibility: warming does not move
  /// mem_epoch_, so a warp whose load failed before the skip keeps
  /// short-circuiting on issue_fail_epoch after it, even if its lines are
  /// now L1 hits, until some other L1/MSHR change moves the epoch.
  void warm_line(Addr line, std::uint32_t lanes) { l1_.warm(line, lanes); }

  /// The clock jumped past unsimulated cycles (Simulator::teleport), the
  /// end of every warming skip: drop the MSHR-deficit wakes, since warmed
  /// hits shrink a deficit without a release.
  void on_teleport() {
    for (Warp& w : warps_) w.deficit_releases = 0;
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
    /// MSHR-deficit wake (derived, never saved; 0 = none): after `next`
    /// failed with more new fetches than free MSHR entries, the MSHR
    /// release count at which it could first fit.  Until releases reach
    /// it, a retry fails exactly like the classify loop would.  Dropped
    /// at a snapshot load and a teleport.
    std::uint64_t deficit_releases = 0;
    /// Coalesced line set of `next`, computed once at generation time
    /// (issue retries must not re-run the coalescer: it is pure, and
    /// re-running it would double-count statistics and burn host time).
    std::vector<Addr> lines;

    /// No outstanding load and no store in dispatch.
    [[nodiscard]] bool is_free() const;
    /// The next instruction is generated and is a load or store.
    [[nodiscard]] bool memory_next() const;
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

  /// First warp in [from, end) whose visit by try_issue can have an
  /// effect, or `end`; `mem_open` says whether a memory instruction may
  /// still be attempted this cycle.
  [[nodiscard]] std::size_t next_candidate(std::size_t from, std::size_t end,
                                           bool mem_open) const;
  /// Recompute the issue masks from the warp table and drop every
  /// deficit wake (after a snapshot load).
  void rebuild_issue_masks();

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
  // Issue masks, one row of one bit per warp: derived from warps_, kept
  // current at every state change and rebuilt after a snapshot load
  // (never saved).  try_issue visits only kNeedsGen | (kFree & ~kMemNext),
  // plus kFree & kMemNext while a memory instruction may still issue.
  enum IssueMask : std::size_t {
    kNeedsGen,  ///< !has_next: the visit generates the next instr
    kFree,      ///< no outstanding load and no store in dispatch
    kMemNext,   ///< has_next and the next instr is a load/store
    kIssueMasks
  };
  BitRows masks_;

  Lsu lsu_;
  /// Bumped whenever L1 or MSHR contents change (fills, releases,
  /// invalidates, reservations) — the entire state the issue_memory
  /// classify loop reads.  Keys the per-warp issue_fail_epoch memo.
  std::uint64_t mem_epoch_ = 0;
  WarpId last_issued_ = 0;
  WarpInstrUid next_uid_;
  WarpInstrUid uid_stride_;
  SmStats stats_;
};

}  // namespace latdiv
