// AttributionProfiler — per-warp-load latency decomposition.
//
// The paper's argument is causal: warp-aware scheduling wins because it
// removes *queueing-induced* divergence, not row-conflict or bus
// divergence.  This profiler turns that claim into a measured quantity.
// It timestamps every read request through its lifecycle phases
// (coalescer serialization, crossbar transit, controller queue wait with
// the write-drain overlap split out, bank ACT/PRE service classified by
// row outcome, data-bus transfer, and return/coordination delay) and
// decomposes each warp-load's observed latency into those causes.
//
// Contract: the per-cause components of every attributed load sum
// *exactly* to its end-to-end latency (woke − issued).  The decomposition
// telescopes over the slowest lane's timestamps
//
//   issued ≤ t0 (left coalescer) ≤ t1 (entered MC queue)
//          ≤ t2 (entered bank queue) ≤ t3 (CAS) ≤ t4 (data) ≤ woke
//
// so the invariant holds by construction in integer arithmetic; loads
// whose timestamps are ever non-monotonic (there are none in practice)
// are counted in `attrib.mismatches` and excluded wholesale, which keeps
// the aggregate conservation law
//
//   Σ_cause hist(cause).sum() == hist(total).sum()
//
// exact as well.  Both are enforced by InvariantChecker::audit_attribution
// during every audited run and property-tested across policies.
//
// Divergence blame: for each load with ≥ 2 requests, the cause whose
// slowest-lane component exceeds the per-lane mean component by the
// largest margin — evaluated division-free as
//   score(c) = n · comp_c(slowest) − Σ_lanes comp_c(lane)
// (the sign of score/n is the slowest-vs-mean excess) — is charged one
// blame count.  Ties break toward the earlier pipeline stage; loads with
// no positive score (perfectly uniform lanes) count as `blame.none`.
//
// Strictly an observer: every entry point takes const refs, folds into
// private maps and MetricRegistry instruments, and feeds nothing back.
// Integer arithmetic only; std::map only — exports are byte-stable.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "mem/request.hpp"
#include "obs/metrics.hpp"

namespace latdiv::obs {

/// Latency causes, in pipeline order (blame ties break toward the lower
/// index, i.e. the earlier stage).
enum class AttribCause : std::uint8_t {
  kCoalescer = 0,  ///< SM coalescer serialization (warp issue → left SM)
  kXbar,           ///< crossbar + L2 transit (left SM → MC request queue)
  kQueue,          ///< MC request-queue wait, minus the drain overlap
  kDrain,          ///< write-drain episodes overlapping the queue wait
  kBankHit,        ///< bank service, row already open (CAS only)
  kBankMiss,       ///< bank service, ACT required
  kBankConflict,   ///< bank service, PRE + ACT required
  kBus,            ///< CAS → last data beat
  kReturn,         ///< slowest data → warp wake (fill + response transit)
};

inline constexpr std::size_t kAttribCauseCount = 9;
/// Causes eligible for blame (kReturn is load-level, not per-lane).
inline constexpr std::size_t kAttribBlameCauses = 8;

[[nodiscard]] const char* attrib_cause_name(AttribCause c);

/// Plain-value roll-up mirrored onto RunResult and the exp executor.
struct AttribSummary {
  bool enabled = false;
  std::uint64_t loads = 0;           ///< warp loads fully attributed
  std::uint64_t mismatches = 0;      ///< loads excluded: broken telescope
  std::uint64_t unmatched = 0;       ///< loads with no/incomplete lane data
  std::uint64_t dropped = 0;         ///< requests declined at ingest
  std::uint64_t drain_clamps = 0;    ///< drain overlap clamped to queue wait
  std::uint64_t inflight_at_end = 0; ///< requests/loads still open at finalize
  std::uint64_t total_cycles = 0;    ///< Σ end-to-end latency over loads
  std::uint64_t cause_cycles[kAttribCauseCount] = {};
  std::uint64_t cause_p99[kAttribCauseCount] = {};
  std::uint64_t blame[kAttribBlameCauses] = {};
  std::uint64_t blame_none = 0;
};

class AttributionProfiler {
 public:
  /// Registers the attrib.* instruments (stable creation order — part of
  /// the metrics-export byte format).
  explicit AttributionProfiler(MetricRegistry& registry);
  AttributionProfiler(const AttributionProfiler&) = delete;
  AttributionProfiler& operator=(const AttributionProfiler&) = delete;

  // --- request lifecycle (forwarded by ObsHub; const — observer purity) ---
  void req_enqueued(const MemRequest& req, Cycle now);
  void req_to_bank(const MemRequest& req, Cycle now);
  void req_cas(const MemRequest& req, Cycle now);
  void req_data(const MemRequest& req, Cycle done);
  void drain_begin(ChannelId ch, Cycle now);
  void drain_end(ChannelId ch, Cycle now);

  // --- warp lifecycle (forwarded by ObsHub from the InstrTracker) ---
  void warp_load(WarpInstrUid uid, Cycle issued, Cycle woke,
                 std::uint32_t reqs);

  /// Count still-open requests/loads (truncated runs) into
  /// attrib.inflight_at_end.  Idempotent per run end.
  void finalize(Cycle end);

  [[nodiscard]] AttribSummary summary() const;

  /// Deterministic attribution artifact: integer-only JSON with the
  /// per-cause distribution table, blame counts and the audit fields
  /// (mismatches / unmatched / residual) CI greps for.
  [[nodiscard]] std::string to_json() const;

  /// Snapshot serialization (src/ckpt): drain windows and open request /
  /// load state round-trip so a resume attributes byte-identically; the
  /// registry instruments ride in the hub's MetricRegistry section.
  template <class Ar>
  void ckpt_io(Ar& ar);

 private:
  /// Per-read lifecycle timestamps (t0/t1 from the request's own stamps,
  /// t2/t3 observed, drain counter sampled at t1/t2).
  struct ReqState {
    Cycle t0 = kNoCycle;  ///< left coalescer (issued_by_sm)
    Cycle t1 = kNoCycle;  ///< entered MC request queue (arrived_at_mc)
    Cycle t2 = kNoCycle;  ///< entered bank command queue
    Cycle t3 = kNoCycle;  ///< CAS issued
    std::uint64_t drain_at_t1 = 0;
    std::uint64_t drain_at_t2 = 0;
    RowOutcome outcome = RowOutcome::kNone;
  };

  /// Per-load accumulator, folded lane by lane as reads complete.
  struct Acc {
    std::uint32_t n = 0;
    bool poisoned = false;  ///< a lane broke monotonicity; exclude the load
    std::uint64_t sum_t0 = 0;
    std::uint64_t sum_xbar = 0;
    std::uint64_t sum_queue = 0;
    std::uint64_t sum_drain = 0;
    std::uint64_t sum_bus = 0;
    std::uint64_t sum_bank[3] = {};  ///< by outcome: hit, miss, conflict
    // Slowest lane (max completion; first-seen wins ties — event delivery
    // follows the simulator's fixed per-cycle order).
    Cycle sl_completed = kNoCycle;
    Cycle sl_t0 = 0;
    std::uint64_t sl_xbar = 0;
    std::uint64_t sl_queue = 0;
    std::uint64_t sl_drain = 0;
    std::uint64_t sl_bank = 0;
    std::uint64_t sl_bus = 0;
    RowOutcome sl_outcome = RowOutcome::kNone;
  };

  /// Per-channel cumulative write-drain cycles: closed episodes plus the
  /// open one up to `now`.  1-Lipschitz in now, so an interval's overlap
  /// D(t2) − D(t1) never exceeds t2 − t1.
  struct DrainWin {
    std::uint64_t cum = 0;
    Cycle open = kNoCycle;  ///< episode start, kNoCycle = closed
  };

  [[nodiscard]] std::uint64_t drain_cycles(ChannelId ch, Cycle now) const;
  void ensure_channel(ChannelId ch);

  MetricRegistry& registry_;
  // Hot-path handles (stable registry pointers).
  Log2Histogram* h_total_ = nullptr;
  Log2Histogram* h_cause_[kAttribCauseCount] = {};
  Counter* c_loads_ = nullptr;
  Counter* c_mismatch_ = nullptr;
  Counter* c_unmatched_ = nullptr;
  Counter* c_dropped_ = nullptr;
  Counter* c_clamps_ = nullptr;
  Counter* c_inflight_end_ = nullptr;
  Counter* c_blame_[kAttribBlameCauses] = {};
  Counter* c_blame_none_ = nullptr;

  std::vector<DrainWin> drains_;
  // std::map (ordered) so snapshot serialization iterates deterministically.
  std::map<std::pair<WarpInstrUid, Addr>, ReqState> inflight_;
  std::map<WarpInstrUid, Acc> accs_;
};

}  // namespace latdiv::obs
