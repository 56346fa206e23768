// Top-level simulator: wires SMs, crossbar, partitions (L2 + memory
// controller), the coordination network and the instruction source, then
// advances the two clock domains to completion.
//
// One global tick = one GDDR5 command-clock cycle (1.5 GHz).  The core
// domain (SMs, crossbar, L2 pipelines) ticks every
// SmConfig::core_clock_ratio-th global cycle.
#pragma once

#include <memory>
#include <vector>

#include "check/invariant_checker.hpp"
#include "check/protocol_checker.hpp"
#include "core/coordination.hpp"
#include "core/ideal.hpp"
#include "gpu/partition.hpp"
#include "gpu/sm.hpp"
#include "gpu/tracker.hpp"
#include "icnt/crossbar.hpp"
#include "sim/config.hpp"
#include "sim/metrics.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace latdiv {

class Simulator {
 public:
  /// Throws std::invalid_argument, before building anything, when
  /// cfg.num_sms or cfg.sm.warps is 0 or exceeds the 65536 ids SmId /
  /// WarpId can address.
  explicit Simulator(const SimConfig& cfg);

  /// Run to cfg.max_cycles and aggregate results.  Equivalent to
  /// run_to(cfg.max_cycles) followed by finish() — pausing at any
  /// intermediate cycle and continuing is byte-identical to running
  /// straight through (tests/test_ckpt.cpp enforces this).
  RunResult run();

  /// Step until now() == min(stop, cfg.max_cycles).  May be called
  /// repeatedly with increasing stops; does not finalize anything.
  void run_to(Cycle stop);

  /// End-of-run finalization (checker sweeps, obs artifact writes) and
  /// result aggregation.  Call once, after the last run_to().
  RunResult finish();

  /// Jump the clock to `target` without simulating the span (sampled-mode
  /// functional warming, src/ckpt/sampler.cpp).  The skipped interval's
  /// timing is deliberately not modelled: per-channel refresh cadences
  /// are re-anchored past `target`.  Only legal with checkers and the
  /// obs hub disabled — those observe per-cycle state the jump skips.
  void teleport(Cycle target);

  /// The instruction stream the SMs consume (sampled-mode warming draws
  /// from it; snapshot save/load serializes its cursors).
  [[nodiscard]] InstrSource& instr_source() {
    return recorder_ ? *recorder_ : *source_;
  }

  // Component access for tests and custom drivers.
  [[nodiscard]] Partition& partition(std::size_t i) { return *partitions_[i]; }
  [[nodiscard]] Sm& sm(std::size_t i) { return *sms_[i]; }
  [[nodiscard]] InstrTracker& tracker() { return tracker_; }
  [[nodiscard]] const SimConfig& config() const { return cfg_; }
  /// The one address map of this simulation: cfg.icnt.partitions
  /// channels of cfg.dram's banks and bank groups, XOR hashes on.
  [[nodiscard]] const AddressMap& address_map() const { return amap_; }
  /// The crossbar: cfg.num_sms SMs, sticky under WAFCFS.
  [[nodiscard]] const Crossbar& crossbar() const { return xbar_; }

  /// Advance exactly one global cycle (exposed for incremental tests).
  void step();
  [[nodiscard]] Cycle now() const { return now_; }

  // Checker access (null / empty unless enabled via cfg.check).
  [[nodiscard]] const ProtocolChecker* protocol_checker(std::size_t i) const {
    return i < protocol_checkers_.size() ? protocol_checkers_[i].get()
                                         : nullptr;
  }
  [[nodiscard]] const InvariantChecker* invariant_checker() const {
    return invariant_checker_.get();
  }

  /// Introspection hub (null unless cfg.obs enables something).  Tests
  /// and tools read the trace/time-series/metrics artifacts through it.
  [[nodiscard]] obs::ObsHub* obs() { return obs_hub_.get(); }
  [[nodiscard]] const obs::ObsHub* obs() const { return obs_hub_.get(); }

  /// Snapshot serialization of the full simulator state (src/ckpt owns
  /// the framing; this walks every component in a fixed order).  Public
  /// so ckpt::save_snapshot / load_snapshot stay free functions; not a
  /// stable API for anything else.
  template <class Ar>
  void ckpt_io(Ar& ar);

 private:
  void audit_invariants();
  [[nodiscard]] std::unique_ptr<TransactionScheduler> make_policy(ChannelId id);
  [[nodiscard]] std::uint64_t total_instructions() const;
  RunResult collect() const;
  /// Record one time-series row at now_ (called on sample boundaries).
  void sample_timeseries();

  SimConfig cfg_;
  DramTiming timing_;
  AddressMap amap_;
  /// The instruction source the config names: a replayed trace, else the
  /// cfg.instr_source factory's, else the statistical generator.
  std::unique_ptr<InstrSource> source_;
  /// Trace capture (cfg.record_trace_path): the recorder wraps source_.
  std::unique_ptr<TraceWriter> trace_writer_;
  std::unique_ptr<RecordingSource> recorder_;
  InstrTracker tracker_;
  Crossbar xbar_;
  std::vector<std::unique_ptr<Partition>> partitions_;
  std::vector<std::unique_ptr<Sm>> sms_;
  std::unique_ptr<CoordinationNetwork> coord_;
  std::shared_ptr<ZldCoordinator> zld_;
  std::vector<std::unique_ptr<ProtocolChecker>> protocol_checkers_;
  std::unique_ptr<InvariantChecker> invariant_checker_;
  std::unique_ptr<obs::ObsHub> obs_hub_;

  Cycle now_ = 0;
  std::uint64_t warmup_instructions_ = 0;
  Cycle warmup_done_at_ = 0;

  // Time-series sampling state: previous cumulative counter values, so
  // each row reports per-epoch deltas alongside instantaneous occupancy.
  struct ChannelSeriesPrev {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t activates = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t row_misses = 0;
    std::uint64_t row_conflicts = 0;
    std::uint64_t merb_deferrals = 0;
  };
  std::vector<ChannelSeriesPrev> series_prev_;
  std::uint64_t series_prev_instr_ = 0;
  std::vector<std::uint64_t> series_row_;  ///< reused sample buffer
};

}  // namespace latdiv
