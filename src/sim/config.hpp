// Top-level simulation configuration (paper Table II defaults).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/policy_wg.hpp"
#include "dram/params.hpp"
#include "gpu/partition.hpp"
#include "gpu/sm.hpp"
#include "icnt/crossbar.hpp"
#include "mc/controller.hpp"
#include "mc/policy_gmc.hpp"
#include "mc/policy_sbwas.hpp"
#include "mem/address_map.hpp"
#include "obs/hub.hpp"
#include "workload/instr_source.hpp"
#include "workload/profile.hpp"

namespace latdiv {

/// Every scheduler evaluated in the paper, plus the idealised models.
enum class SchedulerKind : std::uint8_t {
  kFcfs,
  kFrFcfs,
  kGmc,     ///< baseline (§II-C)
  kWafcfs,  ///< Yuan et al. (§VI-C2); also flips the interconnect mode
  kSbwas,   ///< Lakshminarayana et al. (§VI-C1)
  kWg,      ///< §IV-B
  kWgM,     ///< §IV-C
  kWgBw,    ///< §IV-D
  kWgW,     ///< §IV-E
  kWgShared,///< extension: Conclusions' shared-data-aware priority
  kZld,     ///< Fig. 4 zero-latency-divergence ideal
};

[[nodiscard]] const char* to_string(SchedulerKind kind);

/// Runtime correctness checkers (src/check).  Both are off by default for
/// benchmarking runs; shrink_for_tests() turns them on so the whole unit
/// suite doubles as a protocol-conformance harness.
struct CheckConfig {
  bool protocol = false;    ///< shadow GDDR5 timing verifier per channel
  bool invariants = false;  ///< request-path conservation audits
  /// Abort (with a full report) on the first violation.  Tests that probe
  /// the checkers themselves set this false and inspect violations().
  bool abort_on_violation = true;
  /// Global cycles between invariant audits (audits are O(queued work)).
  Cycle audit_interval = 64;
};

struct SimConfig {
  // GPU organisation (Table II).
  std::uint32_t num_sms = 30;
  SmConfig sm;
  PartitionConfig partition;
  IcntConfig icnt;
  McConfig mc;
  DramParams dram;
  AddressMapConfig amap;

  // Scheduler under test and its policy knobs.
  SchedulerKind scheduler = SchedulerKind::kGmc;
  GmcConfig gmc;
  SbwasConfig sbwas;
  WgConfig wg;  ///< flags are overridden to match `scheduler`
  Cycle coordination_latency = 4;

  /// Escape hatch for user-defined schedulers: when set, this factory is
  /// used for every controller instead of `scheduler` (which is then only
  /// used for the result label).  See examples/custom_policy.cpp.
  std::function<std::unique_ptr<TransactionScheduler>(ChannelId,
                                                      const DramTiming&)>
      custom_policy;

  // Workload.
  WorkloadProfile workload;
  std::uint64_t seed = 1;
  /// Escape hatch for user-defined instruction streams, mirroring
  /// custom_policy: when set, the factory's source replaces the
  /// statistical generator (`workload` is then only used for the result
  /// label).  The scenario microkernels plug in through this
  /// (src/scenario/scenario.hpp).  Sources must be deterministic from
  /// (factory, seed) and independent of warp interleaving order.
  std::function<std::unique_ptr<InstrSource>(
      std::uint32_t sms, std::uint32_t warps_per_sm, std::uint64_t seed)>
      instr_source;
  /// When non-empty, replay this instruction trace instead of the
  /// statistical generator (the trace's geometry must cover num_sms x
  /// sm.warps).  See src/workload/trace.hpp.
  std::string replay_trace_path;
  /// When non-empty, record the instruction stream consumed by this run.
  std::string record_trace_path;

  // Run length (global DRAM command-clock cycles).
  Cycle max_cycles = 300'000;
  Cycle warmup_cycles = 30'000;

  // Correctness checkers.
  CheckConfig check;

  /// Introspection layer (src/obs): request-lifecycle tracing, sampled
  /// time-series, divergence histograms.  Off by default — the hub is not
  /// even constructed, leaving null-pointer checks as the only footprint.
  obs::ObsConfig obs;

  /// Scale all structure counts down for fast unit tests.
  void shrink_for_tests();
};

}  // namespace latdiv
