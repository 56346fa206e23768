// Forwarding wrappers that time calls into the simulator's layers from
// outside, through the two escape hatches SimConfig offers:
//
//   * SimConfig::custom_policy installs a TracedPolicy around the policy
//     the configured SchedulerKind would have built, charging its calls
//     to core.policy (WG family, src/core) or mc.policy (the baselines,
//     src/mc);
//   * SimConfig::instr_source installs a TracedSource around the source
//     the run would have used (the statistical generator, or the factory
//     a manifest hook already set), charging InstrSource::next.
//
// Both wrappers forward every virtual call unchanged, so a traced run
// simulates exactly what the untraced run does; the benchmark checks that
// by comparing every point's metrics.  Snapshots refuse custom policies,
// so runs that save snapshots install only the source wrapper.
#pragma once

#include "ledger.hpp"
#include "sim/config.hpp"

namespace latbench {

/// Install the wrappers into `cfg`.  The ledger must outlive every
/// Simulator built from the returned configuration.
void instrument(latdiv::SimConfig& cfg, Ledger& ledger, bool wrap_policy);

}  // namespace latbench
