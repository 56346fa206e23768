// Host-speed probe.
//
// The benchmark runs on shared hosts whose speed moves by 20-70% over
// minutes, with process CPU time tracking wall time (the host is slower,
// not the process descheduled).  Medians over a run cannot remove a
// slowdown that lasts a whole run.  So an untraced pass also times a fixed
// kernel owned by the benchmark right after each point.  It runs no
// simulator code, so a change to the simulator cannot move it.  It mixes
// two kinds of work whose slowdowns bracket the simulator's: a pointer
// chase through an L2-sized table with a data-dependent branch per step
// (slows less than the simulator) and hash-map churn (slows more).  The
// end-to-end times are reported scaled by kProbeRefMs / (mean probe ms of
// the pass): host time on a host where the probe takes kProbeRefMs.
#pragma once

namespace latbench {

/// Probe time that defines the reference host, in ms.
inline constexpr double kProbeRefMs = 4.0;

/// Host ms one run of the probe kernel takes now.
[[nodiscard]] double probe_ms();

}  // namespace latbench
