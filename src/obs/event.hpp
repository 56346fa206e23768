// Observability event model — the unit flowing from instrumented
// components to the ChromeTraceSink.
//
// The taxonomy mirrors Chrome's trace_event format (the only backend we
// ship renders to it directly), because that format is the lingua franca
// of timeline viewers: a file of these events opens unmodified in
// Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//
//   kComplete ("X")  a named span [ts, ts+dur) on one track
//   kInstant  ("i")  a point event at ts on one track
//   kCounter  ("C")  a sampled numeric series at ts
//   (metadata  "M"   — track naming — is a dedicated sink call, because
//    its payload is a string, not cycle counters)
//
// Tracks are (pid, tid) pairs.  The simulator's track map:
//
//   pid 0                 counters (time-series samples)
//   pid kPidWarps         one tid per (SM, warp): warp-load lifecycles
//   pid kPidMcBase + ch   memory controller `ch`: one tid per bank for
//                         request stages and DRAM commands, tid kTidCtrl
//                         for controller-wide spans (write drains)
//
// Determinism contract: every field is an integer (cycles, ids, counts).
// Components emit in simulation order, the simulation is single-threaded
// and deterministic, so a run's event stream — and any byte-level
// rendering of it — is reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <span>

#include "common/types.hpp"

namespace latdiv::obs {

/// Track-id conventions (see header comment).
inline constexpr std::uint32_t kPidCounters = 0;
inline constexpr std::uint32_t kPidWarps = 1;
inline constexpr std::uint32_t kPidMcBase = 16;
inline constexpr std::uint32_t kTidCtrl = 0xFFFF;

/// One key/value annotation on an event.  Values are integers only —
/// floating-point formatting is a portability hazard for byte-stable
/// traces, and every quantity we record is a cycle count or an id.
struct TraceArg {
  const char* key;
  std::uint64_t value;
};

struct TraceEvent {
  enum class Phase : char {
    kComplete = 'X',
    kInstant = 'i',
    kCounter = 'C',
  };

  Phase ph = Phase::kInstant;
  const char* name = "";  ///< static string (event vocabulary is fixed)
  const char* cat = "";   ///< category for viewer filtering
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  Cycle ts = 0;   ///< start cycle (true simulation time, never rebased)
  Cycle dur = 0;  ///< kComplete only
  std::span<const TraceArg> args;
};

}  // namespace latdiv::obs
