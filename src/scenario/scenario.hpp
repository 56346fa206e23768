// Scenario microkernel library: the simulator's second workload frontend.
//
// The statistical generator (workload/generator.hpp) reproduces the
// paper's Table III *statistics*; the scenarios here model the *access
// structure* of concrete GPGPU kernels instead — loop shapes, array
// layouts, pointer chains — so the scheduler comparison is validated
// against request streams the profile knobs cannot express (grid-stride
// strided vector ops, stream compaction with data-dependent store sizes,
// tiled framebuffer writes, hash-chain pointer chasing, phase-alternating
// kernels, and power-law row popularity).
//
// Every scenario emits a deterministic per-warp instruction stream
// through the InstrSource interface.  Determinism contract (shared with
// the generator): all state is strictly per-warp — each warp owns its
// own Rng and cursors, nothing is keyed by call order — so the stream a
// warp sees is a pure function of (spec, geometry, seed, warp id), no
// matter how the simulator interleaves warps.  This is what makes
// byte-identical sweep artifacts across --jobs possible, and what makes a recorded trace of a scenario equal the
// scenario itself.
//
// Scenarios plug into a simulation through SimConfig::instr_source:
//
//   const ScenarioSpec& spec = scenario_by_name("pointer-chase");
//   cfg.instr_source = [&spec](std::uint32_t sms, std::uint32_t warps,
//                              std::uint64_t seed) {
//     return make_scenario(spec, sms, warps, seed);
//   };
//
// or are captured to a portable v2 trace with tools/latdiv-tracegen and
// replayed anywhere.  The `kernels` sweep manifest (src/exp/manifest.cpp)
// evaluates every scheduler policy across this catalogue.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workload/instr_source.hpp"

namespace latdiv::scenario {

enum class ScenarioKind : std::uint8_t {
  /// Grid-stride vector add where each lane strides `stride_lines` lines
  /// from its neighbour: every load/store splits into 32 distinct lines
  /// spread across many DRAM rows (worst-case uncoalesced SIMT access).
  kVecAddUncoalesced,
  /// Stream compaction: coalesced input loads, then data-dependent
  /// stores — only the lanes whose element passes `threshold` write, and
  /// the packed output cursor drifts across line boundaries.
  kThresholdCompact,
  /// Store-heavy tiled framebuffer blit: each warp owns a 2D tile per
  /// iteration, writing tile rows that are `fb_width_lines` lines apart
  /// (same-row locality within a tile row, row conflicts across them),
  /// plus a divergent texture-gather load.
  kFramebuffer,
  /// `chase_lanes` independent hash-chain walks: every load is a 32-way
  /// (or narrower) gather of pseudo-random lines — maximum latency
  /// divergence, near-zero row locality, the paper's adversarial case.
  kPointerChase,
  /// Alternates between a streaming phase (contiguous coalesced lines)
  /// and a divergent phase (random gathers) every `phase_len` memory
  /// instructions, so schedulers see abrupt behaviour changes instead of
  /// a stationary mixture.
  kPhaseShift,
  /// Zipf-distributed row popularity over `hot_rows` 2 KB DRAM rows:
  /// most lanes hit a few hot rows (deep same-row queues), the tail
  /// scatters — the skewed reuse of graph frontiers and hash tables.
  kPowerLawRows,
};

/// Tuning knobs.  The first block applies to every kernel; the rest are
/// kind-specific (unused knobs are ignored by the other kernels).
struct ScenarioParams {
  std::uint64_t footprint_bytes = 64ull << 20;
  /// Long-run fraction of issued instructions that touch memory
  /// (enforced exactly via an integer per-mille accumulator).
  double mem_instr_frac = 0.4;
  std::uint32_t compute_latency_mean = 12;

  std::uint32_t stride_lines = 32;    ///< VecAddUncoalesced: lane stride
  double threshold = 0.35;            ///< ThresholdCompact: survivor frac
  std::uint32_t fb_width_lines = 256; ///< Framebuffer: scanline width
  std::uint32_t tile = 8;             ///< Framebuffer: tile rows
  std::uint32_t chase_lanes = 32;     ///< PointerChase: parallel chains
  std::uint32_t phase_len = 96;       ///< PhaseShift: mem instrs per phase
  double zipf_s = 1.2;                ///< PowerLawRows: skew exponent
  std::uint32_t hot_rows = 64;        ///< PowerLawRows: hot-row population
};

struct ScenarioSpec {
  std::string name;     ///< stable CLI / manifest identifier
  ScenarioKind kind = ScenarioKind::kVecAddUncoalesced;
  ScenarioParams params;
  std::string summary;  ///< one-line description for --list output
};

/// The built-in scenario library, in stable presentation order.
[[nodiscard]] const std::vector<ScenarioSpec>& scenario_catalog();

/// Lookup by ScenarioSpec::name; throws std::invalid_argument listing
/// the valid names when not found.
[[nodiscard]] const ScenarioSpec& scenario_by_name(const std::string& name);

/// Instantiate the microkernel for a GPU geometry.  The returned source
/// never exhausts (scenarios iterate their kernel grid indefinitely).
[[nodiscard]] std::unique_ptr<InstrSource> make_scenario(
    const ScenarioSpec& spec, std::uint32_t sms, std::uint32_t warps_per_sm,
    std::uint64_t seed);

}  // namespace latdiv::scenario
