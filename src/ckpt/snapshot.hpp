// Checkpointed simulation state — save/load of a full Simulator.
//
// A snapshot is a byte-portable image of everything that determines the
// rest of a run: SM/warp/MSHR state, crossbar and coordination queues,
// controller queues (and the warp-group policy's group table), per-bank
// DRAM timing state, instruction-source cursors and RNG streams,
// checker shadow state and observability buffers.  The determinism
// contract, enforced by tests/test_ckpt.cpp and CI: constructing a fresh
// Simulator from the same SimConfig, loading a snapshot taken at cycle C,
// and running to the end produces a RunResult (and obs artifacts)
// byte-identical to the run that never paused.
//
// File layout ("LDSN" format, version 3):
//
//   header (24 bytes, all multi-byte fields little-endian):
//     magic "LDSN", u32 version, u32 config fingerprint, u64 cycle,
//     u32 header_crc (CRC-32 of the preceding 20 bytes)
//   sections (ckpt/archive.hpp framing, in fixed order):
//     "CORE" clock, warmup capture, time-series deltas, ZLD coordinator
//     "SRCE" instruction-source kind tag + source cursors/RNG streams
//     "GPUS" instruction tracker + every SM
//     "ICNT" crossbar queues + coordination network
//     "MCTL" every partition (L2, MSHRs, controller, channel, policy)
//     "CHKR" protocol/invariant checker shadow state (presence flags)
//     "OBSV" obs hub registry/trace/series buffers (presence flag)
//
// The fingerprint is a CRC-32 over the configuration fields that shape
// the serialized structures (GPU geometry, scheduler, seed, workload
// identity).  It deliberately excludes max_cycles, which does not affect
// simulated state, so a snapshot can resume into a longer run.
// Deeper mismatches the fingerprint cannot see are caught by the
// per-section geometry checks during load.
//
// All malformed input (bad magic, truncation, CRC mismatch, wrong
// version, wrong fingerprint, geometry mismatch) throws ckpt::CkptError
// with a specific message — never silent UB (mirrors TraceError).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/error.hpp"
#include "common/types.hpp"

namespace latdiv {
class Simulator;
struct SimConfig;
}  // namespace latdiv

namespace latdiv::ckpt {

inline constexpr std::uint32_t kSnapshotVersion = 3;
inline constexpr std::size_t kSnapshotHeaderBytes = 24;

/// CRC-32 over the curated configuration fields above.  Two configs with
/// equal fingerprints produce structurally compatible snapshots.
[[nodiscard]] std::uint32_t config_fingerprint(const SimConfig& cfg);

/// Serialize the simulator's full state at its current cycle.  Throws
/// CkptError for runs whose state cannot round-trip: custom scheduling
/// policies, trace-recording runs, and non-checkpointable custom
/// instruction sources.
[[nodiscard]] std::vector<unsigned char> save_snapshot(const Simulator& sim);
void save_snapshot_file(const Simulator& sim, const std::string& path);

/// Overwrite `sim`'s state from a snapshot.  `sim` must be freshly
/// constructed from a SimConfig whose fingerprint matches the snapshot's;
/// afterwards sim.now() equals the snapshot cycle and run_to()/finish()
/// continue exactly where the saved run left off.
void load_snapshot(Simulator& sim, const unsigned char* data,
                   std::size_t size);
void load_snapshot_file(Simulator& sim, const std::string& path);

/// Header + section walk without a Simulator (the latdiv-ckpt CLI).
/// Verifies the header CRC and every section frame's CRC; throws
/// CkptError on the first problem.
struct SnapshotSectionInfo {
  std::string tag;
  std::uint64_t payload_bytes = 0;
};
struct SnapshotInfo {
  std::uint32_t version = 0;
  std::uint32_t fingerprint = 0;
  Cycle cycle = 0;
  std::uint64_t file_bytes = 0;
  std::vector<SnapshotSectionInfo> sections;
};
[[nodiscard]] SnapshotInfo inspect_snapshot(const unsigned char* data,
                                            std::size_t size);
[[nodiscard]] SnapshotInfo inspect_snapshot_file(const std::string& path);

}  // namespace latdiv::ckpt
