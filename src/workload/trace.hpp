// Instruction-trace capture and replay.
//
// A trace records the per-warp instruction stream (kind, latency, lane
// addresses) in a compact binary format, so a workload can be:
//   * captured once from the statistical generator or a scenario
//     microkernel and replayed bit-identically across scheduler
//     comparisons or library versions;
//   * produced by an external tool (e.g. converted from a real
//     GPGPU-Sim/NVBit trace) and fed into latdiv's memory system.
//
// Format v2 (current, written by TraceWriter) — explicitly little-endian
// with byte-order conversion helpers (common/endian.hpp), so traces are
// machine-portable interchange files; every multi-byte field below is LE:
//
//   header (40 bytes):
//     magic "LDTR", u32 version=2, u32 sms, u32 warps_per_sm,
//     u32 chunk_records, u64 total_records, u64 index_offset,
//     u32 header_crc (CRC-32 of the preceding 36 bytes)
//   chunks (one warp's consecutive records per chunk; every chunk of a
//   warp holds exactly chunk_records records except the last):
//     magic "LDCK", u16 sm, u16 warp, u32 record_count, u32 payload_bytes,
//     payload, u32 payload_crc (CRC-32 of payload)
//   record encoding inside a payload (sm/warp live on the chunk, not the
//   record):
//     u8 kind, u8 active_lanes, u32 latency,
//     then active_lanes u64 lane addresses (memory records only)
//   index (at index_offset):
//     magic "LDIX", then per warp stream in SM-major order:
//       u64 record_count, u32 chunk_count, chunk_count u64 chunk offsets
//     u32 index_crc (CRC-32 of everything between "LDIX" and the crc)
//
// The per-warp chunk index is what lets TraceReplayer stream from disk
// with bounded memory — O(active warps x chunk bytes), independent of
// trace length — and expose a checkpointable cursor (per-warp record
// positions) that restores mid-stream without a linear rescan.
//
// Any other version (including the retired host-order v1 layout) is
// rejected with "unsupported trace version".
//
// Replay is keyed by (sm, warp): each warp consumes its own subsequence
// in order and wraps when it runs out, so a trace captured on a machine
// configuration can drive longer runs too.  All malformed input (bad
// magic, truncated records, CRC mismatch, ids outside the declared
// geometry) throws TraceError with a specific message — never silent UB.
#pragma once

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "workload/instr.hpp"
#include "workload/instr_source.hpp"

namespace latdiv {

/// Thrown on any malformed, truncated, or unwritable trace file.  Sweep
/// points replaying a bad trace fail in isolation (the executor catches
/// std::exception); CLI tools print the message and exit nonzero.
class TraceError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Records per chunk when the writer is not told otherwise.  Chunk bytes
/// bound the replayer's per-warp memory; 64 records is ~17 KB worst case
/// (all 32-lane memory records) per active warp.
inline constexpr std::uint32_t kTraceChunkRecords = 64;

/// Streams instruction records to a v2 trace file as they are recorded.
class TraceWriter {
 public:
  TraceWriter(const std::string& path, std::uint32_t sms,
              std::uint32_t warps_per_sm,
              std::uint32_t chunk_records = kTraceChunkRecords);
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void record(SmId sm, WarpId warp, const WarpInstr& instr);
  /// Flush partial chunks, write the index, patch the header and close;
  /// called by the destructor if not called earlier.  A trace is not a
  /// complete v2 file until close() has run.
  void close();

  [[nodiscard]] std::uint64_t records_written() const { return records_; }

 private:
  struct WarpBuf {
    std::vector<unsigned char> payload;  ///< encoded records of open chunk
    std::uint32_t count = 0;             ///< records in the open chunk
  };
  struct WarpIndex {
    std::uint64_t records = 0;
    std::vector<std::uint64_t> chunk_offsets;
  };

  void flush_chunk(std::size_t warp_idx);

  std::FILE* file_ = nullptr;
  std::string path_;
  std::uint32_t sms_ = 0;
  std::uint32_t warps_per_sm_ = 0;
  std::uint32_t chunk_records_ = 0;
  std::uint64_t records_ = 0;
  std::vector<WarpBuf> bufs_;
  std::vector<WarpIndex> index_;
};

/// Wraps another source, recording everything that passes through.
class RecordingSource final : public InstrSource {
 public:
  RecordingSource(InstrSource& inner, TraceWriter& writer)
      : inner_(inner), writer_(writer) {}

  [[nodiscard]] WarpInstr next(SmId sm, WarpId warp) override {
    WarpInstr instr = inner_.next(sm, warp);
    writer_.record(sm, warp, instr);
    return instr;
  }

 private:
  InstrSource& inner_;
  TraceWriter& writer_;
};

/// How TraceReplayer holds a trace.
enum class ReplayMode : std::uint8_t {
  /// Stream chunks from disk on demand: O(active warps x chunk bytes)
  /// memory regardless of trace length.  The default.
  kStreaming,
  /// Decode the whole trace up front (cross-check for the streaming path
  /// and for tests; memory is O(total records)).
  kInMemory,
};

/// Replays each warp's recorded stream in order, wrapping at the end of
/// that warp's subsequence.  Reads format v2.
class TraceReplayer final : public InstrSource {
 public:
  explicit TraceReplayer(const std::string& path,
                         ReplayMode mode = ReplayMode::kStreaming);
  ~TraceReplayer();
  TraceReplayer(const TraceReplayer&) = delete;
  TraceReplayer& operator=(const TraceReplayer&) = delete;

  [[nodiscard]] WarpInstr next(SmId sm, WarpId warp) override;

  [[nodiscard]] std::uint32_t version() const { return version_; }
  [[nodiscard]] std::uint32_t sms() const { return sms_; }
  [[nodiscard]] std::uint32_t warps_per_sm() const { return warps_per_sm_; }
  [[nodiscard]] std::uint64_t total_records() const { return total_; }
  /// True when this instance streams chunks from disk on demand.
  [[nodiscard]] bool streaming() const { return file_ != nullptr; }

  /// Checkpointable replay cursor: the current record position of every
  /// warp stream (SM-major order), already wrapped into [0, records).
  /// restore() on a fresh replayer of the same trace resumes the exact
  /// stream — byte-identical to having never stopped.
  [[nodiscard]] std::vector<std::uint64_t> cursor() const;
  void restore(const std::vector<std::uint64_t>& cursor);

  /// Snapshot hooks (src/ckpt): the warp cursors fully determine replay
  /// state, so save/load are thin wrappers around cursor()/restore().
  [[nodiscard]] bool checkpointable() const override { return true; }
  void ckpt_save(ckpt::CkptWriter& ar) const override;
  void ckpt_load(ckpt::CkptReader& ar) override;

 private:
  /// In-memory stream (ReplayMode::kInMemory).
  struct WarpStream {
    std::vector<WarpInstr> instrs;
    std::uint64_t pos = 0;
  };
  /// Streaming v2 state: the index entry plus one open chunk.
  struct WarpCursor {
    std::uint64_t records = 0;               ///< stream length (from index)
    std::vector<std::uint64_t> chunk_offsets;
    std::uint64_t pos = 0;                   ///< next record to replay
    std::uint64_t loaded_chunk = 0;
    bool loaded = false;
    std::uint32_t chunk_count = 0;    ///< records in the loaded chunk
    std::uint32_t chunk_pos = 0;      ///< records decoded so far
    std::size_t byte_pos = 0;         ///< decode offset into payload
    std::vector<unsigned char> payload;
  };

  void load_v2(std::FILE* f, ReplayMode mode);
  void read_index(std::FILE* f, std::uint64_t index_offset);
  void load_chunk(std::size_t warp_idx, std::uint64_t chunk);
  [[nodiscard]] std::size_t warp_index(SmId sm, WarpId warp) const;

  std::string path_;
  std::FILE* file_ = nullptr;  ///< open while streaming, null otherwise
  std::uint32_t version_ = 0;
  std::uint32_t sms_ = 0;
  std::uint32_t warps_per_sm_ = 0;
  std::uint32_t chunk_records_ = 0;
  std::uint64_t total_ = 0;
  std::vector<WarpStream> streams_;  ///< in-memory replay state
  std::vector<WarpCursor> cursors_;  ///< streaming replay state
};

/// Full-file scan results (the `latdiv-tracegen inspect/validate/stats`
/// surface).  Produced by scan_trace, which decodes and verifies the
/// whole file: header and index CRCs, every chunk CRC, every record's
/// bounds, and index/chunk cross-consistency.
struct TraceStats {
  std::uint32_t version = 0;
  std::uint32_t sms = 0;
  std::uint32_t warps_per_sm = 0;
  std::uint32_t chunk_records = 0;
  std::uint64_t total_records = 0;
  std::uint64_t chunks = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t payload_bytes = 0;  ///< encoded record bytes
  std::uint64_t computes = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t mem_lanes = 0;      ///< active lanes over memory records
  std::uint64_t distinct_lines = 0; ///< unique 128B lines touched
  std::uint64_t active_warps = 0;   ///< warp streams with >= 1 record
  std::uint64_t min_warp_records = 0;  ///< over active warps
  std::uint64_t max_warp_records = 0;
  double mean_compute_latency = 0.0;

  [[nodiscard]] double mem_frac() const {
    const std::uint64_t total = computes + loads + stores;
    return total == 0 ? 0.0
                      : static_cast<double>(loads + stores) /
                            static_cast<double>(total);
  }
  /// Mean distinct active lanes per memory record.
  [[nodiscard]] double lanes_per_mem() const {
    const std::uint64_t mem = loads + stores;
    return mem == 0 ? 0.0
                    : static_cast<double>(mem_lanes) /
                          static_cast<double>(mem);
  }
};

/// Decode and verify `path` end to end; throws TraceError on the first
/// problem.
[[nodiscard]] TraceStats scan_trace(const std::string& path);

}  // namespace latdiv
