#include "workload/trace.hpp"

#include <cstring>
#include <set>

#include "ckpt/archive.hpp"
#include "common/crc32.hpp"
#include "common/endian.hpp"
#include "common/log.hpp"

namespace latdiv {

namespace {

constexpr char kMagic[4] = {'L', 'D', 'T', 'R'};
constexpr char kChunkMagic[4] = {'L', 'D', 'C', 'K'};
constexpr char kIndexMagic[4] = {'L', 'D', 'I', 'X'};
constexpr std::uint32_t kVersion2 = 2;
constexpr std::size_t kHeaderBytes = 40;
constexpr std::size_t kChunkHeaderBytes = 16;
/// kind + lanes + latency + up to 32 addresses.
constexpr std::size_t kMaxRecordBytes = 6 + sizeof(Addr) * kWarpLanes;
/// Caps decoded from untrusted headers so a corrupt geometry or chunk
/// size cannot drive a giant allocation before validation catches it.
constexpr std::uint64_t kMaxWarpStreams = 1ull << 22;
constexpr std::uint32_t kMaxChunkRecords = 1u << 20;

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw TraceError("trace: " + what + ": " + path);
}

void write_exact(std::FILE* f, const void* data, std::size_t n,
                 const std::string& path) {
  if (std::fwrite(data, 1, n, f) != n) {
    fail("write failed (disk full?)", path);
  }
}

void read_exact(std::FILE* f, void* data, std::size_t n,
                const std::string& path) {
  if (std::fread(data, 1, n, f) != n) {
    fail("truncated or unreadable", path);
  }
}

void seek_to(std::FILE* f, std::uint64_t offset, const std::string& path) {
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0) {
    fail("seek failed", path);
  }
}

std::uint64_t file_size(std::FILE* f, const std::string& path) {
  if (std::fseek(f, 0, SEEK_END) != 0) fail("seek failed", path);
  const long at = std::ftell(f);
  if (at < 0) fail("seek failed", path);
  return static_cast<std::uint64_t>(at);
}

/// Closes the file on scope exit unless release()d into a member.
struct FileGuard {
  std::FILE* f = nullptr;
  ~FileGuard() {
    if (f != nullptr) std::fclose(f);
  }
  std::FILE* release() {
    std::FILE* r = f;
    f = nullptr;
    return r;
  }
};

/// Decode one record at `pos` (advanced past it).  Validates kind, lane
/// count, and that the encoded bytes actually fit in the payload.
WarpInstr decode_record(const unsigned char* data, std::size_t size,
                        std::size_t& pos, const std::string& path) {
  if (size < pos + 6) fail("record truncated", path);
  const std::uint8_t kind = data[pos];
  const std::uint8_t lanes = data[pos + 1];
  if (kind > static_cast<std::uint8_t>(WarpInstr::Kind::kStore)) {
    fail("corrupt record kind", path);
  }
  if (lanes > kWarpLanes) fail("corrupt lane count", path);
  WarpInstr instr;
  instr.kind = static_cast<WarpInstr::Kind>(kind);
  instr.active_lanes = lanes;
  instr.latency = get_le32(data + pos + 2);
  pos += 6;
  if (instr.kind != WarpInstr::Kind::kCompute) {
    const std::size_t need = sizeof(Addr) * lanes;
    if (size - pos < need) fail("record truncated", path);
    for (std::uint8_t i = 0; i < lanes; ++i) {
      instr.lane_addr[i] = get_le64(data + pos + sizeof(Addr) * i);
    }
    pos += need;
  }
  return instr;
}

/// 36 header bytes (everything before the CRC field) for a v2 file.
void encode_header_prefix(unsigned char* hdr, std::uint32_t sms,
                          std::uint32_t warps_per_sm,
                          std::uint32_t chunk_records, std::uint64_t total,
                          std::uint64_t index_offset) {
  std::memcpy(hdr, kMagic, 4);
  put_le32(hdr + 4, kVersion2);
  put_le32(hdr + 8, sms);
  put_le32(hdr + 12, warps_per_sm);
  put_le32(hdr + 16, chunk_records);
  put_le64(hdr + 20, total);
  put_le64(hdr + 28, index_offset);
}

/// One warp stream's entry parsed back out of the index section.
struct IndexEntry {
  std::uint64_t records = 0;
  std::vector<std::uint64_t> chunk_offsets;
};

std::vector<IndexEntry> parse_index(std::FILE* f, std::uint64_t index_offset,
                                    std::uint64_t bytes,
                                    std::size_t warp_count,
                                    std::uint32_t chunk_records,
                                    std::uint64_t total,
                                    const std::string& path) {
  if (bytes < index_offset || bytes - index_offset < 8) {
    fail("index truncated", path);
  }
  const std::size_t n = static_cast<std::size_t>(bytes - index_offset);
  std::vector<unsigned char> raw(n);
  seek_to(f, index_offset, path);
  read_exact(f, raw.data(), n, path);
  if (std::memcmp(raw.data(), kIndexMagic, 4) != 0) {
    fail("bad index magic", path);
  }
  if (crc32(raw.data() + 4, n - 8) != get_le32(raw.data() + n - 4)) {
    fail("index CRC mismatch", path);
  }

  std::vector<IndexEntry> entries(warp_count);
  std::size_t pos = 4;
  const std::size_t end = n - 4;
  std::uint64_t sum = 0;
  for (IndexEntry& e : entries) {
    if (end - pos < 12) fail("index truncated", path);
    e.records = get_le64(raw.data() + pos);
    const std::uint32_t chunks = get_le32(raw.data() + pos + 8);
    pos += 12;
    const std::uint64_t expect =
        (e.records + chunk_records - 1) / chunk_records;
    if (chunks != expect) fail("index chunk count mismatch", path);
    if ((end - pos) / 8 < chunks) fail("index truncated", path);
    e.chunk_offsets.resize(chunks);
    for (std::uint32_t c = 0; c < chunks; ++c) {
      const std::uint64_t off = get_le64(raw.data() + pos + 8ull * c);
      if (off < kHeaderBytes || off >= index_offset) {
        fail("index chunk offset out of range", path);
      }
      e.chunk_offsets[c] = off;
    }
    pos += 8ull * chunks;
    sum += e.records;
  }
  if (pos != end) fail("index has trailing bytes", path);
  if (sum != total) fail("index record count disagrees with header", path);
  return entries;
}

/// Read and fully validate the chunk at `offset` (magic, warp identity,
/// record count against the index, payload CRC).
std::vector<unsigned char> read_chunk(std::FILE* f, std::uint64_t offset,
                                      std::size_t warp_idx,
                                      std::uint32_t warps_per_sm,
                                      std::uint32_t expected_records,
                                      const std::string& path) {
  seek_to(f, offset, path);
  unsigned char hdr[kChunkHeaderBytes];
  read_exact(f, hdr, sizeof hdr, path);
  if (std::memcmp(hdr, kChunkMagic, 4) != 0) fail("bad chunk magic", path);
  const std::uint16_t sm = get_le16(hdr + 4);
  const std::uint16_t warp = get_le16(hdr + 6);
  const std::uint32_t count = get_le32(hdr + 8);
  const std::uint32_t payload_bytes = get_le32(hdr + 12);
  if (sm != warp_idx / warps_per_sm || warp != warp_idx % warps_per_sm) {
    fail("chunk belongs to a different warp than the index claims", path);
  }
  if (count != expected_records) fail("chunk record count mismatch", path);
  if (payload_bytes < 6ull * count ||
      payload_bytes > kMaxRecordBytes * static_cast<std::uint64_t>(count)) {
    fail("implausible chunk payload size", path);
  }
  std::vector<unsigned char> payload(payload_bytes);
  read_exact(f, payload.data(), payload_bytes, path);
  unsigned char crc_raw[4];
  read_exact(f, crc_raw, sizeof crc_raw, path);
  if (crc32(payload.data(), payload.size()) != get_le32(crc_raw)) {
    fail("chunk CRC mismatch", path);
  }
  return payload;
}

std::uint32_t chunk_record_count(std::uint64_t records,
                                 std::uint32_t chunk_records,
                                 std::uint64_t chunk,
                                 std::uint64_t chunk_count) {
  return chunk + 1 < chunk_count
             ? chunk_records
             : static_cast<std::uint32_t>(records -
                                          chunk * chunk_records);
}

}  // namespace

// ---------------------------------------------------------------------------
// TraceWriter

TraceWriter::TraceWriter(const std::string& path, std::uint32_t sms,
                         std::uint32_t warps_per_sm,
                         std::uint32_t chunk_records)
    : path_(path),
      sms_(sms),
      warps_per_sm_(warps_per_sm),
      chunk_records_(chunk_records) {
  if (sms == 0 || warps_per_sm == 0 ||
      static_cast<std::uint64_t>(sms) * warps_per_sm > kMaxWarpStreams) {
    fail("invalid trace geometry", path);
  }
  if (chunk_records == 0 || chunk_records > kMaxChunkRecords) {
    fail("invalid chunk size", path);
  }
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) fail("cannot open trace file for writing", path);
  bufs_.resize(static_cast<std::size_t>(sms) * warps_per_sm);
  index_.resize(bufs_.size());
  // Placeholder header; total_records / index_offset / CRC are patched in
  // close() once they are known.
  unsigned char hdr[kHeaderBytes] = {};
  encode_header_prefix(hdr, sms_, warps_per_sm_, chunk_records_, 0, 0);
  write_exact(file_, hdr, sizeof hdr, path_);
}

TraceWriter::~TraceWriter() {
  try {
    close();
  } catch (const TraceError& e) {
    // A destructor must not throw; close() explicitly to handle this.
    std::fprintf(stderr, "latdiv: %s\n", e.what());
  }
}

void TraceWriter::record(SmId sm, WarpId warp, const WarpInstr& instr) {
  LATDIV_ASSERT(file_ != nullptr, "record after close");
  if (sm >= sms_ || warp >= warps_per_sm_) {
    fail("record outside declared trace geometry", path_);
  }
  if (instr.active_lanes > kWarpLanes) {
    fail("record with more than 32 active lanes", path_);
  }
  unsigned char rec[kMaxRecordBytes];
  rec[0] = static_cast<unsigned char>(instr.kind);
  rec[1] = instr.active_lanes;
  put_le32(rec + 2, instr.latency);
  std::size_t size = 6;
  if (instr.kind != WarpInstr::Kind::kCompute) {
    for (std::uint8_t i = 0; i < instr.active_lanes; ++i) {
      put_le64(rec + size, instr.lane_addr[i]);
      size += sizeof(Addr);
    }
  }
  const std::size_t wi =
      static_cast<std::size_t>(sm) * warps_per_sm_ + warp;
  WarpBuf& buf = bufs_[wi];
  buf.payload.insert(buf.payload.end(), rec, rec + size);
  ++buf.count;
  ++records_;
  if (buf.count == chunk_records_) flush_chunk(wi);
}

void TraceWriter::flush_chunk(std::size_t warp_idx) {
  WarpBuf& buf = bufs_[warp_idx];
  if (buf.count == 0) return;
  const long at = std::ftell(file_);
  if (at < 0) fail("seek failed", path_);
  unsigned char hdr[kChunkHeaderBytes];
  std::memcpy(hdr, kChunkMagic, 4);
  put_le16(hdr + 4, static_cast<std::uint16_t>(warp_idx / warps_per_sm_));
  put_le16(hdr + 6, static_cast<std::uint16_t>(warp_idx % warps_per_sm_));
  put_le32(hdr + 8, buf.count);
  put_le32(hdr + 12, static_cast<std::uint32_t>(buf.payload.size()));
  write_exact(file_, hdr, sizeof hdr, path_);
  write_exact(file_, buf.payload.data(), buf.payload.size(), path_);
  unsigned char crc_raw[4];
  put_le32(crc_raw, crc32(buf.payload.data(), buf.payload.size()));
  write_exact(file_, crc_raw, sizeof crc_raw, path_);

  WarpIndex& idx = index_[warp_idx];
  idx.records += buf.count;
  idx.chunk_offsets.push_back(static_cast<std::uint64_t>(at));
  buf.payload.clear();
  buf.count = 0;
}

void TraceWriter::close() {
  if (file_ == nullptr) return;
  for (std::size_t wi = 0; wi < bufs_.size(); ++wi) flush_chunk(wi);

  const long index_at = std::ftell(file_);
  if (index_at < 0) fail("seek failed", path_);
  std::vector<unsigned char> body;
  for (const WarpIndex& idx : index_) {
    unsigned char entry[12];
    put_le64(entry, idx.records);
    put_le32(entry + 8, static_cast<std::uint32_t>(idx.chunk_offsets.size()));
    body.insert(body.end(), entry, entry + sizeof entry);
    for (const std::uint64_t off : idx.chunk_offsets) {
      unsigned char raw[8];
      put_le64(raw, off);
      body.insert(body.end(), raw, raw + sizeof raw);
    }
  }
  write_exact(file_, kIndexMagic, 4, path_);
  write_exact(file_, body.data(), body.size(), path_);
  unsigned char crc_raw[4];
  put_le32(crc_raw, crc32(body.data(), body.size()));
  write_exact(file_, crc_raw, sizeof crc_raw, path_);

  unsigned char hdr[kHeaderBytes];
  encode_header_prefix(hdr, sms_, warps_per_sm_, chunk_records_, records_,
                       static_cast<std::uint64_t>(index_at));
  put_le32(hdr + 36, crc32(hdr, 36));
  seek_to(file_, 0, path_);
  write_exact(file_, hdr, sizeof hdr, path_);

  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) fail("close failed (disk full?)", path_);
}

// ---------------------------------------------------------------------------
// TraceReplayer

TraceReplayer::TraceReplayer(const std::string& path, ReplayMode mode)
    : path_(path) {
  FileGuard guard{std::fopen(path.c_str(), "rb")};
  if (guard.f == nullptr) fail("cannot open trace file for reading", path);
  unsigned char head[8];
  read_exact(guard.f, head, sizeof head, path_);
  if (std::memcmp(head, kMagic, 4) != 0) {
    fail("not a latdiv trace file", path_);
  }
  if (get_le32(head + 4) != kVersion2) {
    fail("unsupported trace version", path_);
  }
  version_ = kVersion2;
  load_v2(guard.f, mode);
  if (mode == ReplayMode::kStreaming) file_ = guard.release();
}

TraceReplayer::~TraceReplayer() {
  if (file_ != nullptr) std::fclose(file_);
}

void TraceReplayer::load_v2(std::FILE* f, ReplayMode mode) {
  unsigned char hdr[kHeaderBytes];
  std::memcpy(hdr, kMagic, 4);
  put_le32(hdr + 4, kVersion2);
  read_exact(f, hdr + 8, kHeaderBytes - 8, path_);
  if (crc32(hdr, 36) != get_le32(hdr + 36)) {
    fail("header CRC mismatch", path_);
  }
  sms_ = get_le32(hdr + 8);
  warps_per_sm_ = get_le32(hdr + 12);
  chunk_records_ = get_le32(hdr + 16);
  total_ = get_le64(hdr + 20);
  const std::uint64_t index_offset = get_le64(hdr + 28);
  if (sms_ == 0 || warps_per_sm_ == 0 ||
      static_cast<std::uint64_t>(sms_) * warps_per_sm_ > kMaxWarpStreams) {
    fail("invalid trace geometry", path_);
  }
  if (chunk_records_ == 0 || chunk_records_ > kMaxChunkRecords) {
    fail("invalid chunk size", path_);
  }
  const std::uint64_t bytes = file_size(f, path_);
  const std::size_t warp_count =
      static_cast<std::size_t>(sms_) * warps_per_sm_;
  std::vector<IndexEntry> entries = parse_index(
      f, index_offset, bytes, warp_count, chunk_records_, total_, path_);

  if (mode == ReplayMode::kInMemory) {
    streams_.resize(warp_count);
    for (std::size_t wi = 0; wi < warp_count; ++wi) {
      const IndexEntry& e = entries[wi];
      streams_[wi].instrs.reserve(e.records);
      for (std::uint64_t c = 0; c < e.chunk_offsets.size(); ++c) {
        const std::uint32_t count = chunk_record_count(
            e.records, chunk_records_, c, e.chunk_offsets.size());
        const std::vector<unsigned char> payload = read_chunk(
            f, e.chunk_offsets[c], wi, warps_per_sm_, count, path_);
        std::size_t pos = 0;
        for (std::uint32_t r = 0; r < count; ++r) {
          streams_[wi].instrs.push_back(
              decode_record(payload.data(), payload.size(), pos, path_));
        }
        if (pos != payload.size()) {
          fail("chunk payload has trailing bytes", path_);
        }
      }
    }
    return;
  }

  cursors_.resize(warp_count);
  for (std::size_t wi = 0; wi < warp_count; ++wi) {
    cursors_[wi].records = entries[wi].records;
    cursors_[wi].chunk_offsets = std::move(entries[wi].chunk_offsets);
  }
}

void TraceReplayer::load_chunk(std::size_t warp_idx, std::uint64_t chunk) {
  WarpCursor& c = cursors_[warp_idx];
  const std::uint32_t count = chunk_record_count(
      c.records, chunk_records_, chunk, c.chunk_offsets.size());
  c.payload = read_chunk(file_, c.chunk_offsets[chunk], warp_idx,
                         warps_per_sm_, count, path_);
  c.loaded = true;
  c.loaded_chunk = chunk;
  c.chunk_count = count;
  c.chunk_pos = 0;
  c.byte_pos = 0;
}

std::size_t TraceReplayer::warp_index(SmId sm, WarpId warp) const {
  return static_cast<std::size_t>(sm) * warps_per_sm_ + warp;
}

WarpInstr TraceReplayer::next(SmId sm, WarpId warp) {
  LATDIV_ASSERT(sm < sms_ && warp < warps_per_sm_,
                "replay outside trace geometry");
  const std::size_t wi = warp_index(sm, warp);

  if (file_ == nullptr) {
    // In-memory replay (ReplayMode::kInMemory).
    WarpStream& ws = streams_[wi];
    if (ws.instrs.empty()) {
      // A warp with no recorded activity idles on compute.
      WarpInstr idle;
      idle.kind = WarpInstr::Kind::kCompute;
      idle.latency = 16;
      return idle;
    }
    const WarpInstr& instr = ws.instrs[ws.pos];
    ws.pos = (ws.pos + 1) % ws.instrs.size();
    return instr;
  }

  WarpCursor& c = cursors_[wi];
  if (c.records == 0) {
    WarpInstr idle;
    idle.kind = WarpInstr::Kind::kCompute;
    idle.latency = 16;
    return idle;
  }
  const std::uint64_t chunk = c.pos / chunk_records_;
  const auto target = static_cast<std::uint32_t>(c.pos % chunk_records_);
  if (!c.loaded || c.loaded_chunk != chunk) {
    load_chunk(wi, chunk);
  } else if (target < c.chunk_pos) {
    // Wrapped back to the start of the (still loaded) chunk — a
    // single-chunk stream cycling, or a restore() to an earlier record.
    c.chunk_pos = 0;
    c.byte_pos = 0;
  }
  // After a restore() the cursor may point mid-chunk: decode forward to
  // it (records are variable-size, so there is no random access inside a
  // chunk).  In sequential replay this loop never runs.
  while (c.chunk_pos < target) {
    (void)decode_record(c.payload.data(), c.payload.size(), c.byte_pos,
                        path_);
    ++c.chunk_pos;
  }
  const WarpInstr instr =
      decode_record(c.payload.data(), c.payload.size(), c.byte_pos, path_);
  ++c.chunk_pos;
  c.pos = (c.pos + 1) % c.records;
  return instr;
}

std::vector<std::uint64_t> TraceReplayer::cursor() const {
  std::vector<std::uint64_t> out;
  if (file_ == nullptr) {
    out.reserve(streams_.size());
    for (const WarpStream& ws : streams_) out.push_back(ws.pos);
  } else {
    out.reserve(cursors_.size());
    for (const WarpCursor& c : cursors_) out.push_back(c.pos);
  }
  return out;
}

void TraceReplayer::ckpt_save(ckpt::CkptWriter& ar) const {
  const std::vector<std::uint64_t> cur = cursor();
  std::uint64_t n = cur.size();
  ar.u64(n);
  for (const std::uint64_t pos : cur) ar.u64(pos);
}

void TraceReplayer::ckpt_load(ckpt::CkptReader& ar) {
  std::uint64_t n = 0;
  ar.u64(n);
  const std::size_t warp_count =
      static_cast<std::size_t>(sms_) * warps_per_sm_;
  if (n != warp_count) {
    throw ckpt::CkptError(
        "snapshot trace cursor does not match the trace geometry");
  }
  std::vector<std::uint64_t> cur(warp_count, 0);
  for (std::uint64_t& pos : cur) ar.u64(pos);
  restore(cur);
}

void TraceReplayer::restore(const std::vector<std::uint64_t>& cursor) {
  const std::size_t warp_count =
      static_cast<std::size_t>(sms_) * warps_per_sm_;
  if (cursor.size() != warp_count) {
    fail("cursor does not match trace geometry", path_);
  }
  for (std::size_t wi = 0; wi < warp_count; ++wi) {
    const std::uint64_t limit = file_ == nullptr
                                    ? streams_[wi].instrs.size()
                                    : cursors_[wi].records;
    if (cursor[wi] != 0 && cursor[wi] >= limit) {
      fail("cursor position beyond end of warp stream", path_);
    }
  }
  for (std::size_t wi = 0; wi < warp_count; ++wi) {
    if (file_ == nullptr) {
      streams_[wi].pos = cursor[wi];
    } else {
      cursors_[wi].pos = cursor[wi];
      cursors_[wi].loaded = false;
      cursors_[wi].payload.clear();
    }
  }
}

// ---------------------------------------------------------------------------
// scan_trace

namespace {

/// Running aggregation over every decoded record of a scan.
struct ScanAccum {
  TraceStats stats;
  std::set<Addr> lines;  // ordered: deterministic and lint-clean
  std::uint64_t compute_latency_sum = 0;

  void add(const WarpInstr& instr) {
    switch (instr.kind) {
      case WarpInstr::Kind::kCompute:
        ++stats.computes;
        compute_latency_sum += instr.latency;
        break;
      case WarpInstr::Kind::kLoad:
        ++stats.loads;
        break;
      case WarpInstr::Kind::kStore:
        ++stats.stores;
        break;
    }
    if (instr.kind != WarpInstr::Kind::kCompute) {
      stats.mem_lanes += instr.active_lanes;
      for (std::uint8_t i = 0; i < instr.active_lanes; ++i) {
        lines.insert(instr.lane_addr[i] / 128);
      }
    }
  }

  void add_warp_records(std::uint64_t records) {
    if (records == 0) return;
    ++stats.active_warps;
    if (stats.active_warps == 1 || records < stats.min_warp_records) {
      stats.min_warp_records = records;
    }
    if (records > stats.max_warp_records) {
      stats.max_warp_records = records;
    }
  }

  TraceStats finish() {
    stats.distinct_lines = lines.size();
    if (stats.computes > 0) {
      stats.mean_compute_latency =
          static_cast<double>(compute_latency_sum) /
          static_cast<double>(stats.computes);
    }
    return stats;
  }
};

}  // namespace

TraceStats scan_trace(const std::string& path) {
  FileGuard guard{std::fopen(path.c_str(), "rb")};
  if (guard.f == nullptr) fail("cannot open trace file for reading", path);
  std::FILE* f = guard.f;
  ScanAccum acc;
  acc.stats.file_bytes = file_size(f, path);
  seek_to(f, 0, path);

  unsigned char head[8];
  read_exact(f, head, sizeof head, path);
  if (std::memcmp(head, kMagic, 4) != 0) {
    fail("not a latdiv trace file", path);
  }
  if (get_le32(head + 4) != kVersion2) {
    fail("unsupported trace version", path);
  }
  acc.stats.version = kVersion2;
  unsigned char hdr[kHeaderBytes];
  std::memcpy(hdr, head, 8);
  read_exact(f, hdr + 8, kHeaderBytes - 8, path);
  if (crc32(hdr, 36) != get_le32(hdr + 36)) {
    fail("header CRC mismatch", path);
  }
  acc.stats.sms = get_le32(hdr + 8);
  acc.stats.warps_per_sm = get_le32(hdr + 12);
  acc.stats.chunk_records = get_le32(hdr + 16);
  acc.stats.total_records = get_le64(hdr + 20);
  const std::uint64_t index_offset = get_le64(hdr + 28);
  if (acc.stats.sms == 0 || acc.stats.warps_per_sm == 0 ||
      static_cast<std::uint64_t>(acc.stats.sms) * acc.stats.warps_per_sm >
          kMaxWarpStreams) {
    fail("invalid trace geometry", path);
  }
  if (acc.stats.chunk_records == 0 ||
      acc.stats.chunk_records > kMaxChunkRecords) {
    fail("invalid chunk size", path);
  }
  const std::size_t warp_count =
      static_cast<std::size_t>(acc.stats.sms) * acc.stats.warps_per_sm;
  const std::vector<IndexEntry> entries =
      parse_index(f, index_offset, acc.stats.file_bytes, warp_count,
                  acc.stats.chunk_records, acc.stats.total_records, path);
  for (std::size_t wi = 0; wi < warp_count; ++wi) {
    const IndexEntry& e = entries[wi];
    acc.stats.chunks += e.chunk_offsets.size();
    for (std::uint64_t c = 0; c < e.chunk_offsets.size(); ++c) {
      const std::uint32_t count =
          chunk_record_count(e.records, acc.stats.chunk_records, c,
                             e.chunk_offsets.size());
      const std::vector<unsigned char> payload =
          read_chunk(f, e.chunk_offsets[c], wi, acc.stats.warps_per_sm,
                     count, path);
      std::size_t pos = 0;
      for (std::uint32_t r = 0; r < count; ++r) {
        acc.add(decode_record(payload.data(), payload.size(), pos, path));
      }
      if (pos != payload.size()) {
        fail("chunk payload has trailing bytes", path);
      }
      acc.stats.payload_bytes += payload.size();
    }
    acc.add_warp_records(e.records);
  }
  return acc.finish();
}

}  // namespace latdiv
