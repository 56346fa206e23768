// Trace format v2 tests: byte determinism, replay against the recorded
// stream, rejection of the retired v1 layout, checkpoint cursors,
// scan_trace accounting, the malformed-input error catalogue, a seeded
// mutation test of the decoder, and the full-simulator round trip
// (generator-driven vs replayed runs must serialise to byte-identical
// metric JSON).
#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.hpp"
#include "common/endian.hpp"
#include "common/rng.hpp"
#include "exp/executor.hpp"
#include "exp/json.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"

namespace latdiv {
namespace {

std::string temp_path(const char* tag) {
  return std::string(::testing::TempDir()) + "latdiv_v2_" + tag + ".trace";
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out) << path;
}

void expect_instr_eq(const WarpInstr& a, const WarpInstr& b) {
  ASSERT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind));
  ASSERT_EQ(a.latency, b.latency);
  ASSERT_EQ(a.active_lanes, b.active_lanes);
  for (std::uint32_t l = 0; l < a.active_lanes; ++l) {
    ASSERT_EQ(a.lane_addr[l], b.lane_addr[l]);
  }
}

/// Per-warp instruction streams in SM-major order.
using WarpStreams = std::vector<std::vector<WarpInstr>>;

/// Record `records` instructions of a scenario at 2x3 geometry with a
/// small chunk size, so streams span several chunks plus a partial one.
/// Returns what was recorded: the reference a replay must reproduce.
WarpStreams write_scenario_trace(const std::string& path,
                                 std::uint64_t records,
                                 std::uint32_t chunk = 8,
                                 std::uint64_t seed = 11) {
  const scenario::ScenarioSpec& spec =
      scenario::scenario_by_name("phase-shift");
  const auto source = scenario::make_scenario(spec, 2, 3, seed);
  TraceWriter writer(path, 2, 3, chunk);
  WarpStreams recorded(6);
  while (writer.records_written() < records) {
    for (SmId sm = 0; sm < 2; ++sm) {
      for (WarpId w = 0; w < 3; ++w) {
        recorded[sm * 3u + w].push_back(source->next(sm, w));
        writer.record(sm, w, recorded[sm * 3u + w].back());
      }
    }
  }
  writer.close();
  return recorded;
}

TEST(TraceV2, SameInputsProduceByteIdenticalFiles) {
  const std::string a = temp_path("det_a");
  const std::string b = temp_path("det_b");
  write_scenario_trace(a, 300);
  write_scenario_trace(b, 300);
  const std::string bytes_a = read_bytes(a);
  EXPECT_GT(bytes_a.size(), 40u);
  EXPECT_EQ(bytes_a, read_bytes(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(TraceV2, ReplayMatchesRecordedStream) {
  const std::string path = temp_path("recorded");
  const WarpStreams recorded = write_scenario_trace(path, 200);
  TraceReplayer replay(path);
  EXPECT_EQ(replay.total_records(), 204u);  // whole rounds of 6 warps
  // 3 passes over every 34-record stream, so the comparison crosses the
  // wrap twice.
  for (std::size_t i = 0; i < 102; ++i) {
    for (SmId sm = 0; sm < 2; ++sm) {
      for (WarpId w = 0; w < 3; ++w) {
        const std::vector<WarpInstr>& want = recorded[sm * 3u + w];
        expect_instr_eq(replay.next(sm, w), want[i % want.size()]);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(TraceV2, CursorCheckpointResumesExactStream) {
  const std::string path = temp_path("cursor");
  write_scenario_trace(path, 200);
  TraceReplayer first(path);
  // Uneven progress per warp, past the wrap for warp (0,0).
  for (int i = 0; i < 41; ++i) (void)first.next(0, 0);
  for (int i = 0; i < 7; ++i) (void)first.next(1, 2);
  (void)first.next(0, 1);
  const std::vector<std::uint64_t> saved = first.cursor();
  EXPECT_EQ(saved.size(), 6u);

  TraceReplayer resumed(path);
  resumed.restore(saved);
  for (int i = 0; i < 60; ++i) {
    for (SmId sm = 0; sm < 2; ++sm) {
      for (WarpId w = 0; w < 3; ++w) {
        expect_instr_eq(resumed.next(sm, w), first.next(sm, w));
      }
    }
  }
  std::remove(path.c_str());
}

TEST(TraceV2, CursorRestoresToRecordedPosition) {
  const std::string path = temp_path("cursor_recorded");
  const WarpStreams recorded = write_scenario_trace(path, 120);
  TraceReplayer first(path);
  for (int i = 0; i < 25; ++i) (void)first.next(1, 1);  // past the wrap
  // Positions are logical record indices, not file offsets: a restored
  // replayer continues at recorded[warp][position], mid-chunk included.
  const std::vector<std::uint64_t> cursor = first.cursor();
  EXPECT_EQ(cursor[4], 25u % recorded[4].size());
  TraceReplayer resumed(path);
  resumed.restore(cursor);
  for (std::size_t i = 0; i < 50; ++i) {
    for (SmId sm = 0; sm < 2; ++sm) {
      for (WarpId w = 0; w < 3; ++w) {
        const std::size_t wi = sm * 3u + w;
        const std::vector<WarpInstr>& want = recorded[wi];
        expect_instr_eq(resumed.next(sm, w),
                        want[(cursor[wi] + i) % want.size()]);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(TraceV2, RestoreRejectsBadCursors) {
  const std::string path = temp_path("cursor_bad");
  write_scenario_trace(path, 60);
  TraceReplayer replay(path);
  EXPECT_THROW(replay.restore(std::vector<std::uint64_t>(5, 0)), TraceError);
  std::vector<std::uint64_t> beyond(6, 0);
  beyond[0] = 1u << 20;  // far past the stream length
  EXPECT_THROW(replay.restore(beyond), TraceError);
  std::remove(path.c_str());
}

TEST(TraceV2, EmptyTraceOpensAndIdles) {
  const std::string path = temp_path("empty");
  {
    TraceWriter writer(path, 1, 2);
    writer.close();
  }
  TraceReplayer replay(path);
  EXPECT_EQ(replay.version(), 2u);
  EXPECT_EQ(replay.total_records(), 0u);
  const WarpInstr idle = replay.next(0, 1);
  EXPECT_EQ(static_cast<int>(idle.kind),
            static_cast<int>(WarpInstr::Kind::kCompute));
  std::remove(path.c_str());
}

TEST(TraceV2, ScanTraceAccountsEveryRecord) {
  const std::string path = temp_path("scan");
  write_scenario_trace(path, 300, /*chunk=*/16);
  const TraceStats st = scan_trace(path);
  EXPECT_EQ(st.version, 2u);
  EXPECT_EQ(st.sms, 2u);
  EXPECT_EQ(st.warps_per_sm, 3u);
  EXPECT_EQ(st.chunk_records, 16u);
  EXPECT_EQ(st.total_records, 300u);
  EXPECT_EQ(st.computes + st.loads + st.stores, 300u);
  EXPECT_GT(st.loads + st.stores, 0u);
  EXPECT_GT(st.distinct_lines, 0u);
  EXPECT_EQ(st.active_warps, 6u);
  EXPECT_EQ(st.min_warp_records, 50u);
  EXPECT_EQ(st.max_warp_records, 50u);
  // 50 records per warp at 16/chunk -> 4 chunks per warp.
  EXPECT_EQ(st.chunks, 6u * 4u);
  EXPECT_EQ(st.file_bytes, read_bytes(path).size());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Error catalogue: every corruption class maps to a TraceError with a
// specific message, never silent UB.

template <class Fn>
void expect_trace_error(Fn&& fn, const char* needle) {
  try {
    fn();
    FAIL() << "expected TraceError mentioning '" << needle << "'";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

void expect_open_fails(const std::string& path, const char* needle) {
  expect_trace_error([&] { TraceReplayer r(path); }, needle);
}

void expect_scan_fails(const std::string& path, const char* needle) {
  expect_trace_error([&] { (void)scan_trace(path); }, needle);
}

TEST(TraceV2Error, TruncatedHeader) {
  const std::string path = temp_path("trunc_hdr");
  const std::string full = temp_path("trunc_hdr_full");
  write_scenario_trace(full, 40);
  write_bytes(path, read_bytes(full).substr(0, 20));
  expect_open_fails(path, "truncated or unreadable");
  std::remove(path.c_str());
  std::remove(full.c_str());
}

TEST(TraceV2Error, HeaderCrcMismatch) {
  const std::string path = temp_path("hdr_crc");
  write_scenario_trace(path, 40);
  std::string bytes = read_bytes(path);
  bytes[12] = static_cast<char>(bytes[12] ^ 0x40);  // corrupt the geometry
  write_bytes(path, bytes);
  expect_open_fails(path, "header CRC mismatch");
  std::remove(path.c_str());
}

TEST(TraceV2Error, ChunkCrcMismatch) {
  const std::string path = temp_path("chunk_crc");
  write_scenario_trace(path, 40);
  std::string bytes = read_bytes(path);
  // First chunk payload starts after the 40B header + 16B chunk header.
  bytes[60] = static_cast<char>(bytes[60] ^ 0x01);
  write_bytes(path, bytes);
  expect_scan_fails(path, "chunk CRC mismatch");
  // The replayer reads chunks on demand: it opens, and the corruption
  // surfaces on the first pull of the damaged warp.
  TraceReplayer replay(path);
  expect_trace_error([&] { (void)replay.next(0, 0); }, "chunk CRC mismatch");
  std::remove(path.c_str());
}

TEST(TraceV2Error, IndexCrcMismatch) {
  const std::string path = temp_path("idx_crc");
  write_scenario_trace(path, 40);
  std::string bytes = read_bytes(path);
  bytes[bytes.size() - 10] ^= 0x04;  // inside the index body
  write_bytes(path, bytes);
  expect_open_fails(path, "index CRC mismatch");
  expect_scan_fails(path, "index CRC mismatch");
  std::remove(path.c_str());
}

// An index entry claiming 2^64-1 records in 0 chunks, with the header
// total and every CRC consistent.  The ceil-division (records + c - 1) / c
// wraps to 0 for it, which would accept the entry and leave the first
// next() reading a chunk offset from an empty list.
TEST(TraceV2Error, IndexRecordCountWraps) {
  const std::string path = temp_path("idx_wrap");
  constexpr std::uint64_t kRecords = ~std::uint64_t{0};
  std::string bytes(60, '\0');
  auto* p = reinterpret_cast<unsigned char*>(bytes.data());
  std::memcpy(p, "LDTR", 4);
  put_le32(p + 4, kTraceVersion);
  put_le32(p + 8, 1);   // sms
  put_le32(p + 12, 1);  // warps per SM
  put_le32(p + 16, kTraceChunkRecords);
  put_le64(p + 20, kRecords);  // header total == the index's sum
  put_le64(p + 28, 40);        // index right after the header
  put_le32(p + 36, crc32(p, 36));
  std::memcpy(p + 40, "LDIX", 4);
  put_le64(p + 44, kRecords);
  put_le32(p + 52, 0);  // chunk count
  put_le32(p + 56, crc32(p + 44, 12));
  write_bytes(path, bytes);
  expect_scan_fails(path, "index chunk count mismatch");
  expect_open_fails(path, "index chunk count mismatch");
  std::remove(path.c_str());
}

TEST(TraceV2Error, TruncatedFileLosesIndex) {
  const std::string path = temp_path("trunc_tail");
  write_scenario_trace(path, 40);
  const std::string bytes = read_bytes(path);
  write_bytes(path, bytes.substr(0, bytes.size() - 25));
  EXPECT_THROW({ TraceReplayer r(path); }, TraceError);
  std::remove(path.c_str());
}

TEST(TraceV2Error, UnsupportedVersion) {
  const std::string path = temp_path("version");
  write_scenario_trace(path, 40);
  std::string bytes = read_bytes(path);
  bytes[4] = 3;  // version field (LE low byte)
  write_bytes(path, bytes);
  expect_open_fails(path, "unsupported trace version");
  std::remove(path.c_str());
}

// The host-order v1 layout ("LDTR", u32 version=1, u32 sms, u32 warps,
// flat records) is no longer read: a well-formed v1 file fails like any
// other unknown version, in the replayer and in the full-file scan.
TEST(TraceV1, HeaderFailsAsUnsupportedVersion) {
  const std::string path = temp_path("v1");
  std::string raw = "LDTR";
  for (const std::uint32_t field : {1u, 1u, 1u}) {  // version, sms, warps
    raw.append(reinterpret_cast<const char*>(&field), sizeof field);
  }
  raw.append(12, '\0');  // one compute record: sm, warp, kind, lanes, latency
  write_bytes(path, raw);
  expect_open_fails(path, "unsupported trace version");
  expect_scan_fails(path, "unsupported trace version");
  std::remove(path.c_str());
}

TEST(TraceV2Error, WriterRejectsBadInputs) {
  EXPECT_THROW(
      { TraceWriter w("/nonexistent_dir_xyz/t.trace", 1, 1); }, TraceError);
  const std::string path = temp_path("writer");
  EXPECT_THROW({ TraceWriter w(path, 0, 4); }, TraceError);
  EXPECT_THROW({ TraceWriter w(path, 4, 4, 0); }, TraceError);
  {
    TraceWriter w(path, 1, 1);
    WarpInstr instr;
    EXPECT_THROW(w.record(2, 0, instr), TraceError);  // outside geometry
    w.close();
  }
  std::remove(path.c_str());
}

// Chunk headers carry u16 sm / u16 warp ids: a geometry past 65536 in
// either dimension would wrap SM 65536 onto SM 0's stream, so it is
// refused when writing and when reading a header that claims it.
TEST(TraceV2, WriterRejectsGeometryAboveU16Ids) {
  const std::string path = temp_path("big_geom_writer");
  for (const auto& [sms, warps] :
       {std::pair{65537u, 1u}, std::pair{1u, 65537u}}) {
    try {
      TraceWriter w(path, sms, warps);
      FAIL() << "writer accepted " << sms << " x " << warps;
    } catch (const TraceError& e) {
      EXPECT_NE(std::string(e.what()).find("invalid trace geometry"),
                std::string::npos)
          << e.what();
    }
  }
  TraceWriter edge(path, 65536, 1);  // the largest SM id still fits
  edge.close();
  std::remove(path.c_str());
}

TEST(TraceV2, ReadersRejectGeometryAboveU16Ids) {
  const std::string path = temp_path("big_geom_reader");
  for (const auto& [sms, warps] :
       {std::pair{65537u, 1u}, std::pair{1u, 65537u}}) {
    write_scenario_trace(path, 40);
    std::string bytes = read_bytes(path);
    auto* hdr = reinterpret_cast<unsigned char*>(bytes.data());
    put_le32(hdr + 8, sms);
    put_le32(hdr + 12, warps);
    put_le32(hdr + 36, crc32(hdr, 36));  // a well-formed header otherwise
    write_bytes(path, bytes);
    expect_open_fails(path, "invalid trace geometry");
    expect_scan_fails(path, "invalid trace geometry");
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Seeded mutation test of the one trace decoder.  Each mutant changes one
// header field, index entry, chunk-header field, record field or payload
// byte of a small trace, then every CRC is re-sealed over the original
// layout so the mutant reaches the field checks behind the CRCs.  Every
// mutant must fail with TraceError or replay cleanly, and scan_trace and a
// replay that reaches every record must agree on which.  Any other
// exception fails the test, and an abort fails the whole binary.

struct Span {
  std::size_t at = 0;
  std::size_t width = 0;
};

/// Where the mutable fields of a well-formed trace sit.
struct TraceLayout {
  std::vector<Span> fields;    ///< header, index and chunk-header fields
  std::vector<Span> records;   ///< kind, lane count and latency per record
  std::vector<Span> payloads;  ///< chunk payloads (CRC follows each)
  std::size_t index_at = 0;
};

TraceLayout layout_of(const std::string& bytes) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  TraceLayout l;
  // magic, version, sms, warps_per_sm, chunk_records; total, index_offset
  for (const std::size_t at : {0, 4, 8, 12, 16}) l.fields.push_back({at, 4});
  l.fields.push_back({20, 8});
  l.fields.push_back({28, 8});
  l.index_at = get_le64(p + 28);
  l.fields.push_back({l.index_at, 4});
  std::size_t pos = l.index_at + 4;
  while (pos < bytes.size() - 4) {
    l.fields.push_back({pos, 8});      // record count
    l.fields.push_back({pos + 8, 4});  // chunk count
    const std::uint32_t chunks = get_le32(p + pos + 8);
    pos += 12;
    for (std::uint32_t c = 0; c < chunks; ++c, pos += 8) {
      l.fields.push_back({pos, 8});  // chunk offset
      const std::size_t chunk = get_le64(p + pos);
      // magic, sm, warp, record count, payload bytes
      for (const auto& [at, width] :
           {std::pair{0, 4}, {4, 2}, {6, 2}, {8, 4}, {12, 4}}) {
        l.fields.push_back({chunk + at, static_cast<std::size_t>(width)});
      }
      const Span payload{chunk + 16, get_le32(p + chunk + 12)};
      l.payloads.push_back(payload);
      for (std::size_t r = payload.at; r < payload.at + payload.width;) {
        l.records.push_back({r, 1});      // kind
        l.records.push_back({r + 1, 1});  // active lanes
        l.records.push_back({r + 2, 4});  // latency
        r += 6 + (p[r] == 0 ? 0 : 8u * p[r + 1]);  // compute has no lanes
      }
    }
  }
  return l;
}

/// Overwrite the little-endian field `f` with a bit flip of it, 0, all
/// ones, a near neighbour or a random value.
void mutate_field(unsigned char* p, const Span& f, Rng& rng) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < f.width; ++i) {
    v |= std::uint64_t{p[f.at + i]} << (8 * i);
  }
  switch (rng.below(5)) {
    case 0: v ^= std::uint64_t{1} << rng.below(8 * f.width); break;
    case 1: v = 0; break;
    case 2: v = ~std::uint64_t{0}; break;
    case 3: v += rng.below(17) - 8; break;  // mod 2^64
    default: v = rng.next(); break;
  }
  for (std::size_t i = 0; i < f.width; ++i) {
    p[f.at + i] = static_cast<unsigned char>(v >> (8 * i));
  }
}

/// One mutation: a structural field, a record field, or any payload byte
/// (mostly lane addresses), a third of the time each.
void mutate(std::string& bytes, const TraceLayout& l, Rng& rng) {
  auto* p = reinterpret_cast<unsigned char*>(bytes.data());
  switch (rng.below(3)) {
    case 0:
      mutate_field(p, l.fields[rng.below(l.fields.size())], rng);
      break;
    case 1:
      mutate_field(p, l.records[rng.below(l.records.size())], rng);
      break;
    default: {
      const Span& payload = l.payloads[rng.below(l.payloads.size())];
      mutate_field(p, {payload.at + rng.below(payload.width), 1}, rng);
      break;
    }
  }
}

/// Re-stamp every CRC over the original layout.
void reseal(std::string& bytes, const TraceLayout& l) {
  auto* p = reinterpret_cast<unsigned char*>(bytes.data());
  for (const Span& payload : l.payloads) {
    put_le32(p + payload.at + payload.width,
             crc32(p + payload.at, payload.width));
  }
  put_le32(p + bytes.size() - 4,
           crc32(p + l.index_at + 4, bytes.size() - l.index_at - 8));
  put_le32(p + 36, crc32(p, 36));
}

/// True if `fn` returns, false on TraceError; any other exception is a
/// test failure.
template <class Fn>
bool runs_clean(Fn&& fn, int mutant) {
  try {
    fn();
    return true;
  } catch (const TraceError&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "mutant " << mutant << ": not a TraceError: " << e.what();
    return false;
  }
}

TEST(TraceV2Fuzz, SealedMutantsFailWithTraceErrorOrReplay) {
  constexpr int kMutants = 3000;
  constexpr int kPullsPerWarp = 40;  // 2.5 passes: every record is reached
  const std::string path = temp_path("fuzz");
  (void)write_scenario_trace(path, 96);  // 6 warps x 16 records, 2 chunks
  const std::string good = read_bytes(path);
  const TraceLayout layout = layout_of(good);
  ASSERT_EQ(layout.payloads.size(), 12u);
  ASSERT_EQ(layout.records.size(), 3u * 96u);

  Rng rng(0x5eed);
  int rejected = 0;
  for (int m = 0; m < kMutants; ++m) {
    std::string bytes = good;
    mutate(bytes, layout, rng);
    reseal(bytes, layout);
    write_bytes(path, bytes);
    const bool scanned = runs_clean([&] { (void)scan_trace(path); }, m);
    const bool replayed = runs_clean(
        [&] {
          TraceReplayer replay(path);
          for (int i = 0; i < kPullsPerWarp; ++i) {
            for (std::uint32_t sm = 0; sm < replay.sms(); ++sm) {
              for (std::uint32_t w = 0; w < replay.warps_per_sm(); ++w) {
                (void)replay.next(static_cast<SmId>(sm),
                                  static_cast<WarpId>(w));
              }
            }
          }
        },
        m);
    ASSERT_EQ(scanned, replayed) << "mutant " << m;
    if (!replayed) ++rejected;
  }
  // Both outcomes occur: the checks fire, and benign mutants (a latency,
  // a lane address) replay.
  EXPECT_GT(rejected, kMutants / 4);
  EXPECT_LT(rejected, kMutants - kMutants / 10);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Full-simulator round trip: a scenario-driven run and its
// RecordingSource -> TraceReplayer rerun must serialise to byte-identical
// metric JSON (the artifact serialisation the sweep engine commits).

std::string metrics_json(const RunResult& r) {
  exp::JsonValue obj{exp::JsonValue::Object{}};
  for (const auto& [key, value] : exp::metrics_from(r)) {
    obj.set(key, exp::JsonValue{value});
  }
  return obj.dump();
}

TEST(TraceV2Sim, RecordedReplayIsByteIdentical) {
  const std::string path = temp_path("sim_rt");
  const scenario::ScenarioSpec& spec =
      scenario::scenario_by_name("threshold-compact");
  SimConfig cfg;
  cfg.shrink_for_tests();
  cfg.scheduler = SchedulerKind::kWgW;
  cfg.workload.name = spec.name;
  cfg.instr_source = [&spec](std::uint32_t sms, std::uint32_t warps,
                             std::uint64_t seed) {
    return scenario::make_scenario(spec, sms, warps, seed);
  };
  cfg.record_trace_path = path;
  const RunResult live = Simulator(cfg).run();

  SimConfig replay_cfg = cfg;
  replay_cfg.instr_source = nullptr;
  replay_cfg.record_trace_path.clear();
  replay_cfg.replay_trace_path = path;
  const RunResult replayed = Simulator(replay_cfg).run();

  EXPECT_EQ(metrics_json(live), metrics_json(replayed));
  EXPECT_GT(live.instructions, 100u);
  std::remove(path.c_str());
}

TEST(TraceV2Sim, ReplayMatchesRecordingSourceAcrossWrap) {
  const std::string path = temp_path("sim_recorded");
  const scenario::ScenarioSpec& spec =
      scenario::scenario_by_name("powerlaw-rows");
  constexpr std::size_t kPerWarp = 400;
  WarpStreams recorded(8);
  {
    const auto source = scenario::make_scenario(spec, 2, 4, 9);
    TraceWriter writer(path, 2, 4);
    RecordingSource rec(*source, writer);
    for (std::size_t i = 0; i < kPerWarp; ++i) {
      for (SmId sm = 0; sm < 2; ++sm) {
        for (WarpId w = 0; w < 4; ++w) {
          recorded[sm * 4u + w].push_back(rec.next(sm, w));
        }
      }
    }
  }
  // What the RecordingSource handed out is the reference, record by
  // record over 2.25 passes with the default chunk size (the sim-level
  // equivalence then follows from RecordedReplayIsByteIdentical).
  TraceReplayer replay(path);
  for (std::size_t i = 0; i < 900; ++i) {
    for (SmId sm = 0; sm < 2; ++sm) {
      for (WarpId w = 0; w < 4; ++w) {
        expect_instr_eq(replay.next(sm, w),
                        recorded[sm * 4u + w][i % kPerWarp]);
      }
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace latdiv
