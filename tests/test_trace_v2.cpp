// Trace format v2 tests: byte determinism, streaming vs in-memory
// equivalence, rejection of the retired v1 layout, checkpoint
// cursors, scan_trace accounting, the malformed-input error catalogue,
// and the full-simulator round trip (generator-driven vs replayed runs
// must serialise to byte-identical metric JSON).
#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

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

/// Record `records` instructions of a scenario at 2x3 geometry with a
/// small chunk size, so streams span several chunks plus a partial one.
void write_scenario_trace(const std::string& path, std::uint64_t records,
                          std::uint32_t chunk = 8, std::uint64_t seed = 11) {
  const scenario::ScenarioSpec& spec =
      scenario::scenario_by_name("phase-shift");
  const auto source = scenario::make_scenario(spec, 2, 3, seed);
  TraceWriter writer(path, 2, 3, chunk);
  while (writer.records_written() < records) {
    for (SmId sm = 0; sm < 2; ++sm) {
      for (WarpId w = 0; w < 3; ++w) {
        writer.record(sm, w, source->next(sm, w));
      }
    }
  }
  writer.close();
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

TEST(TraceV2, StreamingMatchesInMemory) {
  const std::string path = temp_path("modes");
  write_scenario_trace(path, 200);
  TraceReplayer stream(path, ReplayMode::kStreaming);
  TraceReplayer mem(path, ReplayMode::kInMemory);
  EXPECT_TRUE(stream.streaming());
  EXPECT_FALSE(mem.streaming());
  EXPECT_EQ(stream.total_records(), mem.total_records());
  // 3 passes over every stream, so the comparison crosses the wrap.
  for (int i = 0; i < 120; ++i) {
    for (SmId sm = 0; sm < 2; ++sm) {
      for (WarpId w = 0; w < 3; ++w) {
        expect_instr_eq(stream.next(sm, w), mem.next(sm, w));
      }
    }
  }
  std::remove(path.c_str());
}

TEST(TraceV2, CursorCheckpointResumesExactStream) {
  const std::string path = temp_path("cursor");
  write_scenario_trace(path, 200);
  TraceReplayer first(path, ReplayMode::kStreaming);
  // Uneven progress per warp, past the wrap for warp (0,0).
  for (int i = 0; i < 41; ++i) (void)first.next(0, 0);
  for (int i = 0; i < 7; ++i) (void)first.next(1, 2);
  (void)first.next(0, 1);
  const std::vector<std::uint64_t> saved = first.cursor();
  EXPECT_EQ(saved.size(), 6u);

  TraceReplayer resumed(path, ReplayMode::kStreaming);
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

TEST(TraceV2, CursorRestoreWorksAcrossModes) {
  const std::string path = temp_path("cursor_mode");
  write_scenario_trace(path, 120);
  TraceReplayer stream(path, ReplayMode::kStreaming);
  for (int i = 0; i < 25; ++i) (void)stream.next(1, 1);
  // A streaming cursor restores into an in-memory replayer and vice
  // versa: positions are logical record indices, not file offsets.
  TraceReplayer mem(path, ReplayMode::kInMemory);
  mem.restore(stream.cursor());
  for (int i = 0; i < 50; ++i) {
    for (SmId sm = 0; sm < 2; ++sm) {
      for (WarpId w = 0; w < 3; ++w) {
        expect_instr_eq(mem.next(sm, w), stream.next(sm, w));
      }
    }
  }
  std::remove(path.c_str());
}

TEST(TraceV2, RestoreRejectsBadCursors) {
  const std::string path = temp_path("cursor_bad");
  write_scenario_trace(path, 60);
  TraceReplayer replay(path, ReplayMode::kStreaming);
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
  TraceReplayer replay(path, ReplayMode::kStreaming);
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

void expect_open_fails(const std::string& path, const char* needle,
                       ReplayMode mode = ReplayMode::kInMemory) {
  try {
    TraceReplayer r(path, mode);
    FAIL() << "expected TraceError mentioning '" << needle << "'";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
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
  expect_open_fails(path, "chunk CRC mismatch");
  // The streaming replayer opens lazily; the same corruption surfaces on
  // the first pull of the damaged warp instead.
  TraceReplayer stream(path, ReplayMode::kStreaming);
  EXPECT_THROW((void)stream.next(0, 0), TraceError);
  EXPECT_THROW((void)scan_trace(path), TraceError);
  std::remove(path.c_str());
}

TEST(TraceV2Error, IndexCrcMismatch) {
  const std::string path = temp_path("idx_crc");
  write_scenario_trace(path, 40);
  std::string bytes = read_bytes(path);
  bytes[bytes.size() - 10] ^= 0x04;  // inside the index body
  write_bytes(path, bytes);
  expect_open_fails(path, "index CRC mismatch");
  expect_open_fails(path, "index CRC mismatch", ReplayMode::kStreaming);
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
  expect_open_fails(path, "unsupported trace version", ReplayMode::kStreaming);
  expect_open_fails(path, "unsupported trace version", ReplayMode::kInMemory);
  try {
    (void)scan_trace(path);
    FAIL() << "scan_trace accepted a v1 file";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported trace version"),
              std::string::npos)
        << e.what();
  }
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

TEST(TraceV2Sim, StreamingAndInMemoryReplayRunsMatch) {
  const std::string path = temp_path("sim_modes");
  const scenario::ScenarioSpec& spec =
      scenario::scenario_by_name("powerlaw-rows");
  {
    const auto source = scenario::make_scenario(spec, 2, 4, 9);
    TraceWriter writer(path, 2, 4);
    RecordingSource rec(*source, writer);
    for (int i = 0; i < 400; ++i) {
      for (SmId sm = 0; sm < 2; ++sm) {
        for (WarpId w = 0; w < 4; ++w) (void)rec.next(sm, w);
      }
    }
  }
  // The simulator always opens traces in streaming mode; equivalence of
  // the decode paths is proven record-by-record here (the sim-level
  // equivalence then follows from RecordedReplayIsByteIdentical).
  TraceReplayer stream(path, ReplayMode::kStreaming);
  TraceReplayer mem(path, ReplayMode::kInMemory);
  for (int i = 0; i < 900; ++i) {
    for (SmId sm = 0; sm < 2; ++sm) {
      for (WarpId w = 0; w < 4; ++w) {
        expect_instr_eq(stream.next(sm, w), mem.next(sm, w));
      }
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace latdiv
