// latdiv-tracegen — generate, inspect and replay binary instruction
// traces (workload/trace.hpp, format v2).
//
//   latdiv-tracegen list                          scenario catalogue
//   latdiv-tracegen generate SCENARIO --out FILE  capture a microkernel
//       [--sms N] [--warps N] [--records N] [--seed N] [--chunk N]
//   latdiv-tracegen inspect FILE                  header + geometry
//   latdiv-tracegen validate FILE                 full decode + CRC check
//   latdiv-tracegen stats FILE                    access-pattern breakdown
//   latdiv-tracegen replay FILE [--policy P] [--cycles N]
//                                                 run the simulator on it
//
// generate pulls warps round-robin, but since scenario streams are
// strictly per-warp the captured trace is independent of pull order:
// the same (scenario, geometry, seed) always produces the same bytes —
// CI pins sha256s of the generated library.
//
// Exit codes: 0 ok, 1 invalid trace / failed run, 2 usage or I/O errors.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cli.hpp"
#include "exp/executor.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "workload/trace.hpp"

using namespace latdiv;

namespace {

constexpr const char* kTool = "latdiv-tracegen";

void usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: latdiv-tracegen list\n"
      "       latdiv-tracegen generate SCENARIO --out FILE [--sms N]\n"
      "                       [--warps N] [--records N] [--seed N] "
      "[--chunk N]\n"
      "       latdiv-tracegen inspect FILE\n"
      "       latdiv-tracegen validate FILE\n"
      "       latdiv-tracegen stats FILE\n"
      "       latdiv-tracegen replay FILE [--policy P] [--cycles N] "
      "[--warmup N]\n"
      "                       [--seed N]\n"
      "\n"
      "  list      print the scenario catalogue\n"
      "  generate  capture a scenario microkernel to a v2 trace\n"
      "  inspect   decode and print the trace geometry summary\n"
      "  validate  full decode: header/index/chunk CRCs, every record\n"
      "  stats     access-pattern breakdown (kind mix, lanes, lines)\n"
      "  replay    drive a full simulation from the trace\n");
}

int cmd_list() {
  std::printf("scenarios:\n");
  for (const scenario::ScenarioSpec& s : scenario::scenario_catalog()) {
    std::printf("  %-18s %s\n", s.name.c_str(), s.summary.c_str());
  }
  return 0;
}

int cmd_generate(int argc, char** argv) {
  if (argc < 3) {
    usage(stderr);
    return 2;
  }
  const std::string name = argv[2];
  std::string out;
  std::uint32_t sms = 4;
  std::uint32_t warps = 8;
  std::uint64_t records = 100'000;
  std::uint64_t seed = 1;
  std::uint32_t chunk = kTraceChunkRecords;
  for (int i = 3; i < argc; ++i) {
    const char* flag = argv[i];
    const auto value = [&] { return cli::next_arg(kTool, argc, argv, i); };
    if (std::strcmp(flag, "--out") == 0) {
      out = value();
    } else if (std::strcmp(flag, "--sms") == 0) {
      cli::next_uint(kTool, argc, argv, i, sms);
    } else if (std::strcmp(flag, "--warps") == 0) {
      cli::next_uint(kTool, argc, argv, i, warps);
    } else if (std::strcmp(flag, "--records") == 0) {
      cli::next_uint(kTool, argc, argv, i, records);
    } else if (std::strcmp(flag, "--seed") == 0) {
      cli::next_uint(kTool, argc, argv, i, seed);
    } else if (std::strcmp(flag, "--chunk") == 0) {
      cli::next_uint(kTool, argc, argv, i, chunk);
    } else {
      std::fprintf(stderr, "latdiv-tracegen: unknown option '%s'\n", flag);
      return 2;
    }
  }
  if (out.empty() || sms == 0 || warps == 0 || records == 0) {
    std::fprintf(stderr,
                 "latdiv-tracegen: generate needs --out and a nonzero "
                 "geometry / record count\n");
    return 2;
  }
  try {
    const scenario::ScenarioSpec& spec = scenario::scenario_by_name(name);
    // The writer bounds the geometry before the scenario allocates its
    // per-warp state.
    TraceWriter writer(out, sms, warps, chunk);
    const auto source = scenario::make_scenario(spec, sms, warps, seed);
    while (writer.records_written() < records) {
      for (std::uint32_t sm = 0; sm < sms; ++sm) {
        for (std::uint32_t w = 0; w < warps; ++w) {
          writer.record(static_cast<SmId>(sm), static_cast<WarpId>(w),
                        source->next(static_cast<SmId>(sm),
                                     static_cast<WarpId>(w)));
        }
      }
    }
    const std::uint64_t written = writer.records_written();
    writer.close();
    std::printf("wrote %" PRIu64 " records (%s, %ux%u warps, seed %" PRIu64
                ") to %s\n",
                written, spec.name.c_str(), sms, warps, seed, out.c_str());
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "latdiv-tracegen: %s\n", e.what());
    return 2;
  } catch (const TraceError& e) {
    std::fprintf(stderr, "latdiv-tracegen: %s\n", e.what());
    return 2;
  }
  return 0;
}

int scan_and(const char* path, bool full_stats) {
  TraceStats st;
  try {
    st = scan_trace(path);
  } catch (const TraceError& e) {
    std::fprintf(stderr, "latdiv-tracegen: %s\n", e.what());
    return 1;
  }
  std::printf("trace: %s\n", path);
  std::printf("  version      : v%u\n", st.version);
  std::printf("  geometry     : %u SMs x %u warps\n", st.sms,
              st.warps_per_sm);
  std::printf("  records      : %" PRIu64 " total, %" PRIu64
              " active warps (min %" PRIu64 " / max %" PRIu64
              " per warp)\n",
              st.total_records, st.active_warps, st.min_warp_records,
              st.max_warp_records);
  std::printf("  chunks       : %" PRIu64 " of <= %u records\n", st.chunks,
              st.chunk_records);
  std::printf("  file bytes   : %" PRIu64 " (%" PRIu64 " record payload)\n",
              st.file_bytes, st.payload_bytes);
  if (full_stats) {
    std::printf("  kind mix     : %" PRIu64 " compute / %" PRIu64
                " load / %" PRIu64 " store (%.1f%% memory)\n",
                st.computes, st.loads, st.stores, 100.0 * st.mem_frac());
    std::printf("  mem lanes    : %" PRIu64 " total, %.1f per memory instr\n",
                st.mem_lanes, st.lanes_per_mem());
    std::printf("  distinct 128B lines: %" PRIu64 "\n", st.distinct_lines);
    std::printf("  mean compute latency: %.1f cycles\n",
                st.mean_compute_latency);
  }
  return 0;
}

int cmd_validate(const char* path) {
  TraceStats st;
  try {
    st = scan_trace(path);
  } catch (const TraceError& e) {
    std::fprintf(stderr, "latdiv-tracegen: %s\n", e.what());
    return 1;
  }
  std::printf("valid: v%u trace, %" PRIu64 " records, %u x %u warps\n",
              st.version, st.total_records, st.sms, st.warps_per_sm);
  return 0;
}

SchedulerKind parse_policy(const char* name) {
  static constexpr SchedulerKind kAll[] = {
      SchedulerKind::kFcfs,   SchedulerKind::kFrFcfs,
      SchedulerKind::kGmc,    SchedulerKind::kWafcfs,
      SchedulerKind::kSbwas,  SchedulerKind::kWg,
      SchedulerKind::kWgM,    SchedulerKind::kWgBw,
      SchedulerKind::kWgW,    SchedulerKind::kWgShared,
      SchedulerKind::kZld};
  for (const SchedulerKind kind : kAll) {
    if (std::strcmp(name, to_string(kind)) == 0) return kind;
  }
  std::fprintf(stderr, "latdiv-tracegen: unknown policy '%s' (want", name);
  for (const SchedulerKind kind : kAll) {
    std::fprintf(stderr, " %s", to_string(kind));
  }
  std::fprintf(stderr, ")\n");
  std::exit(2);
}

int cmd_replay(int argc, char** argv) {
  if (argc < 3) {
    usage(stderr);
    return 2;
  }
  const char* path = argv[2];
  SchedulerKind policy = SchedulerKind::kGmc;
  Cycle cycles = 50'000;
  Cycle warmup = 5'000;
  std::uint64_t seed = 1;
  for (int i = 3; i < argc; ++i) {
    const char* flag = argv[i];
    const auto value = [&] { return cli::next_arg(kTool, argc, argv, i); };
    if (std::strcmp(flag, "--policy") == 0) {
      policy = parse_policy(value());
    } else if (std::strcmp(flag, "--cycles") == 0) {
      cli::next_uint(kTool, argc, argv, i, cycles);
    } else if (std::strcmp(flag, "--warmup") == 0) {
      cli::next_uint(kTool, argc, argv, i, warmup);
    } else if (std::strcmp(flag, "--seed") == 0) {
      cli::next_uint(kTool, argc, argv, i, seed);
    } else {
      std::fprintf(stderr, "latdiv-tracegen: unknown option '%s'\n", flag);
      return 2;
    }
  }
  try {
    // Probe the header/index for the geometry; the simulator then opens
    // its own replayer.
    std::uint32_t sms = 0;
    std::uint32_t warps = 0;
    {
      const TraceReplayer probe(path);
      sms = probe.sms();
      warps = probe.warps_per_sm();
    }
    SimConfig cfg;
    cfg.num_sms = sms;
    cfg.sm.warps = warps;
    cfg.scheduler = policy;
    cfg.seed = seed;
    cfg.max_cycles = cycles;
    cfg.warmup_cycles = warmup < cycles ? warmup : cycles / 10;
    cfg.replay_trace_path = path;
    cfg.workload.name = "trace";
    const RunResult r = Simulator(cfg).run();
    std::printf("replayed %s under %s for %" PRIu64 " cycles\n", path,
                to_string(policy), cycles);
    for (const auto& [key, value] : exp::metrics_from(r)) {
      std::printf("  %-24s %.6g\n", key.c_str(), value);
    }
  } catch (const TraceError& e) {
    std::fprintf(stderr, "latdiv-tracegen: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "help") {
    usage(stdout);
    return 0;
  }
  if (cmd == "list") return cmd_list();
  if (cmd == "generate") return cmd_generate(argc, argv);
  if (cmd == "inspect" && argc == 3) return scan_and(argv[2], false);
  if (cmd == "validate" && argc == 3) return cmd_validate(argv[2]);
  if (cmd == "stats" && argc == 3) return scan_and(argv[2], true);
  if (cmd == "replay") return cmd_replay(argc, argv);
  usage(stderr);
  return 2;
}
