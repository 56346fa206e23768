// latdiv-sweep — unified experiment sweep CLI.
//
//   latdiv-sweep <manifest> [options]   run a named figure sweep
//   latdiv-sweep check CUR GOLD [...]   compare two artifacts
//   latdiv-sweep list                   list the known manifests
//
// Examples:
//   latdiv-sweep fig8 --quick --jobs $(nproc) --out BENCH_fig8.json
//   latdiv-sweep fig8 --filter bfs/ --seeds 3 --csv fig8.csv
//   latdiv-sweep fig8 --quick --check bench/golden/fig8_quick.json
//   latdiv-sweep check fig8_quick.json bench/golden/fig8_quick.json
//
// Exit codes: 0 success, 1 failed points or golden regression, 2 usage or
// I/O errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "exp/driver.hpp"

using namespace latdiv;
using namespace latdiv::exp;

namespace {

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: latdiv-sweep <manifest> [options]\n"
               "       latdiv-sweep check CURRENT.json GOLDEN.json "
               "[--default-tol R] [--tol METRIC=R]\n"
               "       latdiv-sweep list\n"
               "\n"
               "run options:\n"
               "  --cycles N        simulated DRAM cycles per point "
               "(default 50000)\n"
               "  --warmup N        warmup cycles excluded from IPC "
               "(default 5000)\n"
               "  --seed N          base workload seed (default 1)\n"
               "  --seeds N         independent trials per cell "
               "(default 1)\n"
               "  --quick           quarter-length smoke run\n"
               "  --filter S        keep only points whose id contains S\n"
               "  --jobs N          executor threads (default 1)\n"
               "  --out FILE        write the JSON artifact\n"
               "  --csv FILE        write the CSV artifact\n"
               "  --timings         include per-point wall_ms in the JSON "
               "(non-deterministic)\n"
               "  --profile         per-phase wall-clock, simulated "
               "Mcycles/s and peak RSS on stderr\n"
               "  --trace DIR       write per-point Chrome trace_event JSON "
               "into DIR (Perfetto-loadable)\n"
               "  --timeseries DIR  write per-point sampled time-series CSV "
               "into DIR\n"
               "  --attrib DIR      run the latency-attribution profiler and "
               "write per-point\n"
               "                    attribution JSON into DIR (adds attrib.* "
               "point metrics)\n"
               "  --sample-interval N\n"
               "                    time-series sampling epoch in DRAM "
               "cycles (default 500)\n"
               "  --snapshot DIR    write each point's final state to "
               "DIR/<id>.snap (latdiv-ckpt inspects)\n"
               "  --resume DIR      restore each point from DIR/<id>.snap "
               "before running\n"
               "  --sampling[=D,W,P]\n"
               "                    SMARTS interval sampling: D detailed / "
               "W warm-up cycles every P-cycle\n"
               "                    period (default 8000,4000,120000); "
               "reports estimate metrics\n"
               "  --quiet           no per-point progress on stderr\n"
               "  --check FILE      golden-check the artifact against FILE\n"
               "  --default-tol R   relative tolerance for --check "
               "(default 0.02)\n"
               "  --tol METRIC=R    per-metric relative tolerance "
               "(repeatable)\n");
}

std::uint64_t parse_u64(const char* flag, const char* text) {
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "latdiv-sweep: %s wants a number, got '%s'\n", flag,
                 text);
    std::exit(2);
  }
  return v;
}

/// "D,W,P" -> SamplingConfig{detail, warm, period}; bare --sampling
/// keeps the defaults.
latdiv::ckpt::SamplingConfig parse_sampling(const char* text) {
  latdiv::ckpt::SamplingConfig sc;
  if (text == nullptr || *text == '\0') return sc;
  char* end = nullptr;
  sc.detail_cycles = std::strtoull(text, &end, 10);
  if (end == text || *end != ',') {
    std::fprintf(stderr, "latdiv-sweep: --sampling wants D,W,P, got '%s'\n",
                 text);
    std::exit(2);
  }
  const char* p = end + 1;
  sc.warm_cycles = std::strtoull(p, &end, 10);
  if (end == p || *end != ',') {
    std::fprintf(stderr, "latdiv-sweep: --sampling wants D,W,P, got '%s'\n",
                 text);
    std::exit(2);
  }
  p = end + 1;
  sc.period_cycles = std::strtoull(p, &end, 10);
  if (end == p || *end != '\0' || sc.detail_cycles == 0 ||
      sc.period_cycles < sc.warm_cycles + sc.detail_cycles) {
    std::fprintf(stderr,
                 "latdiv-sweep: --sampling needs D > 0 and P >= W + D, "
                 "got '%s'\n",
                 text);
    std::exit(2);
  }
  return sc;
}

const char* next_arg(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "latdiv-sweep: %s needs a value\n", argv[i]);
    std::exit(2);
  }
  return argv[++i];
}

bool parse_tolerance_flags(int argc, char** argv, int& i,
                           GoldenOptions& golden) {
  if (std::strcmp(argv[i], "--default-tol") == 0) {
    golden.default_tol.rel =
        std::strtod(next_arg(argc, argv, i), nullptr);
    return true;
  }
  if (std::strcmp(argv[i], "--tol") == 0) {
    const std::string spec = next_arg(argc, argv, i);
    const std::size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0) {
      std::fprintf(stderr, "latdiv-sweep: --tol wants METRIC=REL, got '%s'\n",
                   spec.c_str());
      std::exit(2);
    }
    GoldenTolerance tol;
    tol.rel = std::strtod(spec.c_str() + eq + 1, nullptr);
    golden.per_metric[spec.substr(0, eq)] = tol;
    return true;
  }
  return false;
}

int cmd_list() {
  std::printf("manifests:\n");
  for (const std::string& name : manifest_names()) {
    std::printf("  %-8s %s\n", name.c_str(),
                manifest_summary(name).c_str());
  }
  return 0;
}

bool load_artifact(const char* path, Artifact& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "latdiv-sweep: cannot read '%s'\n", path);
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    out = artifact_from_json(buf.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "latdiv-sweep: bad artifact '%s': %s\n", path,
                 e.what());
    return false;
  }
  return true;
}

int cmd_check(int argc, char** argv) {
  GoldenOptions golden;
  const char* current_path = nullptr;
  const char* golden_path = nullptr;
  for (int i = 2; i < argc; ++i) {
    if (parse_tolerance_flags(argc, argv, i, golden)) continue;
    if (argv[i][0] == '-') {
      std::fprintf(stderr, "latdiv-sweep: unknown check option '%s'\n",
                   argv[i]);
      return 2;
    }
    if (current_path == nullptr) current_path = argv[i];
    else if (golden_path == nullptr) golden_path = argv[i];
    else {
      usage(stderr);
      return 2;
    }
  }
  if (current_path == nullptr || golden_path == nullptr) {
    usage(stderr);
    return 2;
  }
  Artifact current, baseline;
  if (!load_artifact(current_path, current) ||
      !load_artifact(golden_path, baseline)) {
    return 2;
  }
  return print_golden_report(check_golden(current, baseline, golden), stdout)
             ? 0
             : 1;
}

int cmd_run(const std::string& manifest, int argc, char** argv) {
  SweepRunArgs args;
  for (int i = 2; i < argc; ++i) {
    const char* flag = argv[i];
    if (std::strcmp(flag, "--cycles") == 0) {
      args.opts.cycles = parse_u64(flag, next_arg(argc, argv, i));
    } else if (std::strcmp(flag, "--warmup") == 0) {
      args.opts.warmup = parse_u64(flag, next_arg(argc, argv, i));
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.opts.seed = parse_u64(flag, next_arg(argc, argv, i));
    } else if (std::strcmp(flag, "--seeds") == 0) {
      args.opts.seeds =
          static_cast<std::uint32_t>(parse_u64(flag, next_arg(argc, argv, i)));
    } else if (std::strcmp(flag, "--quick") == 0) {
      args.opts.quick = true;
    } else if (std::strcmp(flag, "--filter") == 0) {
      args.opts.filter = next_arg(argc, argv, i);
    } else if (std::strcmp(flag, "--jobs") == 0) {
      args.opts.jobs =
          static_cast<unsigned>(parse_u64(flag, next_arg(argc, argv, i)));
    } else if (std::strcmp(flag, "--out") == 0) {
      args.out_json = next_arg(argc, argv, i);
    } else if (std::strcmp(flag, "--csv") == 0) {
      args.out_csv = next_arg(argc, argv, i);
    } else if (std::strcmp(flag, "--timings") == 0) {
      args.timings = true;
    } else if (std::strcmp(flag, "--profile") == 0) {
      args.profile = true;
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace_dir = next_arg(argc, argv, i);
    } else if (std::strcmp(flag, "--timeseries") == 0) {
      args.timeseries_dir = next_arg(argc, argv, i);
    } else if (std::strcmp(flag, "--attrib") == 0) {
      args.attrib_dir = next_arg(argc, argv, i);
    } else if (std::strcmp(flag, "--sample-interval") == 0) {
      args.sample_interval = parse_u64(flag, next_arg(argc, argv, i));
    } else if (std::strcmp(flag, "--snapshot") == 0) {
      args.snapshot_dir = next_arg(argc, argv, i);
    } else if (std::strcmp(flag, "--resume") == 0) {
      args.resume_dir = next_arg(argc, argv, i);
    } else if (std::strcmp(flag, "--sampling") == 0) {
      args.sampled = true;
      args.sampling = parse_sampling(nullptr);
    } else if (std::strncmp(flag, "--sampling=", 11) == 0) {
      args.sampled = true;
      args.sampling = parse_sampling(flag + 11);
    } else if (std::strcmp(flag, "--quiet") == 0) {
      args.progress = false;
    } else if (std::strcmp(flag, "--check") == 0) {
      args.check = next_arg(argc, argv, i);
    } else if (parse_tolerance_flags(argc, argv, i, args.golden)) {
      // handled
    } else if (std::strcmp(flag, "--help") == 0) {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "latdiv-sweep: unknown option '%s'\n", flag);
      usage(stderr);
      return 2;
    }
  }
  return run_manifest(manifest, args);
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
  if (cmd == "check") return cmd_check(argc, argv);
  return cmd_run(cmd, argc, argv);
}
