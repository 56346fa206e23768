// latdiv-sweep — unified experiment sweep CLI.
//
//   latdiv-sweep <manifest> [options]   run a named figure sweep
//   latdiv-sweep list                   list the known manifests
//
// Examples:
//   latdiv-sweep fig8 --quick --jobs $(nproc) --out BENCH_fig8.json
//   latdiv-sweep fig8 --filter bfs/ --seeds 3 --csv fig8.csv
//
// Artifacts are compared with `cmp` (goldens are byte-exact) or with
// latdiv-report (tolerances).
//
// Exit codes: 0 success, 1 failed points, 2 usage or I/O errors.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cli.hpp"
#include "exp/driver.hpp"

using namespace latdiv;
using namespace latdiv::exp;

namespace {

constexpr const char* kTool = "latdiv-sweep";

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: latdiv-sweep <manifest> [options]\n"
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
               "  --quiet           no per-point progress on stderr\n");
}

/// "D,W,P" -> SamplingConfig{detail, warm, period}; bare --sampling
/// keeps the defaults.  Each field follows cli::parse_uint, and the
/// schedule check cannot wrap: W + D <= P is tested as D <= P - W.
latdiv::ckpt::SamplingConfig parse_sampling(const char* text) {
  latdiv::ckpt::SamplingConfig sc;
  if (text == nullptr || *text == '\0') return sc;
  const auto fail = [text](const char* why) {
    std::fprintf(stderr, "latdiv-sweep: --sampling %s, got '%s'\n", why,
                 text);
    std::exit(2);
  };
  Cycle* const fields[] = {&sc.detail_cycles, &sc.warm_cycles,
                           &sc.period_cycles};
  const char* p = text;
  for (Cycle* field : fields) {
    const bool last = field == fields[2];
    const char* comma = std::strchr(p, ',');
    if ((comma == nullptr) != last) fail("wants D,W,P");
    const std::string value = last ? std::string(p) : std::string(p, comma);
    const cli::UintParse parsed =
        cli::parse_uint(value.c_str(), ~Cycle{0}, *field);
    if (parsed == cli::UintParse::kNotNumber) fail("wants D,W,P");
    if (parsed == cli::UintParse::kOutOfRange) fail("field is out of range");
    if (!last) p = comma + 1;
  }
  if (sc.detail_cycles == 0 || sc.warm_cycles > sc.period_cycles ||
      sc.detail_cycles > sc.period_cycles - sc.warm_cycles) {
    fail("needs D > 0 and P >= W + D");
  }
  return sc;
}

int cmd_list() {
  int width = 0;
  for (const std::string& name : manifest_names()) {
    width = std::max(width, static_cast<int>(name.size()));
  }
  std::printf("manifests:\n");
  for (const std::string& name : manifest_names()) {
    std::printf("  %-*s %s\n", width, name.c_str(),
                manifest_summary(name).c_str());
  }
  return 0;
}

int cmd_run(const std::string& manifest, int argc, char** argv) {
  SweepRunArgs args;
  for (int i = 2; i < argc; ++i) {
    const char* flag = argv[i];
    const auto value = [&] { return cli::next_arg(kTool, argc, argv, i); };
    if (std::strcmp(flag, "--cycles") == 0) {
      cli::next_uint(kTool, argc, argv, i, args.opts.cycles);
    } else if (std::strcmp(flag, "--warmup") == 0) {
      cli::next_uint(kTool, argc, argv, i, args.opts.warmup);
    } else if (std::strcmp(flag, "--seed") == 0) {
      cli::next_uint(kTool, argc, argv, i, args.opts.seed);
    } else if (std::strcmp(flag, "--seeds") == 0) {
      cli::next_uint(kTool, argc, argv, i, args.opts.seeds);
    } else if (std::strcmp(flag, "--quick") == 0) {
      args.opts.quick = true;
    } else if (std::strcmp(flag, "--filter") == 0) {
      args.opts.filter = value();
    } else if (std::strcmp(flag, "--jobs") == 0) {
      cli::next_uint(kTool, argc, argv, i, args.opts.jobs);
    } else if (std::strcmp(flag, "--out") == 0) {
      args.out_json = value();
    } else if (std::strcmp(flag, "--csv") == 0) {
      args.out_csv = value();
    } else if (std::strcmp(flag, "--profile") == 0) {
      args.profile = true;
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace_dir = value();
    } else if (std::strcmp(flag, "--timeseries") == 0) {
      args.timeseries_dir = value();
    } else if (std::strcmp(flag, "--attrib") == 0) {
      args.attrib_dir = value();
    } else if (std::strcmp(flag, "--sample-interval") == 0) {
      cli::next_uint(kTool, argc, argv, i, args.sample_interval);
    } else if (std::strcmp(flag, "--snapshot") == 0) {
      args.snapshot_dir = value();
    } else if (std::strcmp(flag, "--resume") == 0) {
      args.resume_dir = value();
    } else if (std::strcmp(flag, "--sampling") == 0) {
      args.sampled = true;
      args.sampling = parse_sampling(nullptr);
    } else if (std::strncmp(flag, "--sampling=", 11) == 0) {
      args.sampled = true;
      args.sampling = parse_sampling(flag + 11);
    } else if (std::strcmp(flag, "--quiet") == 0) {
      args.progress = false;
    } else if (std::strcmp(flag, "--help") == 0) {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", kTool, flag);
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
  return cmd_run(cmd, argc, argv);
}
