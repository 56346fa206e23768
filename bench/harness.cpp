#include "bench/harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "exp/driver.hpp"

namespace latdiv::bench {

const char* Options::usage() {
  return "options:\n"
         "  --cycles N   simulated DRAM command-clock cycles per run "
         "(default 50000)\n"
         "  --warmup N   warmup cycles excluded from IPC (default 5000)\n"
         "  --seed N     base workload seed (default 1)\n"
         "  --seeds N    independent trials averaged per point (default 1)\n"
         "  --quick      1/4-length run for smoke testing\n"
         "sweep-engine options (manifest-backed benches):\n"
         "  --jobs N     executor threads (default 1)\n"
         "  --filter S   keep only sweep points whose id contains S\n"
         "  --out FILE   write the JSON artifact\n"
         "  --csv FILE   write the CSV artifact\n"
         "  --check FILE golden-check the artifact against FILE\n"
         "  --timings    include per-point wall_ms in the JSON\n"
         "  --quiet      suppress per-point progress on stderr\n"
         "  --help       print this message\n";
}

Options Options::parse(int argc, char** argv) {
  Options opts;
  const auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s needs a value\n%s", argv[0], argv[i],
                   usage());
      std::exit(2);
    }
    return argv[++i];
  };
  const auto number = [&](int& i) -> std::uint64_t {
    const char* flag = argv[i];
    const char* text = value(i);
    char* end = nullptr;
    const std::uint64_t v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0') {
      std::fprintf(stderr, "%s: %s wants a number, got '%s'\n", argv[0], flag,
                   text);
      std::exit(2);
    }
    return v;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cycles") == 0) {
      opts.cycles = number(i);
    } else if (std::strcmp(argv[i], "--warmup") == 0) {
      opts.warmup = number(i);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      opts.seed = number(i);
    } else if (std::strcmp(argv[i], "--seeds") == 0) {
      opts.seeds = static_cast<std::uint32_t>(number(i));
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      opts.quick = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      opts.jobs = static_cast<unsigned>(number(i));
    } else if (std::strcmp(argv[i], "--filter") == 0) {
      opts.filter = value(i);
    } else if (std::strcmp(argv[i], "--out") == 0) {
      opts.out_json = value(i);
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      opts.out_csv = value(i);
    } else if (std::strcmp(argv[i], "--check") == 0) {
      opts.check = value(i);
    } else if (std::strcmp(argv[i], "--timings") == 0) {
      opts.timings = true;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      opts.quiet = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: %s [options]\n%s", argv[0], usage());
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\nusage: %s [options]\n%s",
                   argv[0], argv[i], argv[0], usage());
      std::exit(2);
    }
  }
  // Apply --quick last so it composes with --cycles in any flag order.
  if (opts.quick) {
    opts.cycles /= 4;
    opts.warmup /= 4;
  }
  if (opts.warmup >= opts.cycles) opts.warmup = opts.cycles / 10;
  return opts;
}

int run_figure(const std::string& manifest, const Options& opts) {
  exp::SweepRunArgs args;
  // --quick is already folded into cycles/warmup by parse().
  args.opts.cycles = opts.cycles;
  args.opts.warmup = opts.warmup;
  args.opts.seed = opts.seed;
  args.opts.seeds = opts.seeds;
  args.opts.filter = opts.filter;
  args.opts.jobs = opts.jobs;
  args.out_json = opts.out_json;
  args.out_csv = opts.out_csv;
  args.check = opts.check;
  args.timings = opts.timings;
  args.progress = !opts.quiet;
  return exp::run_manifest(manifest, args);
}

RunResult run_point(const WorkloadProfile& workload, SchedulerKind scheduler,
                    const Options& opts, const ConfigHook& hook) {
  SimConfig cfg;
  cfg.workload = workload;
  cfg.scheduler = scheduler;
  cfg.max_cycles = opts.cycles;
  cfg.warmup_cycles = opts.warmup;
  cfg.seed = opts.seed;
  if (hook) hook(cfg);
  Simulator sim(cfg);
  return sim.run();
}

double mean_ipc(const WorkloadProfile& workload, SchedulerKind scheduler,
                const Options& opts, const ConfigHook& hook) {
  double sum = 0.0;
  for (std::uint32_t t = 0; t < opts.seeds; ++t) {
    Options o = opts;
    o.seed = opts.seed + t;
    sum += run_point(workload, scheduler, o, hook).ipc;
  }
  return sum / opts.seeds;
}

std::vector<std::vector<RunResult>> run_matrix(
    const std::vector<WorkloadProfile>& workloads,
    const std::vector<SchedulerKind>& schedulers, const Options& opts,
    const ConfigHook& hook) {
  std::vector<std::vector<RunResult>> out;
  out.reserve(workloads.size());
  for (const WorkloadProfile& w : workloads) {
    std::vector<RunResult> row;
    row.reserve(schedulers.size());
    for (SchedulerKind s : schedulers) {
      row.push_back(run_point(w, s, opts, hook));
    }
    out.push_back(std::move(row));
  }
  return out;
}

void print_row(const std::string& head, const std::vector<std::string>& cells,
               int cell_width) {
  std::printf("%-16s", head.c_str());
  for (const std::string& c : cells) std::printf("%*s", cell_width, c.c_str());
  std::printf("\n");
}

void banner(const std::string& figure, const std::string& claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("paper reference: %s\n", claim.c_str());
  std::printf("================================================================\n");
}

void print_config(const Options& opts) {
  const SimConfig cfg;
  std::printf(
      "config (Table II): %u SMs x %u warps, %u channels, GDDR5 tCK=%.3fns, "
      "RQ/WQ %u/%u (watermarks %u/%u), L1 %uKB/%u-way, L2 %uKB/%u-way\n",
      cfg.num_sms, cfg.sm.warps, cfg.icnt.partitions, cfg.dram.tck_ns,
      cfg.mc.read_queue_size, cfg.mc.write_queue_size,
      cfg.mc.wq_high_watermark, cfg.mc.wq_low_watermark,
      cfg.sm.l1.size_bytes / 1024, cfg.sm.l1.ways,
      cfg.partition.l2.size_bytes / 1024, cfg.partition.l2.ways);
  std::printf("run: %llu cycles (%llu warmup), seed %llu\n",
              static_cast<unsigned long long>(opts.cycles),
              static_cast<unsigned long long>(opts.warmup),
              static_cast<unsigned long long>(opts.seed));
}

}  // namespace latdiv::bench
