// Simulation-throughput harness: host Mcycles/s per workload/scheduler.
//
// Not a paper figure — this measures the *simulator*, not the simulated
// machine.  Three sections, each with a machine-independent gate:
// interval sampling (>= 5x fewer detailed cycles at <= 2% geomean IPC
// error, recorded in the JSON artifact), observability overhead (no mode
// may perturb IPC; host Mcycles/s per mode is reported) and bounded-memory
// streaming trace replay (peak-RSS bound).  Any gate failure aborts the
// bench.
//
// Wall-clock numbers are machine-dependent; track trends, not absolutes.
// EXPERIMENTS.md records the reference sweep-level numbers.
#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "bench/harness.hpp"
#include "ckpt/sampler.hpp"
#include "scenario/scenario.hpp"
#include "workload/trace.hpp"

using namespace latdiv;
using namespace latdiv::bench;

namespace {

struct Measured {
  double ipc = 0.0;
  double mcycles_per_s = 0.0;  ///< simulated DRAM Mcycles / wall second
};

enum class ObsMode {
  kOff,      ///< no hub at all — the shipping disabled path
  kMetrics,  ///< hub present, histograms only (no sink, no sampling)
  kTrace,    ///< full request-lifecycle tracing into the in-memory sink
  kAttrib,   ///< latency-attribution profiler (no artifact written)
};

Measured measure(const WorkloadProfile& w, SchedulerKind sched,
                 const Options& opts, ObsMode obs) {
  const auto start = std::chrono::steady_clock::now();  // lint: wall-clock-ok
  const RunResult r = run_point(w, sched, opts, [&](SimConfig& cfg) {
    if (obs == ObsMode::kMetrics) {
      cfg.obs.metrics_path = "/dev/null";  // enables the hub, nothing else
    } else if (obs == ObsMode::kTrace) {
      cfg.obs.trace = true;  // no trace_path: buffers in memory only
    } else if (obs == ObsMode::kAttrib) {
      cfg.obs.attrib = true;  // no attrib_path: aggregates in memory only
    }
  });
  const double wall_s =
      std::chrono::duration<double>(
          std::chrono::steady_clock::now() - start)  // lint: wall-clock-ok
          .count();
  Measured m;
  m.ipc = r.ipc;
  m.mcycles_per_s =
      wall_s > 0.0 ? static_cast<double>(r.dram_cycles) / 1e6 / wall_s : 0.0;
  return m;
}

/// Observability pricing: the disabled path must cost nothing measurable
/// (<1% — it is one null-pointer branch per would-be event), and enabled
/// modes must never perturb simulated results.  Any IPC difference across
/// modes aborts the bench; wall-clock ratios are reported for trend
/// tracking (EXPERIMENTS.md records reference numbers).
int obs_overhead_section(const Options& opts) {
  std::printf("\nobservability overhead — obs off / repeat (noise floor) / "
              "metrics-only / attribution / full tracing\n");
  print_row("workload",
            {"sched", "off Mc/s", "noise", "metrics x", "attrib x",
             "trace x"});
  for (const WorkloadProfile& w : irregular_suite()) {
    for (const SchedulerKind sched :
         {SchedulerKind::kGmc, SchedulerKind::kWgW}) {
      const char* sname = sched == SchedulerKind::kGmc ? "GMC" : "WG-W";
      const Measured off1 = measure(w, sched, opts, ObsMode::kOff);
      const Measured off2 = measure(w, sched, opts, ObsMode::kOff);
      const Measured met = measure(w, sched, opts, ObsMode::kMetrics);
      const Measured att = measure(w, sched, opts, ObsMode::kAttrib);
      const Measured trc = measure(w, sched, opts, ObsMode::kTrace);
      if (off1.ipc != off2.ipc || off1.ipc != met.ipc ||
          off1.ipc != att.ipc || off1.ipc != trc.ipc) {
        std::fprintf(stderr,
                     "bench_throughput: observability perturbed %s/%s IPC "
                     "(off %.6f, metrics %.6f, attrib %.6f, trace %.6f)\n",
                     w.name.c_str(), sname, off1.ipc, met.ipc, att.ipc,
                     trc.ipc);
        return 1;
      }
      // Noise floor: relative spread of two identical disabled runs.
      const double base =
          0.5 * (off1.mcycles_per_s + off2.mcycles_per_s);
      const double noise =
          base > 0.0
              ? std::fabs(off1.mcycles_per_s - off2.mcycles_per_s) / base
              : 0.0;
      print_row(w.name,
                {sname, fixed(base, 2), fixed(noise * 100.0, 1) + "%",
                 fixed(safe_ratio(base, met.mcycles_per_s), 2),
                 fixed(safe_ratio(base, att.mcycles_per_s), 2),
                 fixed(safe_ratio(base, trc.mcycles_per_s), 2)});
    }
  }
  std::printf("\nthe disabled path *is* the baseline path (a null hub "
              "pointer per event site); compare 'off Mc/s' against the "
              "reference numbers in EXPERIMENTS.md — drift beyond the "
              "noise column flags a regression.\n");
  return 0;
}

/// Appends one JSON object literal to a comma-joined row list.
void json_row(std::string& rows, const std::string& obj) {
  if (!rows.empty()) rows += ",";
  rows += obj;
}

/// Interval sampling (src/ckpt/sampler.*): detailed vs SMARTS-sampled
/// runs of >= 1M cycles per irregular workload under the full WG-W
/// design.  Two hard gates, both machine-independent: the schedule must
/// cut detailed cycles by >= 5x, and the geomean relative IPC error of
/// the sampled estimate must stay within 2%.  Wall-clock speedups
/// (sequential and jobs=4 snapshot fan-out) are reported for trend
/// tracking only.  Any gate failure aborts the bench.
int sampling_section(const Options& opts, std::string& json) {
  const Cycle cycles = std::max<Cycle>(opts.cycles, 1'000'000);
  const ckpt::SamplingConfig sched;  // default 8k detail / 4k warm / 120k
  std::printf("\ninterval sampling — detailed vs sampled, %llu cycles, "
              "WG-W (detail %llu / warm %llu / period %llu)\n",
              static_cast<unsigned long long>(cycles),
              static_cast<unsigned long long>(sched.detail_cycles),
              static_cast<unsigned long long>(sched.warm_cycles),
              static_cast<unsigned long long>(sched.period_cycles));
  print_row("workload", {"det ipc", "smp ipc", "err", "cyc x", "wall x",
                         "fan4 x"});

  std::vector<double> errs;
  std::vector<double> wall_speedups;
  double min_cycle_reduction = 0.0;
  std::string rows;
  for (const WorkloadProfile& w : irregular_suite()) {
    SimConfig cfg;
    cfg.workload = w;
    cfg.scheduler = SchedulerKind::kWgW;
    cfg.max_cycles = cycles;
    cfg.warmup_cycles = 0;  // the estimator has no warmup-exclusion notion
    cfg.seed = opts.seed;

    const auto t0 = std::chrono::steady_clock::now();  // lint: wall-clock-ok
    const RunResult detailed = Simulator(cfg).run();
    const auto t1 = std::chrono::steady_clock::now();  // lint: wall-clock-ok
    const ckpt::SampledResult sampled = ckpt::run_sampled(cfg, sched, 1);
    const auto t2 = std::chrono::steady_clock::now();  // lint: wall-clock-ok
    const ckpt::SampledResult fanned = ckpt::run_sampled(cfg, sched, 4);
    const auto t3 = std::chrono::steady_clock::now();  // lint: wall-clock-ok

    const double wall_det = std::chrono::duration<double>(t1 - t0).count();
    const double wall_smp = std::chrono::duration<double>(t2 - t1).count();
    const double wall_fan = std::chrono::duration<double>(t3 - t2).count();
    const double err = detailed.ipc > 0.0
                           ? std::fabs(sampled.ipc - detailed.ipc) /
                                 detailed.ipc
                           : 0.0;
    const double cycle_reduction =
        sampled.detailed_cycles > 0
            ? static_cast<double>(cycles) /
                  static_cast<double>(sampled.detailed_cycles)
            : 0.0;
    const double wall_speedup = safe_ratio(wall_det, wall_smp);
    errs.push_back(std::max(err, 1e-9));  // geomean needs positive terms
    wall_speedups.push_back(wall_speedup);
    min_cycle_reduction = min_cycle_reduction == 0.0
                              ? cycle_reduction
                              : std::min(min_cycle_reduction,
                                         cycle_reduction);
    print_row(w.name,
              {fixed(detailed.ipc, 4), fixed(sampled.ipc, 4),
               fixed(err * 100.0, 2) + "%", fixed(cycle_reduction, 1),
               fixed(wall_speedup, 2), fixed(safe_ratio(wall_det, wall_fan), 2)});

    std::ostringstream row;
    row << "{\"workload\":\"" << w.name << "\",\"detailed_ipc\":"
        << detailed.ipc << ",\"sampled_ipc\":" << sampled.ipc
        << ",\"fanout_ipc\":" << fanned.ipc << ",\"ipc_rel_err\":" << err
        << ",\"cycle_reduction\":" << cycle_reduction
        << ",\"wall_speedup\":" << wall_speedup
        << ",\"fanout_wall_speedup\":" << safe_ratio(wall_det, wall_fan)
        << "}";
    json_row(rows, row.str());
  }
  const double err_geomean = geomean(errs);
  const double wall_geomean = geomean(wall_speedups);
  print_row("geomean", {"-", "-", fixed(err_geomean * 100.0, 2) + "%",
                        fixed(min_cycle_reduction, 1) + " min",
                        fixed(wall_geomean, 2), "-"});

  std::ostringstream sec;
  sec << "{\"cycles\":" << cycles << ",\"schedule\":{\"detail\":"
      << sched.detail_cycles << ",\"warm\":" << sched.warm_cycles
      << ",\"period\":" << sched.period_cycles << "},\"rows\":[" << rows
      << "],\"geomean_ipc_rel_err\":" << err_geomean
      << ",\"geomean_wall_speedup\":" << wall_geomean
      << ",\"min_cycle_reduction\":" << min_cycle_reduction << "}";
  json = sec.str();

  if (min_cycle_reduction < 5.0) {
    std::fprintf(stderr,
                 "bench_throughput: sampling cut detailed cycles only "
                 "%.1fx (gate: >= 5x)\n",
                 min_cycle_reduction);
    return 1;
  }
  if (err_geomean > 0.02) {
    std::fprintf(stderr,
                 "bench_throughput: sampled IPC geomean error %.2f%% "
                 "exceeds the 2%% gate\n",
                 err_geomean * 100.0);
    return 1;
  }
  std::printf("\nboth gates hold: >= 5x fewer detailed cycles, sampled "
              "IPC within 2%% geomean of the straight-through run "
              "(tests/test_ckpt_sampling.cpp pins the per-scenario "
              "bounds).\n");
  return 0;
}

/// Peak resident set size in MiB (0.0 if unavailable).  Linux reports
/// ru_maxrss in KiB.
double peak_rss_mib() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Bounded-memory streaming replay: a >=10M-record v2 trace must replay
/// through TraceReplayer's streaming mode without materialising the
/// decoded stream (which would be total_records * sizeof(WarpInstr),
/// multiple GiB).  Records a scenario microkernel to a temp file, drains
/// every record once via the streaming replayer, and gates on the
/// peak-RSS delta across the replay.  This is the enforcement point for
/// the O(chunk)-memory contract in DESIGN.md ("Workload frontends");
/// tests/test_trace_v2.cpp proves streaming == in-memory equivalence on
/// small traces, this proves the big one never loads.
int trace_streaming_section() {
  constexpr std::uint32_t kSms = 8;
  constexpr std::uint32_t kWarps = 16;
  constexpr std::uint64_t kRecords = 10'000'000;  // divisible by 8*16
  constexpr double kRssBoundMib = 256.0;
  const char* path = "/tmp/latdiv_bench_stream.trace";

  std::printf("\ntrace streaming — bounded-memory v2 replay, %.0fM records\n",
              static_cast<double>(kRecords) / 1e6);
  // Narrow pointer-chase variant: 8 active lanes keeps the temp file a
  // few hundred MiB while the *decoded* stream is still ~2.5 GiB.
  scenario::ScenarioSpec spec = scenario::scenario_by_name("pointer-chase");
  spec.params.chase_lanes = 8;

  const auto gen_start =
      std::chrono::steady_clock::now();  // lint: wall-clock-ok
  {
    const auto source = scenario::make_scenario(spec, kSms, kWarps, 1);
    TraceWriter writer(path, kSms, kWarps);
    while (writer.records_written() < kRecords) {
      for (std::uint32_t sm = 0; sm < kSms; ++sm) {
        for (std::uint32_t w = 0; w < kWarps; ++w) {
          writer.record(static_cast<SmId>(sm), static_cast<WarpId>(w),
                        source->next(static_cast<SmId>(sm),
                                     static_cast<WarpId>(w)));
        }
      }
    }
    writer.close();
  }
  const double gen_s =
      std::chrono::duration<double>(
          std::chrono::steady_clock::now() - gen_start)  // lint: wall-clock-ok
          .count();

  const double rss_before = peak_rss_mib();
  const auto replay_start =
      std::chrono::steady_clock::now();  // lint: wall-clock-ok
  std::uint64_t drained = 0;
  double file_mib = 0.0;
  {
    TraceReplayer replayer(path, ReplayMode::kStreaming);
    if (!replayer.streaming()) {
      std::fprintf(stderr,
                   "bench_throughput: replayer did not open in streaming "
                   "mode\n");
      std::remove(path);
      return 1;
    }
    file_mib = static_cast<double>(scan_trace(path).file_bytes) / 1048576.0;
    // Generation was round-robin, so every warp holds exactly
    // total / (sms*warps) records; one round-robin pass of that depth
    // touches every record exactly once.
    const std::uint64_t per_warp =
        replayer.total_records() / (kSms * kWarps);
    for (std::uint64_t i = 0; i < per_warp; ++i) {
      for (std::uint32_t sm = 0; sm < kSms; ++sm) {
        for (std::uint32_t w = 0; w < kWarps; ++w) {
          const WarpInstr instr = replayer.next(
              static_cast<SmId>(sm), static_cast<WarpId>(w));
          (void)instr;  // next() reads from disk; it cannot be elided
          ++drained;
        }
      }
    }
  }
  const double replay_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    replay_start)  // lint: wall-clock-ok
          .count();
  const double rss_delta = peak_rss_mib() - rss_before;
  const double decoded_mib = static_cast<double>(kRecords) *
                             static_cast<double>(sizeof(WarpInstr)) /
                             1048576.0;
  std::remove(path);

  print_row("phase", {"records", "MiB", "Mrec/s", "rss delta"});
  print_row("generate",
            {fixed(static_cast<double>(kRecords) / 1e6, 0) + "M",
             fixed(file_mib, 1),
             fixed(gen_s > 0.0
                       ? static_cast<double>(kRecords) / 1e6 / gen_s
                       : 0.0,
                   2),
             "-"});
  print_row("stream",
            {fixed(static_cast<double>(drained) / 1e6, 0) + "M",
             fixed(file_mib, 1),
             fixed(replay_s > 0.0
                       ? static_cast<double>(drained) / 1e6 / replay_s
                       : 0.0,
                   2),
             fixed(rss_delta, 1) + " MiB"});
  if (drained != kRecords) {
    std::fprintf(stderr,
                 "bench_throughput: streaming replay drained %" PRIu64
                 " of %" PRIu64 " records\n",
                 drained, kRecords);
    return 1;
  }
  if (rss_delta > kRssBoundMib) {
    std::fprintf(stderr,
                 "bench_throughput: streaming replay grew RSS by %.1f MiB "
                 "(bound %.0f MiB; decoded stream would be %.0f MiB) — "
                 "bounded-memory contract violated\n",
                 rss_delta, kRssBoundMib, decoded_mib);
    return 1;
  }
  std::printf("\nstreaming replay holds one %u-record chunk per active "
              "warp; the decoded stream would be %.0f MiB, the RSS bound "
              "is %.0f MiB.\n",
              kTraceChunkRecords, decoded_mib, kRssBoundMib);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = Options::parse(argc, argv);
  banner("simulator throughput — sampling, observability overhead, "
         "streaming replay",
         "each section gates on a machine-independent contract");
  print_config(opts);

  std::string sampling_json;
  const int sampling_rc = sampling_section(opts, sampling_json);
  if (sampling_rc != 0) return sampling_rc;
  const int obs_rc = obs_overhead_section(opts);
  if (obs_rc != 0) return obs_rc;
  const int stream_rc = trace_streaming_section();
  if (stream_rc != 0) return stream_rc;

  // Machine-readable artifact (uploaded by the release-throughput CI
  // job).  Wall-clock fields are for trend inspection, never gates; the
  // sampling section's gate results are recorded so downstream tooling
  // can assert on them without re-parsing the console output.
  const std::string out_path =
      opts.out_json.empty() ? "BENCH_throughput.json" : opts.out_json;
  std::ostringstream doc;
  doc << "{\"bench\":\"throughput\",\"cycles\":" << opts.cycles
      << ",\"sampling\":" << sampling_json
      << ",\"gates\":{\"sampling_cycle_reduction_min\":5.0,"
      << "\"sampling_ipc_err_max\":0.02,\"passed\":true}}\n";
  std::ofstream out(out_path, std::ios::binary);
  out << doc.str();
  if (!out) {
    std::fprintf(stderr, "bench_throughput: cannot write '%s'\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
