#include "exp/driver.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace latdiv::exp {

namespace {

bool write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size()));
  return static_cast<bool>(out);
}

/// Peak resident set size in MiB (0.0 if unavailable).  Linux reports
/// ru_maxrss in KiB.
double peak_rss_mib() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// File-name-safe form of a point id ("fig8/gmc/s1" -> "fig8_gmc_s1").
std::string sanitize_id(const std::string& id) {
  std::string s = id;
  for (char& c : s) {
    if (c == '/' || c == '\\' || c == ' ') c = '_';
  }
  return s;
}

/// Wraps every simulated point's config hook so the run writes per-point
/// trace / time-series artifacts under the requested directories.  The
/// base hook (ablation knobs) runs first; obs settings are applied on
/// top and never alter simulated behaviour.
void attach_obs_outputs(Manifest& manifest, const SweepRunArgs& args) {
  if (args.trace_dir.empty() && args.timeseries_dir.empty() &&
      args.attrib_dir.empty()) {
    return;
  }
  for (ExpPoint& p : manifest.grid.points_mut()) {
    if (p.analytic) continue;  // no simulator, nothing to trace
    const std::string fname = sanitize_id(p.id);
    const std::string trace_path =
        args.trace_dir.empty() ? std::string{}
                               : args.trace_dir + "/" + fname + ".trace.json";
    const std::string ts_path =
        args.timeseries_dir.empty()
            ? std::string{}
            : args.timeseries_dir + "/" + fname + ".timeseries.csv";
    const std::string attrib_path =
        args.attrib_dir.empty()
            ? std::string{}
            : args.attrib_dir + "/" + fname + ".attrib.json";
    const std::uint64_t interval = args.sample_interval;
    const ConfigHook base = p.hook;
    p.hook = [base, trace_path, ts_path, attrib_path,
              interval](SimConfig& cfg) {
      if (base) base(cfg);
      if (!trace_path.empty()) {
        cfg.obs.trace = true;
        cfg.obs.trace_path = trace_path;
      }
      if (!ts_path.empty()) {
        cfg.obs.timeseries = true;
        cfg.obs.timeseries_path = ts_path;
      }
      if (!attrib_path.empty()) {
        cfg.obs.attrib = true;
        cfg.obs.attrib_path = attrib_path;
      }
      cfg.obs.sample_interval = interval;
    };
  }
}

/// Attaches per-point snapshot save/restore paths (--snapshot /
/// --resume): `<dir>/<point-id>.snap`, same naming scheme as the obs
/// artifacts.  Analytic points have no simulator state and are skipped.
void attach_snapshots(Manifest& manifest, const SweepRunArgs& args) {
  if (args.snapshot_dir.empty() && args.resume_dir.empty()) return;
  for (ExpPoint& p : manifest.grid.points_mut()) {
    if (p.analytic) continue;
    const std::string fname = sanitize_id(p.id) + ".snap";
    if (!args.snapshot_dir.empty()) {
      p.save_snapshot_path = args.snapshot_dir + "/" + fname;
    }
    if (!args.resume_dir.empty()) {
      p.load_snapshot_path = args.resume_dir + "/" + fname;
    }
  }
}

/// Switches every simulated point to the sampled runner (--sampling).
void apply_sampling(Manifest& manifest, const ckpt::SamplingConfig& sc) {
  for (ExpPoint& p : manifest.grid.points_mut()) {
    if (p.analytic) continue;
    p.runner = ExpPoint::Runner::kSampled;
    p.sampling = sc;
  }
}

}  // namespace

int run_manifest(const std::string& name, const SweepRunArgs& args) {
  const auto t0 = std::chrono::steady_clock::now();  // lint: wall-clock-ok
  if (args.opts.seeds == 0) {
    std::fprintf(stderr, "latdiv-sweep: --seeds must be > 0\n");
    return 2;
  }
  if (args.sample_interval == 0) {
    std::fprintf(stderr, "latdiv-sweep: --sample-interval must be > 0\n");
    return 2;
  }
  Manifest manifest;
  try {
    manifest = make_manifest(name, args.opts);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "latdiv-sweep: %s (try `latdiv-sweep list`)\n",
                 e.what());
    return 2;
  }
  if (manifest.grid.empty()) {
    std::fprintf(stderr,
                 "latdiv-sweep: filter '%s' matched no points of '%s'\n",
                 args.opts.filter.c_str(), name.c_str());
    return 2;
  }
  if (args.sampled && (!args.trace_dir.empty() ||
                       !args.timeseries_dir.empty() ||
                       !args.attrib_dir.empty())) {
    std::fprintf(stderr,
                 "latdiv-sweep: --sampling cannot be combined with "
                 "--trace/--timeseries/--attrib (sampled runs require the "
                 "obs hub disabled)\n");
    return 2;
  }
  if (args.sampled &&
      !sampled_runner_reports(manifest.spec.primary_metric) &&
      std::any_of(manifest.grid.points().begin(),
                  manifest.grid.points().end(),
                  [](const ExpPoint& p) { return !p.analytic; })) {
    std::fprintf(stderr,
                 "latdiv-sweep: --sampling cannot run '%s': sampled points "
                 "do not report its metric '%s'\n",
                 name.c_str(), manifest.spec.primary_metric.c_str());
    return 2;
  }
  if (args.sampled && !args.snapshot_dir.empty()) {
    std::fprintf(stderr,
                 "latdiv-sweep: --sampling cannot be combined with "
                 "--snapshot (a sampled run does not simulate the final "
                 "state in detail)\n");
    return 2;
  }
  for (const std::string& dir : {args.trace_dir, args.timeseries_dir,
                                 args.attrib_dir, args.snapshot_dir}) {
    if (dir.empty()) continue;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      std::fprintf(stderr, "latdiv-sweep: cannot create '%s': %s\n",
                   dir.c_str(), ec.message().c_str());
      return 2;
    }
  }
  attach_obs_outputs(manifest, args);
  attach_snapshots(manifest, args);
  if (args.sampled) apply_sampling(manifest, args.sampling);

  const ProgressFn progress =
      args.progress
          ? ProgressFn([](std::size_t done, std::size_t total,
                          const PointResult& r) {
              std::fprintf(stderr, "[%zu/%zu] %-32s %s (%.0f ms)\n", done,
                           total, r.id.c_str(), r.ok ? "ok" : "FAILED",
                           r.wall_ms);
            })
          : ProgressFn{};

  // Sweep timing is progress reporting only, never artifact content.
  const auto start = std::chrono::steady_clock::now();  // lint: wall-clock-ok
  const double build_s =
      std::chrono::duration<double>(start - t0).count();
  std::vector<PointResult> results =
      run_grid(manifest.grid, args.opts.jobs, progress);
  const double wall_s =
      std::chrono::duration<double>(
          std::chrono::steady_clock::now() - start)  // lint: wall-clock-ok
          .count();

  // DRAM cycles simulated in detail across the sweep (for --profile
  // throughput): a sampled point counts only its detailed cycles, and
  // analytic points carry neither metric and contribute zero.
  double sim_cycles = 0.0;
  double point_wall_ms = 0.0;
  for (const PointResult& r : results) {
    for (const char* key : {"dram_cycles", "sampled.detailed_cycles"}) {
      const auto it = r.metrics.find(key);
      if (r.ok && it != r.metrics.end()) sim_cycles += it->second;
    }
    point_wall_ms += r.wall_ms;
  }

  const auto report_start =
      std::chrono::steady_clock::now();  // lint: wall-clock-ok
  const Artifact artifact =
      make_artifact(manifest.spec, args.opts.shape(), std::move(results));
  print_table(artifact);
  std::fprintf(stderr, "ran %zu point(s) in %.2f s (jobs=%u)\n",
               artifact.points.size(), wall_s, args.opts.jobs);

  // Artifact-write failures are recorded, not returned immediately, so
  // the --profile block below still prints (it is diagnostic output and
  // most useful exactly when something went wrong).
  bool write_failed = false;
  if (!args.out_json.empty() &&
      !write_file(args.out_json, to_json(artifact))) {
    std::fprintf(stderr, "latdiv-sweep: cannot write '%s'\n",
                 args.out_json.c_str());
    write_failed = true;
  }
  if (!args.out_csv.empty() &&
      !write_file(args.out_csv, to_csv(artifact))) {
    std::fprintf(stderr, "latdiv-sweep: cannot write '%s'\n",
                 args.out_csv.c_str());
    write_failed = true;
  }

  if (args.profile) {
    const double report_s =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() -  // lint: wall-clock-ok
            report_start)
            .count();
    const double mcycles = sim_cycles / 1e6;
    std::fprintf(stderr,
                 "profile: build     %8.3f s\n"
                 "profile: simulate  %8.3f s  (%zu points, %.1f simulated "
                 "Mcycles, %.2f Mcycles/s wall, %.2f Mcycles/s cpu)\n"
                 "profile: report    %8.3f s\n"
                 "profile: peak rss  %8.1f MiB\n",
                 build_s, wall_s, artifact.points.size(), mcycles,
                 wall_s > 0.0 ? mcycles / wall_s : 0.0,
                 point_wall_ms > 0.0 ? mcycles / (point_wall_ms / 1e3) : 0.0,
                 report_s, peak_rss_mib());
  }
  if (write_failed) return 2;
  return failed_points(artifact) > 0 ? 1 : 0;
}

}  // namespace latdiv::exp
