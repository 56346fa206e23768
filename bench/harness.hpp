// Shared driver for the figure/table reproduction benches.
//
// Every bench binary follows the same pattern: run a matrix of
// (workload x scheduler) simulations, then print the rows/series the
// paper's figure reports.  Absolute numbers come from our simulator, so
// they will not match the authors' testbed; the *shape* (who wins, by
// roughly what factor, where crossovers fall) is the reproduction target
// and each bench prints the paper's reference values alongside.
//
// The figures with a named manifest (fig8, tab1, coord, device) run
// through the src/exp sweep engine via run_figure(): parallel execution
// with --jobs, structured JSON/CSV artifacts with --out/--csv, and
// golden-regression checking with --check.  The remaining benches use
// the serial run_point/mean_ipc helpers below.
//
// Common CLI (see Options::usage for the full list):
//   --cycles N    simulated DRAM command-clock cycles per run
//   --warmup N    warmup cycles excluded from IPC
//   --seed N      workload seed
//   --seeds N     independent trials averaged per point
//   --quick       1/4-length run for smoke testing
#pragma once

#include <string>
#include <vector>

#include "exp/point.hpp"
#include "sim/simulator.hpp"

namespace latdiv::bench {

/// Hook to adjust the SimConfig before construction (ablation knobs).
using ConfigHook = exp::ConfigHook;

struct Options {
  Cycle cycles = 50'000;
  Cycle warmup = 5'000;
  std::uint64_t seed = 1;
  std::uint32_t seeds = 1;  ///< independent trials averaged per point
  bool quick = false;       ///< 1/4-length smoke run

  // Sweep-engine options (used by the manifest-backed benches; the
  // serial benches accept and ignore them).
  unsigned jobs = 1;        ///< executor threads
  std::string filter;       ///< substring filter on sweep point ids
  std::string out_json;     ///< write the JSON artifact here
  std::string out_csv;      ///< write the CSV artifact here
  std::string check;        ///< golden baseline to compare against
  bool timings = false;     ///< include wall_ms in the JSON artifact
  bool quiet = false;       ///< suppress per-point progress on stderr

  /// Parse argv.  Prints usage and exits 2 on an unknown flag or a
  /// malformed value; --help prints usage and exits 0.  --quick quarters
  /// cycles/warmup regardless of flag order.
  static Options parse(int argc, char** argv);

  /// The full usage string (every option documented).
  static const char* usage();
};

/// Run the named src/exp manifest with these options: parallel sweep,
/// figure table, optional artifacts.  Returns the process exit code.
int run_figure(const std::string& manifest, const Options& opts);

/// Run one (workload, scheduler) point (first seed only).
RunResult run_point(const WorkloadProfile& workload, SchedulerKind scheduler,
                    const Options& opts, const ConfigHook& hook = {});

/// Mean IPC across opts.seeds independent trials of one point.
double mean_ipc(const WorkloadProfile& workload, SchedulerKind scheduler,
                const Options& opts, const ConfigHook& hook = {});

/// Run a full matrix; results indexed [workload][scheduler-order-given].
std::vector<std::vector<RunResult>> run_matrix(
    const std::vector<WorkloadProfile>& workloads,
    const std::vector<SchedulerKind>& schedulers, const Options& opts,
    const ConfigHook& hook = {});

/// Print one table row of fixed-width cells.
void print_row(const std::string& head, const std::vector<std::string>& cells,
               int cell_width = 10);

/// Standard bench banner with the paper reference for this experiment.
void banner(const std::string& figure, const std::string& claim);

/// Table II configuration echo (paper's simulation parameters).
void print_config(const Options& opts);

}  // namespace latdiv::bench
