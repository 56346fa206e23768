// Machine-readable single-run driver: run one (workload, scheduler)
// configuration from the command line and print a single-point
// "latdiv-sweep/1" artifact on stdout — the same schema `latdiv-sweep`
// writes for full sweeps, so downstream scripts parse exactly one
// format.  Useful for scripting parameter sweeps around the library
// without writing C++.
//
//   ./examples/run_json --workload spmv --scheduler WG-W
//       --cycles 100000 --seed 3
//   ./examples/run_json --list          # available workloads/schedulers
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "exp/executor.hpp"
#include "exp/reporter.hpp"
#include "sim/simulator.hpp"

using namespace latdiv;

namespace {

const std::vector<SchedulerKind>& all_schedulers() {
  static const std::vector<SchedulerKind> table = {
      SchedulerKind::kFcfs,  SchedulerKind::kFrFcfs,   SchedulerKind::kGmc,
      SchedulerKind::kWafcfs, SchedulerKind::kSbwas,   SchedulerKind::kWg,
      SchedulerKind::kWgM,   SchedulerKind::kWgBw,     SchedulerKind::kWgW,
      SchedulerKind::kWgShared, SchedulerKind::kZld,
  };
  return table;
}

void list_options() {
  std::printf("workloads:");
  for (const auto& suite : {irregular_suite(), regular_suite()}) {
    for (const WorkloadProfile& w : suite) std::printf(" %s", w.name.c_str());
  }
  std::printf("\nschedulers:");
  for (SchedulerKind kind : all_schedulers()) {
    std::printf(" %s", to_string(kind));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload = "bfs";
  std::string scheduler = "GMC";
  bool timings = false;
  exp::ExpPoint point;
  point.cycles = 100'000;
  point.warmup = 10'000;

  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (std::strcmp(argv[i], "--list") == 0) {
      list_options();
      return 0;
    } else if (std::strcmp(argv[i], "--workload") == 0) {
      workload = value();
    } else if (std::strcmp(argv[i], "--scheduler") == 0) {
      scheduler = value();
    } else if (std::strcmp(argv[i], "--cycles") == 0) {
      point.cycles = std::strtoull(value(), nullptr, 10);
      point.warmup = point.cycles / 10;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      point.seed = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--ddr3") == 0) {
      point.hook = [](SimConfig& c) { c.dram = ddr3_1600_params(); };
    } else if (std::strcmp(argv[i], "--timings") == 0) {
      timings = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--workload W] [--scheduler S] [--cycles N] "
                   "[--seed N] [--ddr3] [--timings] [--list]\n",
                   argv[0]);
      return 2;
    }
  }

  point.workload = profile_by_name(workload);
  bool found = false;
  for (SchedulerKind kind : all_schedulers()) {
    if (scheduler == to_string(kind)) {
      point.scheduler = kind;
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown scheduler '%s' (try --list)\n",
                 scheduler.c_str());
    return 2;
  }

  point.row = workload;
  point.col = scheduler;
  point.id = workload + "/" + scheduler + "/s" + std::to_string(point.seed);

  exp::SweepSpec spec;
  spec.name = "run_json";
  spec.title = "single-point run";
  exp::RunShape shape;
  shape.cycles = point.cycles;
  shape.warmup = point.warmup;
  shape.base_seed = point.seed;

  const exp::Artifact artifact =
      exp::make_artifact(spec, shape, {exp::execute_point(point)});
  std::fputs(exp::to_json(artifact, timings).c_str(), stdout);
  return exp::failed_points(artifact) == 0 ? 0 : 1;
}
