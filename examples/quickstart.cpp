// Quickstart: simulate one irregular workload (bfs) under the baseline GMC
// scheduler and the paper's best warp-aware scheduler (WG-W), and print the
// headline metrics side by side.
//
//   ./examples/quickstart [workload] [cycles]
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart spmv 200000
#include <cstdio>
#include <string>

#include "cli.hpp"
#include "sim/simulator.hpp"

using namespace latdiv;

namespace {

RunResult run_one(const std::string& workload, SchedulerKind sched,
                  Cycle cycles) {
  SimConfig cfg;
  cfg.workload = profile_by_name(workload);
  cfg.scheduler = sched;
  cfg.max_cycles = cycles;
  cfg.warmup_cycles = cycles / 10;
  Simulator sim(cfg);
  return sim.run();
}

void print(const RunResult& r) {
  std::printf("%-10s IPC=%6.2f  eff-mem-lat=%7.1f ns  div-gap=%6.1f ns  "
              "BW-util=%4.1f%%  row-hit=%4.1f%%  chans/warp=%.2f\n",
              r.scheduler.c_str(), r.ipc, r.effective_mem_latency_ns,
              r.divergence_gap_ns, 100.0 * r.bandwidth_utilization,
              100.0 * r.row_hit_rate, r.tracker.channels_per_load.mean());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string workload = argc > 1 ? argv[1] : "bfs";
  Cycle cycles = 150'000;
  if (argc > 2) cli::uint_arg("quickstart", "cycles", argv[2], cycles);

  std::printf("latdiv quickstart: workload=%s, %llu DRAM cycles\n",
              workload.c_str(), static_cast<unsigned long long>(cycles));

  const RunResult base = run_one(workload, SchedulerKind::kGmc, cycles);
  const RunResult warp = run_one(workload, SchedulerKind::kWgW, cycles);
  print(base);
  print(warp);

  std::printf("WG-W speedup over GMC: %.2f%%\n",
              100.0 * (warp.ipc / base.ipc - 1.0));
  std::printf("coalescing: %.0f loads, %.1f%% divergent, %.2f reqs/load\n",
              base.loads, 100.0 * base.divergent_load_frac,
              base.requests_per_load);
  return 0;
}
