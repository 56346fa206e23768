// Domain scenario: sizing the memory scheduler for a graph-analytics GPU
// deployment.
//
// A team running BFS/SSSP-style frontier kernels (the paper's motivating
// irregular workloads) wants to know which memory scheduling policy to
// put in their next GPU memory controller, and how sensitive the answer
// is to the graph's degree distribution.  This example defines custom
// workload profiles for three graph classes — road networks (low degree,
// high locality), social networks (power-law, scattered), and synthetic
// RMAT (worst case) — and compares every scheduler the paper evaluates.
//
//   ./examples/graph_analytics [cycles]
#include <cstdio>
#include <vector>

#include "cli.hpp"
#include "sim/simulator.hpp"

using namespace latdiv;

namespace {

WorkloadProfile graph_profile(const char* name, double mean_degree_lines,
                              double locality_cluster, double frontier_reuse) {
  WorkloadProfile p;
  p.name = name;
  // Frontier expansion: each warp gathers the neighbour lists of 32
  // vertices; the coalesced line count tracks the degree distribution.
  p.divergent_load_frac = 0.6;
  p.divergent_lines_mean = mean_degree_lines;
  p.cluster_len_mean = locality_cluster;   // neighbour-list contiguity
  p.hot_frac = frontier_reuse;             // frontier/visited bitmaps
  p.hot_bytes = 256ULL << 10;
  p.store_frac = 0.15;                     // distance/parent updates
  p.mem_instr_frac = 0.25;
  p.streaming_frac = 0.25;                 // CSR offsets stream
  p.footprint_bytes = 512ULL << 20;        // the graph itself
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  Cycle cycles = 60'000;
  if (argc > 1) cli::uint_arg("graph_analytics", "cycles", argv[1], cycles);

  const std::vector<WorkloadProfile> graphs = {
      graph_profile("road-net", 4.0, 3.0, 0.35),
      graph_profile("social-net", 10.0, 1.6, 0.25),
      graph_profile("rmat-27", 14.0, 1.2, 0.15),
  };
  const std::vector<SchedulerKind> scheds = {
      SchedulerKind::kFrFcfs, SchedulerKind::kGmc, SchedulerKind::kSbwas,
      SchedulerKind::kWg,     SchedulerKind::kWgM, SchedulerKind::kWgW,
  };

  std::printf("graph-analytics scheduler study (%llu DRAM cycles/run)\n\n",
              static_cast<unsigned long long>(cycles));
  std::printf("%-12s", "graph");
  for (SchedulerKind s : scheds) std::printf("%10s", to_string(s));
  std::printf("%12s\n", "best");

  for (const WorkloadProfile& g : graphs) {
    std::printf("%-12s", g.name.c_str());
    double best_ipc = 0.0;
    const char* best = "-";
    for (SchedulerKind s : scheds) {
      SimConfig cfg;
      cfg.workload = g;
      cfg.scheduler = s;
      cfg.max_cycles = cycles;
      cfg.warmup_cycles = cycles / 10;
      const RunResult r = Simulator(cfg).run();
      std::printf("%10.2f", r.ipc);
      if (r.ipc > best_ipc) {
        best_ipc = r.ipc;
        best = to_string(s);
      }
    }
    std::printf("%12s\n", best);
  }

  std::printf("\nReading: IPC per scheduler.  Expect the warp-aware family "
              "to lead, with the gap widening as the degree distribution "
              "gets heavier-tailed (more divergent gathers per warp).\n");
  return 0;
}
