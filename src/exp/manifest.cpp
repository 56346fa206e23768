#include "exp/manifest.hpp"

#include <stdexcept>
#include <utility>

#include "core/merb.hpp"
#include "dram/params.hpp"
#include "scenario/scenario.hpp"

namespace latdiv::exp {

RunShape SweepOptions::shape() const {
  RunShape s;
  s.cycles = quick ? cycles / 4 : cycles;
  s.warmup = quick ? warmup / 4 : warmup;
  if (s.warmup >= s.cycles) s.warmup = s.cycles / 10;
  s.base_seed = seed;
  s.seeds = seeds;
  return s;
}

namespace {

std::vector<WorkloadProfile> profiles(
    const std::vector<std::string>& names) {
  std::vector<WorkloadProfile> out;
  out.reserve(names.size());
  for (const std::string& n : names) out.push_back(profile_by_name(n));
  return out;
}

/// The scheduler ladder of Figs. 8-11: the 11 irregular workloads under
/// GMC and the four warp-aware designs, normalized to GMC.  The four
/// figures plot different metrics of the same runs.
Manifest ladder(const SweepOptions& opts, const std::string& metric) {
  Manifest m;
  m.spec.primary_metric = metric;
  m.spec.baseline_col = "GMC";
  m.spec.col_order = {"GMC", "WG", "WG-M", "WG-Bw", "WG-W"};
  m.grid.add_matrix(irregular_suite(),
                    {SchedulerKind::kGmc, SchedulerKind::kWg,
                     SchedulerKind::kWgM, SchedulerKind::kWgBw,
                     SchedulerKind::kWgW},
                    opts.shape());
  return m;
}

/// Fig. 2 — coalescing efficiency under GMC.  Paper: 56% of irregular
/// loads produce more than one request, 5.9 requests per load on
/// average; the regular rows should coalesce to ~1 request per load.
/// Cells carry requests_per_load and loads alongside.
Manifest fig2(const SweepOptions& opts) {
  Manifest m;
  m.spec.name = "fig2";
  m.spec.title =
      "Fig. 2 — Coalescing efficiency (irregular, then regular suite)";
  m.spec.reference =
      "56% of irregular loads produce >1 request; 5.9 requests/load avg";
  m.spec.primary_metric = "divergent_load_frac";
  m.spec.col_order = {"GMC"};
  std::vector<WorkloadProfile> workloads = irregular_suite();
  for (WorkloadProfile& w : regular_suite()) workloads.push_back(std::move(w));
  m.grid.add_column("GMC", workloads, SchedulerKind::kGmc, opts.shape());
  return m;
}

/// Fig. 3 — extent of latency divergence under GMC (§III-A).  Cells
/// carry mcs_per_warp, banks_per_warp (distinct (channel, bank) pairs)
/// and same_row_frac alongside the last/first ratio.
Manifest fig3(const SweepOptions& opts) {
  Manifest m;
  m.spec.name = "fig3";
  m.spec.title = "Fig. 3 — Extent of memory latency divergence (GMC baseline)";
  m.spec.reference =
      "last/first latency ~1.6x; 2.5 MCs/warp; ~2 banks; ~30% same-row";
  m.spec.primary_metric = "last_to_first_ratio";
  m.spec.col_order = {"GMC"};
  m.grid.add_column("GMC", irregular_suite(), SchedulerKind::kGmc,
                    opts.shape());
  return m;
}

/// Fig. 4 — the two idealised systems.  Perfect Coalescing turns every
/// load into one request; Zero Latency Divergence (the ZLD scheduler)
/// returns a warp's requests together once the first is serviced.
Manifest fig4(const SweepOptions& opts) {
  Manifest m;
  m.spec.name = "fig4";
  m.spec.title = "Fig. 4 — Room for improvement (idealised systems)";
  m.spec.reference = "Perfect Coalescing ~5x; Zero Latency Divergence +43%";
  m.spec.primary_metric = "ipc";
  m.spec.baseline_col = "GMC";
  m.spec.col_order = {"GMC", "PerfCoal", "ZeroDiv"};
  const auto workloads = irregular_suite();
  m.grid.add_column("GMC", workloads, SchedulerKind::kGmc, opts.shape());
  m.grid.add_column("PerfCoal", workloads, SchedulerKind::kGmc, opts.shape(),
                    [](SimConfig& c) { c.sm.perfect_coalescing = true; });
  m.grid.add_column("ZeroDiv", workloads, SchedulerKind::kZld, opts.shape());
  return m;
}

/// Fig. 8 — the paper's headline IPC ladder, normalized to GMC.
Manifest fig8(const SweepOptions& opts) {
  Manifest m = ladder(opts, "ipc");
  m.spec.name = "fig8";
  m.spec.title = "Fig. 8 — Performance normalized to the GMC baseline";
  m.spec.reference =
      "WG +3.4%, WG-M +6.2%, WG-Bw +8.4%, WG-W +10.1% (geomean, IPC)";
  return m;
}

/// Fig. 9 — effective memory latency: issue to the *last* request of
/// the warp's load.
Manifest fig9(const SweepOptions& opts) {
  Manifest m = ladder(opts, "effective_mem_latency_ns");
  m.spec.name = "fig9";
  m.spec.title = "Fig. 9 — Effective main-memory latency of warps (ns)";
  m.spec.reference =
      "WG -9.1%, WG-M -16.9% vs GMC (average effective latency)";
  return m;
}

/// Fig. 10 — gap between a warp's first and last DRAM completion.  WG-M
/// should win on the multi-controller rows (mcs_per_warp ~3.2: cfd, sp,
/// sssp, spmv).
Manifest fig10(const SweepOptions& opts) {
  Manifest m = ladder(opts, "divergence_gap_ns");
  m.spec.name = "fig10";
  m.spec.title =
      "Fig. 10 — DRAM latency divergence by scheduler (first->last, ns)";
  m.spec.reference =
      "WG and WG-M shrink the gap; WG-M wins for multi-controller apps";
  return m;
}

/// Fig. 11 — data-bus utilization.  Utilization here is demand-coupled
/// (more IPC pushes more traffic); WG-Bw's supply-side effect shows in
/// its wg_merb_deferrals metric and in the `merb` ablation.
Manifest fig11(const SweepOptions& opts) {
  Manifest m = ladder(opts, "bandwidth_utilization");
  m.spec.name = "fig11";
  m.spec.title = "Fig. 11 — DRAM bandwidth utilization by scheduler";
  m.spec.reference =
      "WG/WG-M lose utilization vs GMC on some apps; WG-Bw recovers >14%";
  return m;
}

/// Fig. 12 — write intensity and drain-stranded warp-groups (the WG-Bw
/// cells' write_intensity and drain_small_group_frac), and what WG-W
/// gains over WG-Bw where both are high (its wg_writeaware_selections
/// counts the overrides).
Manifest fig12(const SweepOptions& opts) {
  Manifest m;
  m.spec.name = "fig12";
  m.spec.title = "Fig. 12 — Write intensity and drain-stranded warp-groups";
  m.spec.reference =
      "WG-W wins where write intensity and small-group fraction are high "
      "(nw, SS)";
  m.spec.primary_metric = "ipc";
  m.spec.baseline_col = "WG-Bw";
  m.spec.col_order = {"WG-Bw", "WG-W"};
  m.grid.add_matrix(irregular_suite(),
                    {SchedulerKind::kWgBw, SchedulerKind::kWgW},
                    opts.shape());
  return m;
}

/// §VI-A — the regular (non-divergent) suite: warp-group scoring
/// degenerates to row-hit streaming, so WG-W must not slow anything down.
Manifest sec6a(const SweepOptions& opts) {
  Manifest m;
  m.spec.name = "sec6a";
  m.spec.title = "§VI-A — Regular (non-divergent) applications under WG-W";
  m.spec.reference = "+1.8% geomean over GMC; no application slows down";
  m.spec.primary_metric = "ipc";
  m.spec.baseline_col = "GMC";
  m.spec.col_order = {"GMC", "WG-W"};
  m.grid.add_matrix(regular_suite(), {SchedulerKind::kGmc,
                                      SchedulerKind::kWgW},
                    opts.shape());
  return m;
}

/// §VI-B — GDDR5 device power.  Cells are power normalized to GMC; the
/// energy-per-instruction ratio is that over the IPC ratio (equal run
/// length), and power_io_w gives the I/O share that caps the
/// activate-power penalty.
Manifest sec6b(const SweepOptions& opts) {
  Manifest m;
  m.spec.name = "sec6b";
  m.spec.title = "§VI-B — GDDR5 power impact of WG-W vs GMC";
  m.spec.reference =
      "row-hit rate -16% => device power +1.8%; net energy improves";
  m.spec.primary_metric = "power_total_w";
  m.spec.baseline_col = "GMC";
  m.spec.col_order = {"GMC", "WG-W"};
  m.grid.add_matrix(irregular_suite(),
                    {SchedulerKind::kGmc, SchedulerKind::kWgW},
                    opts.shape());
  return m;
}

/// §VI-C — prior GPU memory schedulers.  SBWAS gets one column per
/// alpha the paper profiles (SBWAS.25 is alpha 0.25); its per-workload
/// best is the maximum of the three.
Manifest sec6c(const SweepOptions& opts) {
  Manifest m;
  m.spec.name = "sec6c";
  m.spec.title = "§VI-C — SBWAS (profiled alpha) and WAFCFS vs GMC and WG-W";
  m.spec.reference =
      "SBWAS +2.51% (bfs best, +3.8%); WAFCFS -11.2%; WG-W +10.1%";
  m.spec.primary_metric = "ipc";
  m.spec.baseline_col = "GMC";
  const auto workloads = irregular_suite();
  m.spec.col_order.emplace_back("GMC");
  m.grid.add_column("GMC", workloads, SchedulerKind::kGmc, opts.shape());
  for (const auto& [label, alpha] :
       {std::pair{"SBWAS.25", 0.25}, std::pair{"SBWAS.50", 0.5},
        std::pair{"SBWAS.75", 0.75}}) {
    m.spec.col_order.emplace_back(label);
    m.grid.add_column(label, workloads, SchedulerKind::kSbwas, opts.shape(),
                      [alpha](SimConfig& c) { c.sbwas.alpha = alpha; });
  }
  m.spec.col_order.emplace_back("WAFCFS");
  m.grid.add_column("WAFCFS", workloads, SchedulerKind::kWafcfs,
                    opts.shape());
  m.spec.col_order.emplace_back("WG-W");
  m.grid.add_column("WG-W", workloads, SchedulerKind::kWgW, opts.shape());
  return m;
}

/// Ablation — the WG row-miss score (§IV-B1; paper value 3, from the
/// 36ns/12ns miss/hit latency ratio).  miss=1 collapses BASJF to request
/// counting.
Manifest scores(const SweepOptions& opts) {
  Manifest m;
  m.spec.name = "scores";
  m.spec.title = "Ablation — WG row-miss score (paper value: 3)";
  m.spec.reference =
      "score ratio approximates the 36ns/12ns miss/hit latency ratio";
  m.spec.primary_metric = "ipc";
  const auto workloads = irregular_suite();
  for (const std::uint32_t miss : {1u, 2u, 3u, 5u, 9u}) {
    const std::string col = "miss=" + std::to_string(miss);
    m.spec.col_order.push_back(col);
    m.grid.add_column(col, workloads, SchedulerKind::kWgW, opts.shape(),
                      [miss](SimConfig& c) { c.wg.score_miss = miss; });
  }
  return m;
}

/// Ablation — the WG-Bw orphan-control window (§IV-D; paper value 2):
/// leftover row hits served after the MERB threshold is met.  0 turns
/// orphan control off.
Manifest merb(const SweepOptions& opts) {
  Manifest m;
  m.spec.name = "merb";
  m.spec.title = "Ablation — WG-Bw orphan-control window (paper value: 2)";
  m.spec.reference =
      "orphan control tops up 1-2 stranded row hits before a row-miss";
  m.spec.primary_metric = "ipc";
  const auto workloads = irregular_suite();
  for (const std::uint32_t limit : {0u, 1u, 2u, 4u, 8u}) {
    const std::string col = "orphan=" + std::to_string(limit);
    m.spec.col_order.push_back(col);
    m.grid.add_column(col, workloads, SchedulerKind::kWgBw, opts.shape(),
                      [limit](SimConfig& c) { c.wg.orphan_limit = limit; });
  }
  return m;
}

/// Ablation — the WG-W trigger point (§IV-E; paper value 8): how close
/// to the write queue's high watermark the unit-group override starts.
Manifest writedrain(const SweepOptions& opts) {
  Manifest m;
  m.spec.name = "writedrain";
  m.spec.title = "Ablation — WG-W write-drain guard (paper value: 8)";
  m.spec.reference =
      "prioritise unit-remaining groups just before a drain begins";
  m.spec.primary_metric = "ipc";
  // The write-heavy benchmarks are where WG-W acts.
  const auto workloads = profiles({"nw", "SS", "sad", "PVC"});
  for (const std::uint32_t guard : {0u, 4u, 8u, 16u, 32u}) {
    const std::string col = "guard=" + std::to_string(guard);
    m.spec.col_order.push_back(col);
    m.grid.add_column(col, workloads, SchedulerKind::kWgW, opts.shape(),
                      [guard](SimConfig& c) { c.wg.wq_guard = guard; });
  }
  return m;
}

/// Ablation — SM warp scheduler (GTO vs loose round-robin) crossed with
/// GMC and WG-W.  Cells are normalized to GTO-GMC; the LRR gain is
/// LRR-WGW over LRR-GMC.
Manifest warpsched(const SweepOptions& opts) {
  Manifest m;
  m.spec.name = "warpsched";
  m.spec.title =
      "Ablation — SM warp scheduler (GTO vs LRR) x memory scheduler";
  m.spec.reference =
      "warp-aware DRAM scheduling helps under either SM issue policy";
  m.spec.primary_metric = "ipc";
  m.spec.baseline_col = "GTO-GMC";
  m.spec.col_order = {"GTO-GMC", "GTO-WGW", "LRR-GMC", "LRR-WGW"};
  const auto workloads = profiles({"bfs", "cfd", "SS", "sssp", "sad"});
  const ConfigHook lrr = [](SimConfig& c) {
    c.sm.warp_sched = WarpSchedPolicy::kLrr;
  };
  m.grid.add_column("GTO-GMC", workloads, SchedulerKind::kGmc, opts.shape());
  m.grid.add_column("GTO-WGW", workloads, SchedulerKind::kWgW, opts.shape());
  m.grid.add_column("LRR-GMC", workloads, SchedulerKind::kGmc, opts.shape(),
                    lrr);
  m.grid.add_column("LRR-WGW", workloads, SchedulerKind::kWgW, opts.shape(),
                    lrr);
  return m;
}

/// Extension — shared-data-aware warp-group priority (WG-Sh), the
/// paper's Conclusions' future work, normalized to WG-W; the w=N columns
/// sweep the shared-row weight and count wg_shared_boosts.
Manifest shared(const SweepOptions& opts) {
  Manifest m;
  m.spec.name = "shared";
  m.spec.title =
      "Extension — shared-data-aware warp-group priority (WG-Sh)";
  m.spec.reference =
      "paper Conclusions: future work beyond WG-W; weight swept below";
  m.spec.primary_metric = "ipc";
  m.spec.baseline_col = "WG-W";
  const auto workloads = irregular_suite();
  m.spec.col_order.emplace_back("WG-W");
  m.grid.add_column("WG-W", workloads, SchedulerKind::kWgW, opts.shape());
  for (const std::uint32_t weight : {1u, 2u, 4u}) {
    const std::string col = "w=" + std::to_string(weight);
    m.spec.col_order.push_back(col);
    m.grid.add_column(col, workloads, SchedulerKind::kWgShared, opts.shape(),
                      [weight](SimConfig& c) {
                        c.wg.shared_weight = weight;
                      });
  }
  return m;
}

/// Table I — boot-time MERB values for GDDR5 (analytic, no simulation).
/// The MERB column *validates* against the paper by throwing on a
/// mismatch, so a regression shows up as a failed point.
Manifest tab1(const SweepOptions&) {
  Manifest m;
  m.spec.name = "tab1";
  m.spec.title = "Table I — MERB table for GDDR5";
  m.spec.reference = "banks {1,2,3,4,5,6-16} -> MERB {31,20,10,7,5,5}";
  m.spec.primary_metric = "merb";
  m.spec.col_order = {"MERB", "paper"};
  static constexpr std::uint32_t kPaper[] = {31, 20, 10, 7, 5};
  for (std::uint32_t b = 1; b <= 16; ++b) {
    const std::uint32_t expect = b <= 5 ? kPaper[b - 1] : 5;
    const std::string row = "banks=" + std::to_string(b);
    ExpPoint computed;
    computed.id = row + "/MERB";
    computed.row = row;
    computed.col = "MERB";
    computed.analytic = [b, expect]() -> MetricMap {
      const MerbTable merb(DramTiming::from(DramParams{}));
      const std::uint32_t got = merb.value(b);
      if (got != expect) {
        throw std::runtime_error(
            "MERB mismatch at banks=" + std::to_string(b) + ": got " +
            std::to_string(got) + ", paper says " + std::to_string(expect));
      }
      return {{"merb", static_cast<double>(got)}};
    };
    m.grid.add(std::move(computed));

    ExpPoint paper;
    paper.id = row + "/paper";
    paper.row = row;
    paper.col = "paper";
    paper.analytic = [expect]() -> MetricMap {
      return {{"merb", static_cast<double>(expect)}};
    };
    m.grid.add(std::move(paper));
  }
  return m;
}

/// Ablation — WG-M coordination-network delivery latency (§IV-C).
Manifest coord(const SweepOptions& opts) {
  Manifest m;
  m.spec.name = "coord";
  m.spec.title =
      "Ablation — WG-M coordination latency (paper: ~2 flits on 16-bit "
      "links; we default to 4 cycles)";
  m.spec.reference =
      "stale remote scores reduce the laggard boosts that land in time";
  m.spec.primary_metric = "ipc";
  // The multi-controller apps are where coordination can matter.
  const auto workloads = profiles({"cfd", "sp", "sssp", "spmv"});
  for (const Cycle lat : {Cycle{1}, Cycle{4}, Cycle{16}, Cycle{64},
                          Cycle{256}}) {
    m.spec.col_order.push_back("lat=" + std::to_string(lat));
    m.grid.add_column(
        "lat=" + std::to_string(lat), workloads, SchedulerKind::kWgM,
        opts.shape(),
        [lat](SimConfig& c) { c.coordination_latency = lat; });
  }
  m.spec.col_order.emplace_back("WG");
  m.grid.add_column("WG", workloads, SchedulerKind::kWg, opts.shape());
  return m;
}

/// Ablation — GDDR5 vs DDR3-1600 device model (§II-B).  Cells report
/// instructions per microsecond (IPC is per core cycle and the core
/// clock derives from the device clock, so raw IPC is not comparable
/// across devices).
Manifest device(const SweepOptions& opts) {
  Manifest m;
  m.spec.name = "device";
  m.spec.title = "Ablation — GDDR5 vs DDR3-1600 device model";
  m.spec.reference =
      "§II-B: bank groups + low tFAW make GDDR5 suit frequent activates; "
      "warp-aware gains persist on both devices";
  m.spec.primary_metric = "instr_per_usec";
  m.spec.col_order = {"GMC@GDDR5", "WG-W@GDDR5", "GMC@DDR3", "WG-W@DDR3"};
  const auto workloads = profiles({"bfs", "nw", "sssp", "spmv"});
  const ConfigHook ddr3 = [](SimConfig& c) { c.dram = ddr3_1600_params(); };
  m.grid.add_column("GMC@GDDR5", workloads, SchedulerKind::kGmc,
                    opts.shape());
  m.grid.add_column("WG-W@GDDR5", workloads, SchedulerKind::kWgW,
                    opts.shape());
  m.grid.add_column("GMC@DDR3", workloads, SchedulerKind::kGmc, opts.shape(),
                    ddr3);
  m.grid.add_column("WG-W@DDR3", workloads, SchedulerKind::kWgW,
                    opts.shape(), ddr3);
  return m;
}

/// Scenario microkernel library x the full scheduler policy ladder.
/// Rows are the six scenario kernels (src/scenario), which exercise
/// access structures the statistical profiles cannot express; columns
/// are all nine policies, normalized to GMC.
Manifest kernels(const SweepOptions& opts) {
  Manifest m;
  m.spec.name = "kernels";
  m.spec.title =
      "Scenario microkernels — all scheduler policies, normalized to GMC";
  m.spec.reference =
      "second workload frontend (ROADMAP item 2): adversarial and "
      "structured kernels beyond the Table III statistics";
  m.spec.primary_metric = "ipc";
  m.spec.baseline_col = "GMC";
  static constexpr SchedulerKind kPolicies[] = {
      SchedulerKind::kFcfs,  SchedulerKind::kFrFcfs, SchedulerKind::kGmc,
      SchedulerKind::kWafcfs, SchedulerKind::kSbwas, SchedulerKind::kWg,
      SchedulerKind::kWgM,   SchedulerKind::kWgBw,   SchedulerKind::kWgW};
  for (const SchedulerKind kind : kPolicies) {
    m.spec.col_order.emplace_back(to_string(kind));
  }
  const RunShape shape = opts.shape();
  for (const scenario::ScenarioSpec& spec : scenario::scenario_catalog()) {
    for (const SchedulerKind kind : kPolicies) {
      for (std::uint32_t t = 0; t < shape.seeds; ++t) {
        ExpPoint p;
        p.row = spec.name;
        p.col = to_string(kind);
        p.seed = shape.base_seed + t;
        p.id = p.row + "/" + p.col + "/s" + std::to_string(p.seed);
        p.workload.name = spec.name;  // result label only
        p.scheduler = kind;
        p.cycles = shape.cycles;
        p.warmup = shape.warmup;
        // The catalog has static storage duration, so capturing the spec
        // by pointer is safe across executor threads.
        const scenario::ScenarioSpec* s = &spec;
        p.hook = [s](SimConfig& c) {
          c.instr_source = [s](std::uint32_t sms, std::uint32_t warps,
                               std::uint64_t seed) {
            return scenario::make_scenario(*s, sms, warps, seed);
          };
        };
        m.grid.add(std::move(p));
      }
    }
  }
  return m;
}

struct Entry {
  const char* name;
  const char* summary;
  Manifest (*build)(const SweepOptions&);
};

/// Every manifest, in the paper's order (ablations and extensions last).
constexpr Entry kCatalogue[] = {
    {"tab1", "boot-time MERB table vs the paper (analytic)", tab1},
    {"fig2", "coalescing efficiency under GMC, irregular and regular suites",
     fig2},
    {"fig3", "latency divergence extent under GMC (last/first, MCs, banks)",
     fig3},
    {"fig4", "Perfect Coalescing and Zero Latency Divergence ideals vs GMC",
     fig4},
    {"fig8",
     "IPC of the warp-aware scheduler ladder vs GMC, 11 irregular workloads",
     fig8},
    {"fig9", "effective memory latency of the scheduler ladder vs GMC", fig9},
    {"fig10", "first-to-last divergence gap of the scheduler ladder vs GMC",
     fig10},
    {"fig11", "DRAM bandwidth utilization of the scheduler ladder vs GMC",
     fig11},
    {"fig12", "write intensity, drain-stranded groups and WG-W vs WG-Bw",
     fig12},
    {"sec6a", "regular (non-divergent) suite under WG-W vs GMC", sec6a},
    {"sec6b", "GDDR5 device power of WG-W vs GMC", sec6b},
    {"sec6c", "SBWAS (alpha 0.25/0.5/0.75), WAFCFS and WG-W vs GMC", sec6c},
    {"scores", "WG row-miss score sweep under WG-W", scores},
    {"merb", "WG-Bw orphan-control window sweep", merb},
    {"coord", "WG-M coordination-latency sweep on the multi-controller apps",
     coord},
    {"writedrain", "WG-W write-drain guard sweep on the write-heavy apps",
     writedrain},
    {"device", "GDDR5 vs DDR3-1600 throughput under GMC and WG-W", device},
    {"warpsched", "GTO vs LRR SM warp scheduling x GMC and WG-W", warpsched},
    {"shared", "shared-data-aware WG-Sh weight sweep vs WG-W", shared},
    {"kernels", "scenario microkernel library x all 9 scheduler policies",
     kernels},
};

const Entry* find_entry(const std::string& name) {
  for (const Entry& e : kCatalogue) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

}  // namespace

const std::vector<std::string>& manifest_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const Entry& e : kCatalogue) names.emplace_back(e.name);
    return names;
  }();
  return kNames;
}

std::string manifest_summary(const std::string& name) {
  const Entry* e = find_entry(name);
  return e == nullptr ? "" : e->summary;
}

Manifest make_manifest(const std::string& name, const SweepOptions& opts) {
  const Entry* e = find_entry(name);
  if (e == nullptr) {
    throw std::invalid_argument("unknown manifest '" + name + "'");
  }
  Manifest m = e->build(opts);
  m.grid.keep_matching(opts.filter);
  return m;
}

}  // namespace latdiv::exp
