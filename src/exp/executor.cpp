#include "exp/executor.hpp"

#include <chrono>

#include "ckpt/sampler.hpp"
#include "ckpt/snapshot.hpp"
#include "common/annotations.hpp"
#include "common/parallel.hpp"
#include "sim/simulator.hpp"

namespace latdiv::exp {

namespace {

/// Estimate metrics of a sampled point.  Deliberately a small, prefixed
/// set: sampled runs produce *estimates* of the headline rates, not the
/// full detailed metric census, and artifacts must make the difference
/// impossible to miss.
MetricMap metrics_from_sampled(const ckpt::SampledResult& s) {
  MetricMap m;
  m["ipc"] = s.ipc;
  m["instructions"] = s.instructions;
  m["row_hit_rate"] = s.row_hit_rate;
  m["bandwidth_utilization"] = s.bandwidth_utilization;
  m["sampled.windows"] = static_cast<double>(s.windows.size());
  m["sampled.detailed_cycles"] = static_cast<double>(s.detailed_cycles);
  m["sampled.warm_instructions"] =
      static_cast<double>(s.warm_instructions);
  const Cycle total = s.end - s.start;
  m["sampled.speedup"] =
      s.detailed_cycles > 0
          ? static_cast<double>(total) /
                static_cast<double>(s.detailed_cycles)
          : 1.0;
  return m;
}

}  // namespace

MetricMap metrics_from(const RunResult& r) {
  MetricMap m;
  // Performance.
  m["ipc"] = r.ipc;
  m["instr_per_usec"] = r.instr_per_usec;
  m["instructions"] = static_cast<double>(r.instructions);
  m["core_cycles"] = static_cast<double>(r.core_cycles);
  m["dram_cycles"] = static_cast<double>(r.dram_cycles);
  // Coalescing (Fig. 2).
  m["loads"] = r.loads;
  m["divergent_load_frac"] = r.divergent_load_frac;
  m["requests_per_load"] = r.requests_per_load;
  // Divergence & latency (Figs. 3, 9, 10).
  m["effective_mem_latency_ns"] = r.effective_mem_latency_ns;
  m["first_req_latency_ns"] = r.first_req_latency_ns;
  m["divergence_gap_ns"] = r.divergence_gap_ns;
  m["last_to_first_ratio"] = r.last_to_first_ratio;
  m["mcs_per_warp"] = r.mcs_per_warp;
  m["banks_per_warp"] = r.banks_per_warp;
  m["same_row_frac"] = r.same_row_frac;
  // DRAM-side (Figs. 11, 12; §VI-B).
  m["bandwidth_utilization"] = r.bandwidth_utilization;
  m["row_hit_rate"] = r.row_hit_rate;
  m["write_intensity"] = r.write_intensity;
  m["drain_small_group_frac"] = r.drain_small_group_frac;
  m["dram_reads"] = static_cast<double>(r.dram_reads);
  m["dram_writes"] = static_cast<double>(r.dram_writes);
  m["dram_activates"] = static_cast<double>(r.dram_activates);
  m["power_total_w"] = r.power.total();
  m["power_io_w"] = r.power.io;
  // Caches.
  m["l1_hit_rate"] = r.l1_hit_rate;
  m["l2_hit_rate"] = r.l2_hit_rate;
  // Back-pressure.
  m["sm_issue_stall_mshr"] = static_cast<double>(r.sm_issue_stall_mshr);
  m["sm_no_ready_warp_cycles"] =
      static_cast<double>(r.sm_no_ready_warp_cycles);
  m["icnt_inject_stalls"] = static_cast<double>(r.icnt_inject_stalls);
  m["mc_read_queueing_cycles"] = r.mc_read_queueing_cycles;
  m["mc_read_service_cycles"] = r.mc_read_service_cycles;
  m["mc_drains_started"] = static_cast<double>(r.mc_drains_started);
  // Policy-internal counters.
  m["wg_groups_selected"] = static_cast<double>(r.wg_groups_selected);
  m["wg_fallback_selections"] =
      static_cast<double>(r.wg_fallback_selections);
  m["wg_merb_deferrals"] = static_cast<double>(r.wg_merb_deferrals);
  m["wg_writeaware_selections"] =
      static_cast<double>(r.wg_writeaware_selections);
  m["wg_shared_boosts"] = static_cast<double>(r.wg_shared_boosts);
  m["coord_messages"] = static_cast<double>(r.coord_messages);
  return m;
}

PointResult execute_point(const ExpPoint& p) {
  PointResult res;
  res.id = p.id;
  res.row = p.row;
  res.col = p.col;
  res.seed = p.seed;
  // wall_ms is a measurement, excluded from deterministic artifacts.
  const auto start = std::chrono::steady_clock::now();  // lint: wall-clock-ok
  try {
    if (p.analytic) {
      res.metrics = p.analytic();
    } else {
      res.workload = p.workload.name;
      SimConfig cfg;
      cfg.workload = p.workload;
      cfg.scheduler = p.scheduler;
      cfg.max_cycles = p.cycles;
      cfg.warmup_cycles = p.warmup;
      cfg.seed = p.seed;
      if (p.hook) p.hook(cfg);
      Simulator sim(cfg);
      if (!p.load_snapshot_path.empty()) {
        ckpt::load_snapshot_file(sim, p.load_snapshot_path);
      }
      if (p.runner == ExpPoint::Runner::kSampled) {
        ckpt::SampledRunner runner(sim, p.sampling);
        const ckpt::SampledResult s = runner.run();
        res.scheduler = to_string(cfg.scheduler);
        res.metrics = metrics_from_sampled(s);
        res.ok = true;
        res.wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() -  // lint: wall-clock-ok
                start)
                .count();
        return res;
      }
      // Detailed runner; the optional snapshot is taken after the last
      // simulated cycle so a later point (or a resumed sweep) can pick
      // up exactly where this one stopped.
      sim.run_to(cfg.max_cycles);
      if (!p.save_snapshot_path.empty()) {
        ckpt::save_snapshot_file(sim, p.save_snapshot_path);
      }
      const RunResult r = sim.finish();
      res.scheduler = r.scheduler;
      res.metrics = metrics_from(r);
      // Observability percentiles ride along only when the point opted
      // into the obs layer — base artifacts (and committed goldens) keep
      // their exact metric set.
      if (const obs::ObsHub* hub = sim.obs()) {
        const auto add_percentiles = [&res, hub](const std::string& key,
                                                 const char* hist) {
          const obs::Log2Histogram* h = hub->metrics().find_histogram(hist);
          if (h == nullptr || h->total() == 0) return;
          res.metrics[key + "_p50"] = static_cast<double>(h->quantile(0.50));
          res.metrics[key + "_p90"] = static_cast<double>(h->quantile(0.90));
          res.metrics[key + "_p99"] = static_cast<double>(h->quantile(0.99));
        };
        add_percentiles("obs.divergence_gap", "warp.divergence_gap");
        add_percentiles("obs.last_latency", "warp.last_latency");
        add_percentiles("obs.read_service", "req.read_service");
        // Attribution point metrics, only for points that opted in —
        // attrib-off artifacts keep their exact metric set.
        if (r.attrib.enabled) {
          const obs::AttribSummary& a = r.attrib;
          res.metrics["attrib.loads"] = static_cast<double>(a.loads);
          res.metrics["attrib.mismatches"] =
              static_cast<double>(a.mismatches);
          res.metrics["attrib.unmatched"] = static_cast<double>(a.unmatched);
          res.metrics["attrib.total_cycles"] =
              static_cast<double>(a.total_cycles);
          for (std::size_t c = 0; c < obs::kAttribCauseCount; ++c) {
            const std::string name =
                obs::attrib_cause_name(static_cast<obs::AttribCause>(c));
            res.metrics["attrib." + name + "_cycles"] =
                static_cast<double>(a.cause_cycles[c]);
            res.metrics["attrib." + name + "_p99"] =
                static_cast<double>(a.cause_p99[c]);
          }
          for (std::size_t c = 0; c < obs::kAttribBlameCauses; ++c) {
            const std::string name =
                obs::attrib_cause_name(static_cast<obs::AttribCause>(c));
            res.metrics["attrib.blame." + name] =
                static_cast<double>(a.blame[c]);
          }
          res.metrics["attrib.blame.none"] =
              static_cast<double>(a.blame_none);
        }
      }
    }
    res.ok = true;
  } catch (const std::exception& e) {
    res.ok = false;
    res.error = e.what();
    res.metrics.clear();
  } catch (...) {
    res.ok = false;
    res.error = "unknown exception";
    res.metrics.clear();
  }
  res.wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)  // lint: wall-clock-ok
          .count();
  return res;
}

std::vector<PointResult> run_grid(const ExpGrid& grid, unsigned jobs,
                                  const ProgressFn& progress) {
  const std::vector<ExpPoint>& points = grid.points();
  std::vector<PointResult> results(points.size());

  latdiv::Mutex mu;
  std::size_t done = 0;  // guarded by mu
  parallel_for(points.size(), jobs, [&](std::size_t i) {
    results[i] = execute_point(points[i]);
    const latdiv::MutexLock lock(mu);
    ++done;  // monotonic: one increment per completed point
    if (progress) progress(done, points.size(), results[i]);
  });
  return results;
}

}  // namespace latdiv::exp
