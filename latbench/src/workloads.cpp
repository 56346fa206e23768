#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "ckpt/sampler.hpp"
#include "ckpt/snapshot.hpp"
#include "common/crc32.hpp"
#include "exp/reporter.hpp"
#include "probe.hpp"
#include "sim/simulator.hpp"
#include "traced.hpp"

namespace latbench {

using latdiv::Cycle;
using latdiv::SchedulerKind;
using latdiv::SimConfig;
using latdiv::Simulator;
namespace exp = latdiv::exp;
namespace ckpt = latdiv::ckpt;

namespace {

/// sampled-long run shape: long runs under the default SMARTS schedule,
/// fanned out over two threads.
constexpr Cycle kSampledCycles = 360'000;
constexpr Cycle kSampledWarmup = 36'000;
constexpr unsigned kSampledJobs = 2;

/// Simulators an untraced pass builds to time set-up: each point's is
/// built ceil(kSetupMinSims / points) times (about 0.1 ms each), right
/// after the point runs, so the sample spans the whole pass.
constexpr std::size_t kSetupMinSims = 256;

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

/// The SimConfig exp::execute_point builds for a simulated point.  Used
/// where the benchmark needs the configuration itself: the traced passes,
/// run_sampled (which execute_point cannot fan out) and set-up timing.
SimConfig config_for(const exp::ExpPoint& p) {
  if (p.analytic || !p.load_snapshot_path.empty() ||
      !p.save_snapshot_path.empty() ||
      p.runner != exp::ExpPoint::Runner::kDetailed) {
    throw std::invalid_argument("point " + p.id +
                                " is not a plain detailed simulation");
  }
  SimConfig cfg;
  cfg.workload = p.workload;
  cfg.scheduler = p.scheduler;
  cfg.max_cycles = p.cycles;
  cfg.warmup_cycles = p.warmup;
  cfg.seed = p.seed;
  if (p.hook) p.hook(cfg);
  return cfg;
}

/// Mean host seconds to construct the point's Simulator (destruction
/// excluded), over `reps` constructions.
double construction_s(const exp::ExpPoint& p, std::size_t reps) {
  const SimConfig cfg = config_for(p);
  std::int64_t ns = 0;
  for (std::size_t r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    const Simulator sim(cfg);
    ns += now_ns() - t0;
  }
  return static_cast<double>(ns) * 1e-9 / static_cast<double>(reps);
}

/// Integer sums over the measured windows: every simulated quantity a
/// sampled run produces before extrapolation.
exp::MetricMap sampled_metrics(const ckpt::SampledResult& s) {
  std::uint64_t cycles = 0, instr = 0, reads = 0, writes = 0, acts = 0,
                busy = 0;
  for (const ckpt::SampledWindow& w : s.windows) {
    cycles += w.cycles;
    instr += w.instructions;
    reads += w.dram_reads;
    writes += w.dram_writes;
    acts += w.dram_activates;
    busy += w.data_bus_busy_cycles;
  }
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {{"sampled.windows", d(s.windows.size())},
          {"sampled.detailed_cycles", d(s.detailed_cycles)},
          {"sampled.warm_instructions", d(s.warm_instructions)},
          {"window.cycles", d(cycles)},
          {"window.instructions", d(instr)},
          {"window.dram_reads", d(reads)},
          {"window.dram_writes", d(writes)},
          {"window.dram_activates", d(acts)},
          {"window.bus_busy_cycles", d(busy)}};
}

/// ckpt::run_sampled's fan-out schedule (jobs > 1) replayed serially from
/// public calls, so each call can be timed.  Its result is independent of
/// the job count by run_sampled's contract; the benchmark checks it
/// against the untraced run.
ckpt::SampledResult replay_sampled(const SimConfig& cfg,
                                   const ckpt::SamplingConfig& scfg,
                                   Ledger* ledger, PassResult& pass) {
  ckpt::SampledResult r;
  r.start = 0;
  r.end = cfg.max_cycles;
  const Cycle period = scfg.period_cycles;
  const Cycle prime_span =
      std::min<Cycle>(scfg.warm_cycles + scfg.detail_cycles, cfg.max_cycles);

  std::unique_ptr<Simulator> lead;
  {
    const Scope s(ledger, Layer::kSetup);
    lead = std::make_unique<Simulator>(cfg);
  }
  ckpt::SampledRunner prime(*lead, scfg);
  {
    const Scope s(ledger, Layer::kPrime);
    const Cycle warm = std::min(scfg.warm_cycles, prime_span);
    r.windows.push_back(prime.measure_window(warm, prime_span - warm));
  }
  r.detailed_cycles += prime_span;
  std::vector<unsigned char> snap;
  {
    const Scope s(ledger, Layer::kSave);
    snap = ckpt::save_snapshot(*lead);
  }
  pass.snapshot_bytes += snap.size();
  const std::vector<std::uint64_t> rates = prime.issue_rates();
  {
    const Scope s(ledger, Layer::kReport);
    pass.counters.add(lead->finish());
  }
  lead.reset();

  for (Cycle start = period; start < cfg.max_cycles; start += period) {
    std::unique_ptr<Simulator> sim;
    {
      const Scope s(ledger, Layer::kSetup);
      sim = std::make_unique<Simulator>(cfg);
    }
    {
      const Scope s(ledger, Layer::kLoad);
      ckpt::load_snapshot(*sim, snap.data(), snap.size());
    }
    ckpt::SampledRunner worker(*sim, scfg);
    worker.freeze_issue_rates(rates);
    {
      const Scope s(ledger, Layer::kSkip);
      worker.skip_to(start);
    }
    const Cycle period_end = std::min(start + period, cfg.max_cycles);
    const Cycle warm = std::min(scfg.warm_cycles, period_end - start);
    const Cycle detail =
        std::min(scfg.detail_cycles, period_end - start - warm);
    if (detail == 0) continue;  // clipped tail: nothing measurable
    ckpt::SampledWindow w;
    {
      const Scope s(ledger, Layer::kMeasure);
      w = worker.measure_window(warm, detail);
    }
    if (w.cycles == 0) continue;
    r.windows.push_back(w);
    r.detailed_cycles +=
        std::min(scfg.warm_cycles, cfg.max_cycles - start) + w.cycles;
    r.warm_instructions += worker.warm_instructions();
    {
      const Scope s(ledger, Layer::kReport);
      pass.counters.add(sim->finish());
    }
  }
  return r;
}

/// One detailed point.  Untraced it is exp::execute_point, the executor
/// every sweep runs, and the simulate time is the point's own wall_ms
/// (Simulator construction and finish() included: about 0.1 ms of a point
/// of about 100 ms).  Traced it steps cycle by cycle (fast-forward off,
/// which the simulator guarantees is result-identical) so each step can
/// be timed.  Returns the host seconds spent simulating.
double run_detailed(const exp::ExpPoint& p, Ledger* ledger,
                    exp::PointResult& res, PassResult& pass) {
  if (ledger == nullptr) {
    res = exp::execute_point(p);
    if (!res.ok) throw std::runtime_error(res.error);
    pass.cycles += static_cast<std::uint64_t>(res.metrics.at("dram_cycles"));
    return res.wall_ms * 1e-3;
  }
  SimConfig cfg = config_for(p);
  instrument(cfg, *ledger, /*wrap_policy=*/true);
  std::unique_ptr<Simulator> sim;
  {
    const Scope s(ledger, Layer::kSetup);
    sim = std::make_unique<Simulator>(cfg);
  }
  const std::int64_t t1 = now_ns();
  const Cycle ratio = cfg.sm.core_clock_ratio;
  while (sim->now() < cfg.max_cycles) {
    const Scope s(ledger, sim->now() % ratio == 0 ? Layer::kStepCore
                                                  : Layer::kStepDram);
    sim->step();
  }
  const std::int64_t t2 = now_ns();
  const Scope s(ledger, Layer::kReport);
  const latdiv::RunResult r = sim->finish();
  res.scheduler = latdiv::to_string(p.scheduler);
  res.metrics = exp::metrics_from(r);
  pass.cycles += r.dram_cycles;
  pass.counters.add(r);
  return seconds_between(t1, t2);
}

/// Returns the host seconds spent in the sampled run.
double run_sampled_point(const exp::ExpPoint& p, Mode mode, Ledger* ledger,
                         exp::PointResult& res, PassResult& pass) {
  SimConfig cfg = config_for(p);
  if (ledger != nullptr) instrument(cfg, *ledger, /*wrap_policy=*/false);
  const ckpt::SamplingConfig scfg;
  const std::int64_t t0 = now_ns();
  const ckpt::SampledResult s =
      mode == Mode::kUntraced
          ? ckpt::run_sampled(cfg, scfg, kSampledJobs)
          : replay_sampled(cfg, scfg, ledger, pass);
  const double simulate_s = seconds_between(t0, now_ns());
  const Scope sc(ledger, Layer::kReport);
  res.scheduler = latdiv::to_string(p.scheduler);
  res.metrics = sampled_metrics(s);
  pass.cycles += s.end - s.start;
  pass.windows += s.windows.size();
  return simulate_s;
}

/// Mean absolute error, in percentage points, of the fig8 ladder's
/// geomean IPC speedups over GMC against the paper's Fig. 8.
double paper_err_pp(const exp::Artifact& a) {
  static constexpr std::pair<const char*, double> kPaper[] = {
      {"WG", 3.4}, {"WG-M", 6.2}, {"WG-Bw", 8.4}, {"WG-W", 10.1}};
  double err = 0.0;
  for (const auto& [col, paper] : kPaper) {
    const auto it = a.col_geomean.find(col);
    if (it == a.col_geomean.end()) return 0.0;
    err += std::fabs((it->second - 1.0) * 100.0 - paper);
  }
  return err / 4.0;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  static const WorkloadSpec kCatalog[] = {
      // The north-star sweep: 11 irregular profiles x the GMC..WG-W
      // ladder, cold caches.  The WG policy in core takes about a third
      // of host time here.
      {"fig8-quick", "bench/golden/fig8_quick.json", "fig8"},
      // The bypass case for core: 6 scenario kernels x 9 policies.  Cost
      // moves to the baseline mc policies and to warp issue on
      // latency-bound kernels.
      {"kernels-quick", "bench/golden/kernels_quick.json", "kernels"},
      // The same components used differently: windows start from warmed
      // caches and steady-state queues, and only this workload runs ckpt
      // and the worker pool.
      {"sampled-long", "latbench/expected/sampled_long.json", ""},
  };
  for (const WorkloadSpec& w : kCatalog) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Plan expand(const WorkloadSpec& w, std::uint64_t seed) {
  Plan plan;
  if (*w.manifest != '\0') {
    exp::SweepOptions opts;
    opts.quick = true;
    opts.seed = seed;
    exp::Manifest m = exp::make_manifest(w.manifest, opts);
    plan.spec = std::move(m.spec);
    plan.shape = opts.shape();
    plan.points = m.grid.points();
    return plan;
  }
  plan.spec.name = w.name;
  plan.spec.title = "Sampled long runs — irregular suite, GMC vs WG-W";
  plan.spec.reference = "raw measured-window sums; no paper reference";
  plan.spec.primary_metric = "window.instructions";
  plan.spec.baseline_col = "GMC";
  plan.spec.col_order = {"GMC", "WG-W"};
  plan.shape.cycles = kSampledCycles;
  plan.shape.warmup = kSampledWarmup;
  plan.shape.base_seed = seed;
  exp::ExpGrid grid;
  grid.add_matrix(latdiv::irregular_suite(),
                  {SchedulerKind::kGmc, SchedulerKind::kWgW}, plan.shape);
  plan.points = grid.points();
  return plan;
}

std::uint32_t plan_fingerprint(const Plan& plan) {
  std::vector<unsigned char> buf;
  for (const exp::ExpPoint& p : plan.points) {
    const std::uint32_t f = ckpt::config_fingerprint(config_for(p));
    for (int b = 0; b < 4; ++b) {
      buf.push_back(static_cast<unsigned char>(f >> (8 * b)));
    }
  }
  return latdiv::crc32(buf.data(), buf.size());
}

void SimCounters::add(const latdiv::RunResult& r) {
  ++sims;
  instructions += r.instructions;
  no_ready_warp_cycles += r.sm_no_ready_warp_cycles;
  issue_stall_mshr += r.sm_issue_stall_mshr;
  inject_stalls += r.icnt_inject_stalls;
  drains_started += r.mc_drains_started;
  dram_reads += r.dram_reads;
  dram_writes += r.dram_writes;
  dram_activates += r.dram_activates;
  groups_selected += r.wg_groups_selected;
  merb_deferrals += r.wg_merb_deferrals;
  coord_messages += r.coord_messages;
  l1_hit_rate_sum += r.l1_hit_rate;
  l2_hit_rate_sum += r.l2_hit_rate;
  row_hit_rate_sum += r.row_hit_rate;
  read_queueing_sum += r.mc_read_queueing_cycles;
}

PassResult run_pass(const WorkloadSpec& w, std::uint64_t seed, Mode mode,
                    Ledger* ledger, const std::string& artifact_path) {
  if ((mode == Mode::kTraced) != (ledger != nullptr)) {
    throw std::logic_error("a ledger is required exactly for traced passes");
  }
  const bool sampled = *w.manifest == '\0';
  if (mode == Mode::kReplay && !sampled) {
    throw std::logic_error("replay mode applies to the sampled workload");
  }
  PassResult pass;
  if (ledger != nullptr) ledger->set_point(Ledger::kNoPoint);
  // Untraced passes time set-up and the host-speed probe as they go (see
  // PassResult::setup_s and probe_ms); those side measurements are kept
  // out of the pass's wall time.
  const bool time_setup = ledger == nullptr;
  std::int64_t side_ns = 0;
  // The pass's wall clock is read outside the ledger's root frame, so the
  // two are independent measurements of the same interval.
  const std::int64_t start = now_ns();
  {
    const Scope root(ledger, Layer::kPass);
    Plan plan;
    {
      const Scope s(ledger, Layer::kSetup);
      plan = expand(w, seed);
    }
    pass.setup_s = seconds_between(start, now_ns());
    const std::size_t n = std::max<std::size_t>(plan.points.size(), 1);
    const std::size_t reps = (kSetupMinSims + n - 1) / n;
    pass.points.resize(plan.points.size());
    pass.point_ms.assign(plan.points.size(), 0.0);
    for (std::size_t i = 0; i < plan.points.size(); ++i) {
      const exp::ExpPoint& p = plan.points[i];
      exp::PointResult& res = pass.points[i];
      res.id = p.id;
      res.row = p.row;
      res.col = p.col;
      res.workload = p.workload.name;
      res.seed = p.seed;
      if (ledger != nullptr) ledger->set_point(static_cast<std::uint32_t>(i));
      const std::int64_t t0 = now_ns();
      try {
        const Scope s(ledger, Layer::kPoint);
        pass.simulate_s += sampled
                               ? run_sampled_point(p, mode, ledger, res, pass)
                               : run_detailed(p, ledger, res, pass);
        res.ok = true;
      } catch (const std::exception& e) {
        res.ok = false;
        res.error = e.what();
        res.metrics.clear();
      }
      res.wall_ms = seconds_between(t0, now_ns()) * 1e3;
      pass.point_ms[i] = res.wall_ms;
      if (time_setup) {
        const std::int64_t t1 = now_ns();
        pass.probe_ms += probe_ms();
        pass.setup_s += construction_s(p, reps);
        side_ns += now_ns() - t1;
      }
    }
    if (time_setup && !plan.points.empty()) {
      pass.probe_ms /= static_cast<double>(plan.points.size());
    }
    if (ledger != nullptr) ledger->set_point(Ledger::kNoPoint);
    const Scope s(ledger, Layer::kReport);
    const exp::Artifact a = exp::make_artifact(plan.spec, plan.shape,
                                               pass.points);
    if (std::string(w.manifest) == "fig8") {
      pass.paper_err_pp = paper_err_pp(a);
    }
    std::ofstream out(artifact_path, std::ios::binary);
    out << exp::to_json(a);
    if (!out) throw std::runtime_error("cannot write " + artifact_path);
  }
  pass.wall_s = seconds_between(start + side_ns, now_ns());
  return pass;
}

}  // namespace latbench
