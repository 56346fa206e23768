#include "ckpt/sampler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "ckpt/snapshot.hpp"
#include "common/parallel.hpp"
#include "sim/simulator.hpp"

namespace latdiv::ckpt {

namespace {

/// Upper bound on functional-warming draws per SM per skip, so a
/// mis-estimated rate cannot turn a skip into a slow replay.
constexpr std::uint64_t kMaxWarmInstrPerSm = 50'000;

struct DramDeltas {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t activates = 0;
  std::uint64_t data_bus_busy = 0;
};

DramDeltas dram_totals(Simulator& sim) {
  DramDeltas t;
  for (std::size_t p = 0; p < sim.config().icnt.partitions; ++p) {
    const ChannelStats& cs = sim.partition(p).mc().channel().stats();
    t.reads += cs.reads;
    t.writes += cs.writes;
    t.activates += cs.activates;
    t.data_bus_busy += cs.data_bus_busy_cycles;
  }
  return t;
}

std::uint64_t total_instructions(Simulator& sim) {
  std::uint64_t n = 0;
  for (std::size_t s = 0; s < sim.config().num_sms; ++s) {
    n += sim.sm(s).stats().instructions;
  }
  return n;
}

/// Extrapolate whole-run estimates from the measured windows.  Each
/// window speaks for its full period (the last period's span may be
/// clipped by the run end), so rates are weighted by covered span; the
/// DRAM fractions pool the window deltas instead (windows are equal
/// length, and ratios of pooled counts are robust to near-idle windows).
void aggregate(SampledResult& r, const SimConfig& sc, Cycle period) {
  double instr_estimate = 0.0;
  double covered = 0.0;
  std::uint64_t cas = 0, acts = 0, busy = 0, win_cycles = 0;
  for (const SampledWindow& w : r.windows) {
    const Cycle period_start = w.start - (w.start - r.start) % period;
    const Cycle period_end = std::min(period_start + period, r.end);
    const double period_span = static_cast<double>(period_end - period_start);
    if (w.cycles > 0) {
      instr_estimate += static_cast<double>(w.instructions) /
                        static_cast<double>(w.cycles) * period_span;
    }
    covered += period_span;
    cas += w.dram_reads + w.dram_writes;
    acts += w.dram_activates;
    busy += w.data_bus_busy_cycles;
    win_cycles += w.cycles;
  }
  r.instructions = instr_estimate;
  if (covered > 0.0) {
    r.ipc = instr_estimate * sc.sm.core_clock_ratio / covered;
  }
  if (cas > 0) {
    // Window edges can split an activate from its column accesses, so the
    // pooled ratio can dip below zero on near-zero-locality workloads;
    // clamp like the detailed metric (which never goes negative).
    r.row_hit_rate = std::max(
        0.0, 1.0 - static_cast<double>(acts) / static_cast<double>(cas));
  }
  if (win_cycles > 0) {
    r.bandwidth_utilization =
        static_cast<double>(busy) /
        (static_cast<double>(win_cycles) * sc.icnt.partitions);
  }
}

}  // namespace

SampledRunner::SampledRunner(Simulator& sim, const SamplingConfig& cfg)
    : sim_(sim), cfg_(cfg) {
  if (cfg_.detail_cycles == 0) {
    throw std::invalid_argument("sampling requires a positive detailed window");
  }
  // W + D <= P, tested without forming W + D, which can wrap.
  if (cfg_.warm_cycles > cfg_.period_cycles ||
      cfg_.detail_cycles > cfg_.period_cycles - cfg_.warm_cycles) {
    throw std::invalid_argument(
        "sampling period must cover warm-up plus the detailed window");
  }
  const SimConfig& sc = sim.config();
  if (sc.check.protocol || sc.check.invariants || sc.obs.enabled()) {
    throw std::invalid_argument(
        "sampled mode requires checkers and the obs hub disabled");
  }
  rate_pm_.assign(sc.num_sms, 0);
  warm_rr_.assign(sc.num_sms, 0);
}

void SampledRunner::freeze_issue_rates(std::vector<std::uint64_t> rates) {
  rate_pm_ = std::move(rates);
  rate_pm_.resize(sim_.config().num_sms, 0);
  rates_frozen_ = true;
}

SampledWindow SampledRunner::measure_window(Cycle warm, Cycle detail) {
  const SimConfig& sc = sim_.config();
  sim_.run_to(sim_.now() + warm);

  SampledWindow w;
  w.start = sim_.now();
  const std::uint64_t instr0 = total_instructions(sim_);
  const DramDeltas d0 = dram_totals(sim_);
  // Per-SM starting counts for the issue-rate estimator.
  std::vector<std::uint64_t> sm0(sc.num_sms);
  for (std::size_t s = 0; s < sc.num_sms; ++s) {
    sm0[s] = sim_.sm(s).stats().instructions;
  }

  sim_.run_to(w.start + detail);
  w.cycles = sim_.now() - w.start;
  w.instructions = total_instructions(sim_) - instr0;
  const DramDeltas d1 = dram_totals(sim_);
  w.dram_reads = d1.reads - d0.reads;
  w.dram_writes = d1.writes - d0.writes;
  w.dram_activates = d1.activates - d0.activates;
  w.data_bus_busy_cycles = d1.data_bus_busy - d0.data_bus_busy;
  if (w.cycles > 0) {
    w.ipc = static_cast<double>(w.instructions) * sc.sm.core_clock_ratio /
            static_cast<double>(w.cycles);
  }

  // Refresh the per-mille issue-rate estimate from this window.
  if (!rates_frozen_ && w.cycles > 0) {
    for (std::size_t s = 0; s < sc.num_sms; ++s) {
      rate_pm_[s] =
          (sim_.sm(s).stats().instructions - sm0[s]) * 1'000 / w.cycles;
    }
  }
  return w;
}

void SampledRunner::skip_to(Cycle target) {
  const SimConfig& sc = sim_.config();
  const AddressMap& amap = sim_.address_map();
  const Cycle span = target - sim_.now();
  InstrSource& src = sim_.instr_source();
  std::vector<Channel*> channels(sc.icnt.partitions);
  for (std::size_t p = 0; p < channels.size(); ++p) {
    channels[p] = &sim_.partition(p).mc().channel_mut();
  }
  for (std::uint32_t s = 0; s < sc.num_sms; ++s) {
    Sm& sm = sim_.sm(s);
    const std::uint64_t want =
        std::min(rate_pm_[s] * span / 1'000, kMaxWarmInstrPerSm);
    for (std::uint64_t i = 0; i < want; ++i) {
      const WarpId warp = static_cast<WarpId>(warm_rr_[s]++ % sc.sm.warps);
      const WarpInstr instr = src.next(static_cast<SmId>(s), warp);
      ++warm_instructions_;
      if (instr.kind == WarpInstr::Kind::kCompute) continue;
      // One warm per run of adjacent lanes on one line: the run's later
      // lanes re-touch a line its first lane left present, and a repeated
      // (bank, row) warm is a no-op.  Non-adjacent repeats (a,a,b,a) stay
      // separate accesses, since they reorder LRU.
      std::uint32_t lane = 0;
      while (lane < instr.active_lanes) {
        const Addr line = amap.line_base(instr.lane_addr[lane]);
        std::uint32_t end = lane + 1;
        while (end < instr.active_lanes &&
               amap.line_base(instr.lane_addr[end]) == line) {
          ++end;
        }
        if (instr.kind == WarpInstr::Kind::kLoad) {
          // L1 allocates on loads only (write-through no-allocate).
          sm.warm_line(line, end - lane);
        }
        const DramLoc loc = amap.decode(line);
        channels[loc.channel]->warm_row(loc.bank, loc.row);
        lane = end;
      }
    }
  }
  sim_.teleport(target);
}

SampledResult SampledRunner::run() {
  const SimConfig& sc = sim_.config();
  SampledResult r;
  r.start = sim_.now();
  r.end = sc.max_cycles;

  for (Cycle p = r.start; p < r.end; p += cfg_.period_cycles) {
    const Cycle period_end = std::min(p + cfg_.period_cycles, r.end);
    const Cycle warm = std::min(cfg_.warm_cycles, period_end - p);
    const Cycle detail =
        std::min(cfg_.detail_cycles, period_end - p - warm);
    if (detail == 0) {
      // Degenerate tail: nothing left to measure, finish in detail.
      sim_.run_to(period_end);
      r.detailed_cycles += period_end - p;
      continue;
    }
    const SampledWindow w = measure_window(warm, detail);
    r.detailed_cycles += warm + w.cycles;
    r.windows.push_back(w);
    if (sim_.now() < period_end) skip_to(period_end);
  }

  r.warm_instructions = warm_instructions_;
  aggregate(r, sc, cfg_.period_cycles);
  return r;
}

SampledResult run_sampled(const SimConfig& cfg, const SamplingConfig& scfg,
                          unsigned jobs) {
  if (jobs <= 1) {
    Simulator sim(cfg);
    SampledRunner runner(sim, scfg);
    return runner.run();
  }

  // Fan-out: prime, snapshot once, measure the rest in parallel.
  SampledResult r;
  r.start = 0;
  r.end = cfg.max_cycles;

  const Cycle period = scfg.period_cycles;
  const Cycle prime_span =
      std::min<Cycle>(scfg.warm_cycles + scfg.detail_cycles, cfg.max_cycles);

  Simulator lead(cfg);
  SampledRunner prime(lead, scfg);
  const SampledWindow first = prime.measure_window(
      std::min(scfg.warm_cycles, prime_span),
      prime_span - std::min(scfg.warm_cycles, prime_span));
  r.windows.push_back(first);
  r.detailed_cycles += prime_span;
  const std::vector<unsigned char> snap = save_snapshot(lead);
  const std::vector<std::uint64_t> rates = prime.issue_rates();

  // Remaining period starts, one window each.
  std::vector<Cycle> starts;
  for (Cycle p = period; p < cfg.max_cycles; p += period) starts.push_back(p);
  std::vector<SampledWindow> windows(starts.size());
  std::vector<std::uint64_t> warm_draws(starts.size(), 0);

  parallel_for(starts.size(), jobs, [&](std::size_t k) {
    Simulator sim(cfg);
    load_snapshot(sim, snap.data(), snap.size());
    SampledRunner worker(sim, scfg);
    worker.freeze_issue_rates(rates);
    worker.skip_to(starts[k]);
    const Cycle period_end = std::min(starts[k] + period, cfg.max_cycles);
    const Cycle warm = std::min(scfg.warm_cycles, period_end - starts[k]);
    const Cycle detail =
        std::min(scfg.detail_cycles, period_end - starts[k] - warm);
    if (detail == 0) return;  // clipped tail: nothing measurable
    windows[k] = worker.measure_window(warm, detail);
    warm_draws[k] = worker.warm_instructions();
  });

  for (std::size_t k = 0; k < windows.size(); ++k) {
    if (windows[k].cycles == 0) continue;  // clipped tail
    r.windows.push_back(windows[k]);
    r.detailed_cycles +=
        std::min(scfg.warm_cycles, cfg.max_cycles - starts[k]) +
        windows[k].cycles;
    r.warm_instructions += warm_draws[k];
  }
  aggregate(r, cfg, period);
  return r;
}

}  // namespace latdiv::ckpt
