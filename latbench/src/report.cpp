#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace latbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<Metric> layer_metrics(const LayerTable& t,
                                  const PassResult& pass) {
  const auto at = [&t](Layer l) -> const LayerTotals& {
    return t[static_cast<std::size_t>(l)];
  };
  const auto per_call = [](std::int64_t ns, std::uint64_t calls) {
    return calls == 0 ? 0.0
                      : static_cast<double>(ns) / static_cast<double>(calls);
  };
  const auto s = [](double ns) { return ns * 1e-9; };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  const LayerTotals& core = at(Layer::kStepCore);
  const LayerTotals& dram = at(Layer::kStepDram);
  const LayerTotals& core_pol = at(Layer::kCorePolicy);
  const LayerTotals& mc_pol = at(Layer::kMcPolicy);
  const LayerTotals& next = at(Layer::kNext);
  const double wall = static_cast<double>(at(Layer::kPass).total_ns);
  // A core-tick step also advances the DRAM domain.  That share cannot be
  // timed from outside, so each core step is charged the mean self time
  // of a DRAM-only step for it; the rest is SM issue, coalescer, L2 front
  // end and crossbar.
  const double dram_share =
      per_call(dram.self_ns, dram.calls) * static_cast<double>(core.calls);
  const double gpu_icnt = static_cast<double>(core.self_ns) - dram_share;
  const double mc_dram = static_cast<double>(dram.self_ns) + dram_share;
  const double unattributed = static_cast<double>(at(Layer::kPass).self_ns +
                                                  at(Layer::kPoint).self_ns);
  const SimCounters& c = pass.counters;
  const double sims = c.sims == 0 ? 1.0 : static_cast<double>(c.sims);

  return {
      {"sim.steps", "count", d(core.calls + dram.calls)},
      {"sim.core_step_ns", "ns", per_call(core.total_ns, core.calls)},
      {"sim.dram_step_ns", "ns", per_call(dram.total_ns, dram.calls)},
      {"gpu_icnt.self_s", "s", s(gpu_icnt)},
      {"gpu_icnt.share", "ratio", wall > 0.0 ? gpu_icnt / wall : 0.0},
      {"core.policy_s", "s", s(static_cast<double>(core_pol.self_ns))},
      {"core.policy_calls", "count", d(core_pol.calls)},
      {"core.policy_ns_per_call", "ns",
       per_call(core_pol.total_ns, core_pol.calls)},
      {"mc.policy_s", "s", s(static_cast<double>(mc_pol.self_ns))},
      {"mc.policy_calls", "count", d(mc_pol.calls)},
      {"mc.policy_ns_per_call", "ns", per_call(mc_pol.total_ns, mc_pol.calls)},
      {"mc.dram_self_s", "s", s(mc_dram)},
      {"workload.next_s", "s", s(static_cast<double>(next.self_ns))},
      {"workload.next_calls", "count", d(next.calls)},
      {"ckpt.prime_s", "s", s(static_cast<double>(at(Layer::kPrime).self_ns))},
      {"ckpt.save_s", "s", s(static_cast<double>(at(Layer::kSave).self_ns))},
      {"ckpt.load_s", "s", s(static_cast<double>(at(Layer::kLoad).self_ns))},
      {"ckpt.skip_s", "s", s(static_cast<double>(at(Layer::kSkip).self_ns))},
      {"ckpt.measure_s", "s",
       s(static_cast<double>(at(Layer::kMeasure).self_ns))},
      {"ckpt.snapshot_bytes", "bytes", d(pass.snapshot_bytes)},
      {"ckpt.windows", "count", d(pass.windows)},
      {"exp.setup_s", "s", s(static_cast<double>(at(Layer::kSetup).self_ns))},
      {"exp.report_s", "s", s(static_cast<double>(at(Layer::kReport).self_ns))},
      {"trace.wall_s", "s", s(wall)},
      {"trace.unattributed_s", "s", s(unattributed)},
      {"gpu.instructions", "count", d(c.instructions)},
      {"gpu.no_ready_warp_cycles", "count", d(c.no_ready_warp_cycles)},
      {"gpu.issue_stall_mshr", "count", d(c.issue_stall_mshr)},
      {"cache.l1_hit_rate", "ratio", c.l1_hit_rate_sum / sims},
      {"cache.l2_hit_rate", "ratio", c.l2_hit_rate_sum / sims},
      {"icnt.inject_stalls", "count", d(c.inject_stalls)},
      {"mc.read_queueing_cycles", "cycles", c.read_queueing_sum / sims},
      {"mc.drains_started", "count", d(c.drains_started)},
      {"dram.reads", "count", d(c.dram_reads)},
      {"dram.writes", "count", d(c.dram_writes)},
      {"dram.activates", "count", d(c.dram_activates)},
      {"dram.row_hit_rate", "ratio", c.row_hit_rate_sum / sims},
      {"core.groups_selected", "count", d(c.groups_selected)},
      {"core.merb_deferrals", "count", d(c.merb_deferrals)},
      {"core.coord_messages", "count", d(c.coord_messages)},
  };
}

bool is_deterministic(const std::string& metric) {
  if (metric == "sim.steps" || metric == "core.policy_calls" ||
      metric == "mc.policy_calls" || metric == "workload.next_calls" ||
      metric == "ckpt.snapshot_bytes" || metric == "ckpt.windows") {
    return true;
  }
  // Every simulated component counter.
  for (const char* prefix :
       {"gpu.", "cache.", "icnt.", "dram.", "mc.read_queueing",
        "mc.drains", "core.groups", "core.merb", "core.coord"}) {
    if (metric.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  using latdiv::exp::json_escape;
  using latdiv::exp::json_number;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) line += ", ";
    line += '"';
    line += json_escape(m.name);
    line += "\": {\"value\": ";
    line += json_number(m.value);
    line += ", \"unit\": \"";
    line += json_escape(m.unit);
    line += "\"}";
  }
  line += "}}";
  return line;
}

latdiv::exp::JsonValue metrics_json(const std::vector<Metric>& metrics) {
  latdiv::exp::JsonValue o{latdiv::exp::JsonValue::Object{}};
  for (const Metric& m : metrics) o.set(m.name, m.value);
  return o;
}

}  // namespace latbench
