// latbench — end-to-end and per-layer benchmark of the latdiv simulator.
//
//   latbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--root DIR] [--out DIR] [--git-rev REV] [--no-reference]
//
// Runs whole passes over one workload until --seconds have elapsed (at
// least one pass) and prints, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
// end-to-end metrics; --trace 1 alternates untraced and traced passes and
// reports the per-layer ledger instead.  Every point is checked: at the
// default seed against the committed reference artifact, at every seed
// against the run's first pass (so traced passes must reproduce untraced
// ones exactly).  Artifacts, the result file with its provenance, and the
// traced run's spans go to --out.  See README.md next to this file.
//
// Exit codes: 0 with a result line (correct may still be false); 2 on
// usage errors or a missing reference, without a result line.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/reporter.hpp"
#include "ledger.hpp"
#include "probe.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

using latbench::Metric;
using latbench::PassResult;
namespace exp = latdiv::exp;

/// Point-time samples a --trace 0 run collects at least, so that ten lie
/// beyond point_ms_p80.
constexpr std::size_t kMinPointSamples = 50;
/// How much shorter than the pass's own wall time the ledger's root frame
/// may be: two clock reads and a scope exit.
constexpr double kLedgerSlackS = 1e-3;
/// Failure notes kept for the result file.
constexpr std::size_t kMaxNotes = 8;

struct Args {
  std::string workload;
  std::uint64_t seed = latbench::kDefaultSeed;
  std::uint64_t seconds = 10;
  std::uint64_t trace = 0;
  std::string root = ".";
  std::string out = ".latbench_out";
  std::string git_rev = "unknown";
  bool reference = true;
};

bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0' || *s == '-') return false;
  out = v;
  return true;
}

int usage(const std::string& why) {
  std::fprintf(stderr,
               "latbench: %s\n"
               "usage: latbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1]\n"
               "                [--root DIR] [--out DIR] [--git-rev REV] "
               "[--no-reference]\n",
               why.c_str());
  return 2;
}

std::optional<Args> parse(int argc, char** argv, std::string& error) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    const auto need = [&]() -> const char* {
      if (value == nullptr) error = flag + " needs a value";
      ++i;
      return value;
    };
    if (flag == "--no-reference") {
      a.reference = false;
    } else if (flag == "--workload") {
      const char* v = need();
      if (v != nullptr) a.workload = v;
    } else if (flag == "--root") {
      const char* v = need();
      if (v != nullptr) a.root = v;
    } else if (flag == "--out") {
      const char* v = need();
      if (v != nullptr) a.out = v;
    } else if (flag == "--git-rev") {
      const char* v = need();
      if (v != nullptr) a.git_rev = v;
    } else if (flag == "--seed" || flag == "--seconds" || flag == "--trace") {
      std::uint64_t v = 0;
      if (!parse_u64(need(), v)) {
        if (error.empty()) error = flag + " needs a non-negative integer";
      } else if (flag == "--seed") {
        a.seed = v;
      } else if (flag == "--seconds") {
        a.seconds = v;
      } else {
        a.trace = v;
      }
    } else {
      error = "unknown argument '" + flag + "'";
    }
    if (!error.empty()) return std::nullopt;
  }
  if (a.workload.empty()) error = "--workload is required";
  else if (a.trace > 1) error = "--trace must be 0 or 1";
  else if (a.seconds == 0 || a.seconds > 3600)
    error = "--seconds must be 1..3600";
  if (!error.empty()) return std::nullopt;
  return a;
}

using PointMetrics = std::map<std::string, exp::MetricMap>;

PointMetrics load_reference(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const exp::Artifact a = exp::artifact_from_json(buf.str());
  PointMetrics ref;
  for (const exp::PointResult& p : a.points) {
    if (!p.ok) {
      throw std::runtime_error("reference " + path + " has failed point " +
                               p.id);
    }
    ref[p.id] = p.metrics;
  }
  return ref;
}

std::string first_difference(const exp::MetricMap& got,
                             const exp::MetricMap& want) {
  for (const auto& [key, v] : want) {
    const auto it = got.find(key);
    if (it == got.end()) return key + " missing";
    if (it->second != v) {
      return key + " " + exp::json_number(it->second) + " != " +
             exp::json_number(v);
    }
  }
  return got.size() != want.size() ? "extra metrics" : "";
}

/// Per-point correctness: a point fails when it threw, when it differs
/// from the reference (default seed), or when it differs from the first
/// pass of this run that produced it.
class Checker {
 public:
  explicit Checker(std::optional<PointMetrics> reference)
      : reference_(std::move(reference)) {}

  void check(const PassResult& pass) {
    if (reference_ && reference_->size() != pass.points.size()) {
      fail("pass has " + std::to_string(pass.points.size()) +
           " points, the reference " + std::to_string(reference_->size()));
    }
    for (const exp::PointResult& p : pass.points) {
      ++attempted_;
      std::string why;
      if (!p.ok) {
        why = "threw: " + p.error;
      } else if (reference_) {
        const auto it = reference_->find(p.id);
        why = it == reference_->end()
                  ? "not in the reference"
                  : first_difference(p.metrics, it->second);
        if (!why.empty() && it != reference_->end()) {
          why = "differs from the reference: " + why;
        }
      }
      if (why.empty() && p.ok) {
        const auto [it, fresh] = first_.emplace(p.id, p.metrics);
        if (!fresh) {
          why = first_difference(p.metrics, it->second);
          if (!why.empty()) why = "differs from the run's first pass: " + why;
        }
      }
      if (!why.empty()) {
        ++failed_;
        note(p.id + ": " + why);
      }
    }
  }

  /// A run-level failure outside any point (ledger, structure).
  void fail(const std::string& why) {
    run_ok_ = false;
    note(why);
  }

  [[nodiscard]] bool correct() const { return run_ok_ && failed_ == 0; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& notes() const { return notes_; }

 private:
  void note(const std::string& s) {
    std::fprintf(stderr, "latbench: FAIL %s\n", s.c_str());
    if (notes_.size() < kMaxNotes) notes_.push_back(s);
  }

  std::optional<PointMetrics> reference_;
  PointMetrics first_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool run_ok_ = true;
  std::vector<std::string> notes_;
};

/// The end-to-end metrics.  With `scaled`, each pass's host times are in
/// reference-host time: multiplied by kProbeRefMs / the pass's probe time
/// (probe.hpp).  Without, they are raw host time.
std::vector<Metric> end_to_end(const std::vector<PassResult>& passes,
                               bool scaled) {
  std::vector<double> mcps, walls, setups, point_ms;
  for (const PassResult& p : passes) {
    const double k =
        scaled && p.probe_ms > 0.0 ? latbench::kProbeRefMs / p.probe_ms : 1.0;
    mcps.push_back(p.simulate_s > 0.0 ? static_cast<double>(p.cycles) * 1e-6 /
                                            (p.simulate_s * k)
                                      : 0.0);
    walls.push_back(p.wall_s * k);
    setups.push_back(p.setup_s * k);
    for (const double ms : p.point_ms) point_ms.push_back(ms * k);
  }
  return {
      {"mcycles_per_s", "Mcycles/s", latbench::median(mcps)},
      {"sweep_s", "s", latbench::median(walls)},
      {"setup_s", "s", latbench::median(setups)},
      {"point_ms_p50", "ms", latbench::quantile(point_ms, 0.50)},
      {"point_ms_p80", "ms", latbench::quantile(point_ms, 0.80)},
      {"peak_rss_mib", "MiB", latbench::peak_rss_mib()},
  };
}

/// Mean of each layer metric over the traced passes (means keep the self
/// times summing to the wall time); exact counts must agree across passes.
std::vector<Metric> merge_layers(const std::vector<std::vector<Metric>>& runs,
                                 Checker& checker) {
  std::vector<Metric> out = runs.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    double sum = 0.0;
    for (const std::vector<Metric>& r : runs) {
      sum += r[i].value;
      if (latbench::is_deterministic(out[i].name) &&
          r[i].value != runs.front()[i].value) {
        checker.fail(out[i].name + " differs between traced passes");
      }
    }
    if (!latbench::is_deterministic(out[i].name)) {
      out[i].value = sum / static_cast<double>(runs.size());
    }
  }
  return out;
}

int run(const Args& a) {
  const latbench::WorkloadSpec* w = latbench::find_workload(a.workload);
  if (w == nullptr) return usage("unknown workload '" + a.workload + "'");
  namespace fs = std::filesystem;
  const fs::path root(a.root);
  const fs::path out(a.out);
  fs::create_directories(out);
  const std::string stem = std::string(w->name) + "-s" + std::to_string(a.seed);
  const std::string artifact = (out / (stem + ".json")).string();

  const bool use_reference = a.reference && a.seed == latbench::kDefaultSeed;
  const std::string ref_path = (root / w->reference).string();
  Checker checker(use_reference ? std::optional(load_reference(ref_path))
                                : std::nullopt);
  const latbench::Plan plan = latbench::expand(*w, a.seed);
  std::vector<std::string> ids;
  for (const exp::ExpPoint& p : plan.points) ids.push_back(p.id);

  const std::int64_t deadline =
      latbench::now_ns() + static_cast<std::int64_t>(a.seconds) * 1'000'000'000;
  std::vector<Metric> metrics;
  std::vector<PassResult> passes;
  latdiv::exp::JsonValue extra{latdiv::exp::JsonValue::Object{}};

  if (a.trace == 0) {
    std::size_t samples = 0;
    do {
      passes.push_back(latbench::run_pass(*w, a.seed, latbench::Mode::kUntraced,
                                          nullptr, artifact));
      checker.check(passes.back());
      samples += passes.back().point_ms.size();
    } while (latbench::now_ns() < deadline || samples < kMinPointSamples);
    metrics = end_to_end(passes, /*scaled=*/true);
    extra.set("raw_metrics",
              latbench::metrics_json(end_to_end(passes, /*scaled=*/false)));
    latdiv::exp::JsonValue walls{latdiv::exp::JsonValue::Array{}};
    latdiv::exp::JsonValue probes{latdiv::exp::JsonValue::Array{}};
    for (const PassResult& p : passes) {
      walls.push_back(p.wall_s);
      probes.push_back(p.probe_ms);
    }
    extra.set("pass_wall_s", std::move(walls));
    extra.set("pass_probe_ms", std::move(probes));
    extra.set("probe_ref_ms", latbench::kProbeRefMs);
    extra.set("point_ms_samples", static_cast<std::uint64_t>(samples));
    if (std::string(w->manifest) == "fig8") {
      extra.set("paper_err_pp", passes.front().paper_err_pp);
    }
  } else {
    const bool sampled = *w->manifest == '\0';
    latbench::Ledger ledger;
    std::vector<double> walls_untraced, walls_traced;
    std::vector<std::vector<Metric>> layers;
    const auto untraced = [&] {
      const PassResult u = latbench::run_pass(
          *w, a.seed,
          sampled ? latbench::Mode::kReplay : latbench::Mode::kUntraced,
          nullptr, artifact);
      checker.check(u);
      walls_untraced.push_back(u.wall_s);
    };
    const auto traced = [&] {
      ledger.reset_totals();
      ledger.set_pass(static_cast<std::uint32_t>(passes.size()));
      passes.push_back(latbench::run_pass(*w, a.seed, latbench::Mode::kTraced,
                                          &ledger, artifact));
      checker.check(passes.back());
      walls_traced.push_back(passes.back().wall_s);
      // The layer self times sum to the root frame's duration by
      // construction; what can fail is the root frame itself, so it is
      // held against the pass's own clock, read just outside it.
      const latbench::LayerTotals& root = ledger.totals()[0];
      const double gap = passes.back().wall_s - root.total_ns * 1e-9;
      if (root.calls != 1 || gap < 0.0 || gap > kLedgerSlackS) {
        checker.fail("the ledger's pass frame does not match the pass's "
                     "wall time");
      }
      layers.push_back(latbench::layer_metrics(ledger.totals(), passes.back()));
    };
    // Passes run untraced, traced, traced, untraced, and so on, so a slow
    // first pass or a drifting host does not bias trace.overhead.  The
    // first pass of the run is untraced: the points of every later pass
    // are checked against it.  The run stops at the first pass past the
    // deadline once it has one of each.
    for (std::size_t i = 0;; ++i) {
      if (i % 4 == 0 || i % 4 == 3) {
        untraced();
      } else {
        traced();
      }
      if (!walls_traced.empty() && latbench::now_ns() >= deadline) break;
    }
    metrics = merge_layers(layers, checker);
    metrics.push_back({"trace.overhead", "ratio",
                       latbench::median(walls_traced) /
                           latbench::median(walls_untraced)});
    const std::string spans = (out / (stem + ".spans.json")).string();
    if (!ledger.write_spans(spans, ids)) {
      checker.fail("cannot write " + spans);
    }
  }

  using latdiv::exp::JsonValue;
  JsonValue prov{JsonValue::Object{}};
  prov.set("build_type", LATBENCH_BUILD_TYPE);
  prov.set("compiler", LATBENCH_COMPILER);
  prov.set("nproc",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  prov.set("git_rev", a.git_rev);
  prov.set("config_fingerprint",
           static_cast<std::uint64_t>(latbench::plan_fingerprint(plan)));
  prov.set("points", static_cast<std::uint64_t>(plan.points.size()));
  prov.set("passes", static_cast<std::uint64_t>(passes.size()));
  prov.set("reference", use_reference ? ref_path : std::string("none"));
  JsonValue doc{JsonValue::Object{}};
  doc.set("schema", "latbench-result/1");
  doc.set("workload", w->name);
  doc.set("seed", a.seed);
  doc.set("trace", a.trace);
  doc.set("seconds", a.seconds);
  doc.set("provenance", std::move(prov));
  doc.set("correct", checker.correct());
  doc.set("attempted", checker.attempted());
  doc.set("failed", checker.failed());
  doc.set("error_rate", checker.attempted() == 0
                            ? 1.0
                            : static_cast<double>(checker.failed()) /
                                  static_cast<double>(checker.attempted()));
  doc.set("metrics", latbench::metrics_json(metrics));
  for (const auto& [key, v] : extra.as_object()) doc.set(key, v);
  JsonValue notes{JsonValue::Array{}};
  for (const std::string& n : checker.notes()) notes.push_back(n);
  doc.set("notes", std::move(notes));
  const std::string result_path =
      (out / (stem + "-trace" + std::to_string(a.trace) + ".result.json"))
          .string();
  std::ofstream rf(result_path, std::ios::binary);
  rf << doc.dump();
  if (!rf) throw std::runtime_error("cannot write " + result_path);

  std::fprintf(stderr,
               "latbench: %s seed %llu trace %llu: %zu passes, %llu/%llu "
               "points failed\n",
               w->name, static_cast<unsigned long long>(a.seed),
               static_cast<unsigned long long>(a.trace), passes.size(),
               static_cast<unsigned long long>(checker.failed()),
               static_cast<unsigned long long>(checker.attempted()));
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::printf("%s\n",
              latbench::result_line(checker.correct(), checker.attempted(),
                                    checker.failed(), metrics)
                  .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const std::optional<Args> args = parse(argc, argv, error);
  if (!args) return usage(error);
  try {
    return run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "latbench: %s\n", e.what());
    return 2;
  }
}
