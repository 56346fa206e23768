// Integration tests for the introspection layer end to end: enabling
// tracing / time-series must not perturb simulated results, trace events
// must exactly reconcile with the RunResult aggregates (the simulator's
// own statistics are the tracing layer's ground truth), and every
// artifact must be byte-identical regardless of where a run pauses or of
// executor thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "exp/executor.hpp"
#include "exp/json.hpp"
#include "obs/event.hpp"
#include "sim/simulator.hpp"

namespace latdiv {
namespace {

SimConfig obs_cfg(const char* workload = "bfs", bool trace = true,
                  bool timeseries = true) {
  SimConfig cfg;
  cfg.shrink_for_tests();
  cfg.workload = profile_by_name(workload);
  cfg.max_cycles = 8'000;
  cfg.warmup_cycles = 0;  // trace covers the whole run; keep stats aligned
  cfg.obs.trace = trace;
  cfg.obs.timeseries = timeseries;
  cfg.obs.sample_interval = 250;
  return cfg;
}

/// Per-event trace tallies extracted from the Chrome JSON.
struct TraceTally {
  std::uint64_t cas = 0, data = 0, wr = 0, loads = 0;
  std::uint64_t service_sum = 0;  ///< sum of data events' "service" args
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> acts;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> pres;
};

std::uint64_t arg_u64(const exp::JsonValue& ev, const char* key) {
  const exp::JsonValue* args = ev.find("args");
  if (args == nullptr) return 0;
  const exp::JsonValue* v = args->find(key);
  return v == nullptr ? 0 : static_cast<std::uint64_t>(v->as_number());
}

TraceTally tally(const std::string& json) {
  TraceTally t;
  const exp::JsonValue doc = exp::JsonValue::parse(json);
  for (const exp::JsonValue& ev : doc.at("traceEvents").as_array()) {
    const std::string& name = ev.at("name").as_string();
    const auto pid = static_cast<std::uint64_t>(ev.at("pid").as_number());
    const auto tid = static_cast<std::uint64_t>(ev.at("tid").as_number());
    if (name == "cas") {
      ++t.cas;
    } else if (name == "data") {
      ++t.data;
      t.service_sum += arg_u64(ev, "service");
    } else if (name == "wr") {
      ++t.wr;
    } else if (name == "load") {
      ++t.loads;
      // Internal consistency of each warp slice: first + gap == last and
      // the slice lasts at least until the last request returned.
      EXPECT_EQ(arg_u64(ev, "first") + arg_u64(ev, "gap"), arg_u64(ev, "last"));
      EXPECT_GE(static_cast<std::uint64_t>(ev.at("dur").as_number()),
                arg_u64(ev, "last"));
    } else if (name == "ACT") {
      ++t.acts[{pid, tid}];
    } else if (name == "PRE") {
      ++t.pres[{pid, tid}];
    }
  }
  return t;
}

TEST(ObsTrace, TracingDoesNotPerturbSimulation) {
  const RunResult base = Simulator(obs_cfg("bfs", false, false)).run();
  Simulator traced(obs_cfg("bfs", true, true));
  const RunResult r = traced.run();
  ASSERT_NE(traced.obs(), nullptr);
  EXPECT_GT(traced.obs()->trace_events(), 0u);

  EXPECT_EQ(base.instructions, r.instructions);
  EXPECT_EQ(base.dram_reads, r.dram_reads);
  EXPECT_EQ(base.dram_writes, r.dram_writes);
  EXPECT_EQ(base.dram_activates, r.dram_activates);
  EXPECT_DOUBLE_EQ(base.ipc, r.ipc);
  EXPECT_DOUBLE_EQ(base.effective_mem_latency_ns, r.effective_mem_latency_ns);
  EXPECT_DOUBLE_EQ(base.mc_read_service_cycles, r.mc_read_service_cycles);
}

TEST(ObsTrace, TraceReconcilesWithRunResultAggregates) {
  Simulator sim(obs_cfg("sssp"));
  const RunResult r = sim.run();
  ASSERT_NE(sim.obs(), nullptr);
  const TraceTally t = tally(sim.obs()->trace_json());

  // Command counts: every DRAM read CAS is a "cas" without a matching
  // "wr"; every write CAS retires exactly one "wr".
  EXPECT_GT(t.cas, 0u);
  EXPECT_EQ(t.cas - t.wr, r.dram_reads);
  EXPECT_EQ(t.wr, r.dram_writes);

  // Per-request read service latencies in the trace average to exactly
  // the RunResult aggregate (both are integer cycle sums under the hood).
  ASSERT_GT(t.data, 0u);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(t.service_sum) / static_cast<double>(t.data),
      r.mc_read_service_cycles);

  // The read-queueing aggregate reconciles against the hub's histogram
  // (the histogram records reads only; the trace's "cas" events cover
  // writes too, so the registry is the right cross-check here).
  const obs::Log2Histogram* q =
      sim.obs()->metrics().find_histogram("req.read_queue_wait");
  ASSERT_NE(q, nullptr);
  ASSERT_GT(q->total(), 0u);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(q->sum()) / static_cast<double>(q->total()),
      r.mc_read_queueing_cycles);

  // Divergence histogram total matches the emitted warp-load slices.
  const obs::Log2Histogram* gap =
      sim.obs()->metrics().find_histogram("warp.divergence_gap");
  ASSERT_NE(gap, nullptr);
  EXPECT_EQ(gap->total(), t.loads);
  EXPECT_GT(t.loads, 0u);
}

TEST(ObsTrace, PerBankEventCountsMatchBankBreakdown) {
  Simulator sim(obs_cfg("bfs"));
  const RunResult r = sim.run();
  ASSERT_NE(sim.obs(), nullptr);
  const TraceTally t = tally(sim.obs()->trace_json());

  ASSERT_FALSE(r.bank_breakdown.empty());
  std::uint64_t acts = 0, pres = 0, classified = 0, banks = 0;
  for (std::size_t ch = 0; ch < r.bank_breakdown.size(); ++ch) {
    for (std::size_t b = 0; b < r.bank_breakdown[ch].size(); ++b) {
      const BankCounters& bc = r.bank_breakdown[ch][b];
      const std::pair<std::uint64_t, std::uint64_t> key{
          obs::kPidMcBase + ch, b};
      const auto a = t.acts.find(key);
      const auto p = t.pres.find(key);
      EXPECT_EQ(a == t.acts.end() ? 0u : a->second, bc.activates)
          << "ch" << ch << " bank" << b;
      EXPECT_EQ(p == t.pres.end() ? 0u : p->second, bc.precharges)
          << "ch" << ch << " bank" << b;
      acts += bc.activates;
      pres += bc.precharges;
      classified += bc.row_hits + bc.row_misses + bc.row_conflicts;
      ++banks;
    }
  }
  // The per-bank breakdown sums back to the run aggregates.  Every CAS
  // was classified as exactly one of hit/miss/conflict; a head request
  // is classified when its first command issues, which can lead its CAS
  // by a few cycles, so at the run-end cutoff each bank may hold at most
  // one classified-but-not-yet-CAS'd head.
  EXPECT_EQ(acts, r.dram_activates);
  EXPECT_GE(classified, t.cas);
  EXPECT_LE(classified - t.cas, banks);
  EXPECT_GT(pres, 0u);
}

// Pausing with run_to() at cycles off every sampling boundary and
// continuing is invisible in the artifacts.
TEST(ObsTrace, ArtifactsAreByteIdenticalAcrossRunToPauses) {
  const SimConfig cfg = obs_cfg("bfs");
  Simulator a(cfg);
  Simulator b(cfg);
  a.run();
  for (Cycle stop = 777; stop < cfg.max_cycles; stop += 1'234) {
    b.run_to(stop);
  }
  b.run_to(cfg.max_cycles);
  b.finish();
  ASSERT_NE(a.obs(), nullptr);
  ASSERT_NE(b.obs(), nullptr);
  EXPECT_EQ(a.obs()->timeseries_csv(), b.obs()->timeseries_csv());
  EXPECT_EQ(a.obs()->metrics_json(), b.obs()->metrics_json());
  EXPECT_EQ(a.obs()->trace_json(), b.obs()->trace_json());
}

TEST(ObsTrace, ArtifactsAreByteIdenticalAcrossExecutorJobs) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(::testing::TempDir()) / "latdiv_obs_jobs";
  fs::remove_all(root);

  const auto build_grid = [&root](const char* sub) {
    const fs::path dir = root / sub;
    fs::create_directories(dir);
    exp::ExpGrid grid;
    for (const char* wl : {"bfs", "sssp", "spmv"}) {
      exp::ExpPoint p;
      p.id = wl;
      p.row = wl;
      p.col = "GMC";
      p.workload = profile_by_name(wl);
      p.cycles = 4'000;
      p.seed = 7;
      const std::string trace = (dir / (std::string(wl) + ".json")).string();
      const std::string series = (dir / (std::string(wl) + ".csv")).string();
      p.hook = [trace, series](SimConfig& cfg) {
        cfg.shrink_for_tests();
        cfg.max_cycles = 4'000;
        cfg.warmup_cycles = 0;
        cfg.obs.trace = true;
        cfg.obs.trace_path = trace;
        cfg.obs.timeseries = true;
        cfg.obs.timeseries_path = series;
        cfg.obs.sample_interval = 250;
      };
      grid.add(std::move(p));
    }
    return grid;
  };

  const auto results1 = exp::run_grid(build_grid("jobs1"), 1, {});
  const auto results3 = exp::run_grid(build_grid("jobs3"), 3, {});
  for (const auto& r : results1) ASSERT_TRUE(r.ok) << r.error;
  for (const auto& r : results3) ASSERT_TRUE(r.ok) << r.error;

  const auto slurp = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    EXPECT_TRUE(in) << p;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  for (const char* wl : {"bfs", "sssp", "spmv"}) {
    for (const char* ext : {".json", ".csv"}) {
      const std::string a = slurp(root / "jobs1" / (std::string(wl) + ext));
      const std::string b = slurp(root / "jobs3" / (std::string(wl) + ext));
      EXPECT_FALSE(a.empty()) << wl << ext;
      EXPECT_EQ(a, b) << wl << ext;
    }
  }
  fs::remove_all(root);
}

TEST(ObsTrace, ExecutorSurfacesObsPercentileMetrics) {
  exp::ExpPoint p;
  p.id = "bfs";
  p.workload = profile_by_name("bfs");
  p.cycles = 4'000;
  p.hook = [](SimConfig& cfg) {
    cfg.shrink_for_tests();
    cfg.max_cycles = 4'000;
    cfg.warmup_cycles = 0;
    cfg.obs.timeseries = true;  // enables the hub without file output
  };
  const exp::PointResult res = exp::execute_point(p);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.metrics.count("obs.divergence_gap_p50"), 1u);
  EXPECT_EQ(res.metrics.count("obs.last_latency_p99"), 1u);
  EXPECT_EQ(res.metrics.count("obs.read_service_p90"), 1u);

  // Without the obs layer, no obs.* keys appear — the base artifact
  // metric set (and its committed goldens) is unchanged.
  exp::ExpPoint plain = p;
  plain.hook = [](SimConfig& cfg) {
    cfg.shrink_for_tests();
    cfg.max_cycles = 4'000;
  };
  const exp::PointResult res2 = exp::execute_point(plain);
  ASSERT_TRUE(res2.ok) << res2.error;
  for (const auto& [k, v] : res2.metrics) {
    EXPECT_EQ(k.rfind("obs.", 0), std::string::npos) << k;
  }
}

TEST(ObsTrace, UnwritableArtifactFailsThePoint) {
  // Each artifact path is an existing directory, so the file cannot be
  // opened: the point must fail with an error naming the path instead of
  // succeeding without the artifact.
  namespace fs = std::filesystem;
  const fs::path root =
      fs::path(::testing::TempDir()) / "latdiv_obs_unwritable";
  fs::remove_all(root);
  using Setter = void (*)(obs::ObsConfig&, const std::string&);
  const std::pair<const char*, Setter> kinds[] = {
      {"trace",
       [](obs::ObsConfig& o, const std::string& path) {
         o.trace = true;
         o.trace_path = path;
       }},
      {"timeseries",
       [](obs::ObsConfig& o, const std::string& path) {
         o.timeseries = true;
         o.timeseries_path = path;
       }},
      {"metrics",
       [](obs::ObsConfig& o, const std::string& path) {
         o.metrics_path = path;
       }},
      {"attrib",
       [](obs::ObsConfig& o, const std::string& path) {
         o.attrib_path = path;
       }},
  };
  for (const auto& [kind, set] : kinds) {
    const std::string path = (root / kind).string();
    fs::create_directories(path);
    exp::ExpPoint p;
    p.id = "bfs";
    p.workload = profile_by_name("bfs");
    p.cycles = 2'000;
    p.hook = [path, set = set](SimConfig& cfg) {
      cfg.shrink_for_tests();
      cfg.max_cycles = 2'000;
      cfg.warmup_cycles = 0;
      set(cfg.obs, path);
    };
    const exp::PointResult res = exp::execute_point(p);
    EXPECT_FALSE(res.ok) << kind;
    EXPECT_NE(res.error.find(path), std::string::npos)
        << kind << ": " << res.error;
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace latdiv
