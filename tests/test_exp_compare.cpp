// Artifact comparator (exp/compare): the golden-regression cases on sweep
// artifacts, then the generic flatten and comparison rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exp/compare.hpp"
#include "exp/reporter.hpp"

using namespace latdiv::exp;

namespace {

PointResult ok_point(const std::string& row, const std::string& col,
                     double ipc) {
  PointResult p;
  p.id = row + "/" + col + "/s1";
  p.row = row;
  p.col = col;
  p.workload = row;
  p.scheduler = col;
  p.seed = 1;
  p.ok = true;
  p.metrics["ipc"] = ipc;
  p.metrics["dram_reads"] = 1000.0;
  return p;
}

SweepSpec unit_spec(const std::string& name = "unit") {
  SweepSpec spec;
  spec.name = name;
  spec.primary_metric = "ipc";
  spec.baseline_col = "base";
  return spec;
}

/// The reference artifact with w1/opt's ipc scaled by `factor`.
Artifact drifted_artifact(double factor) {
  return make_artifact(unit_spec(), RunShape{},
                       {ok_point("w1", "base", 2.0),
                        ok_point("w1", "opt", 3.0 * factor),
                        ok_point("w2", "base", 1.0),
                        ok_point("w2", "opt", 1.5)});
}

Artifact reference_artifact() { return drifted_artifact(1.0); }

CompareReport check(const Artifact& current, const Artifact& golden,
                    const CompareOptions& opts = {}) {
  return compare(JsonValue::parse(to_json(current)),
                 JsonValue::parse(to_json(golden)), opts);
}

std::vector<std::string> failed_paths(const CompareReport& r) {
  std::vector<std::string> out;
  for (const CompareRow& row : r.rows) {
    if (!row.pass) out.push_back(row.current.path);
  }
  return out;
}

std::vector<std::string> paths(const std::vector<Leaf>& leaves) {
  std::vector<std::string> out;
  for (const Leaf& l : leaves) out.push_back(l.path);
  return out;
}

bool contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

const CompareRow* find_row(const CompareReport& r, const std::string& path) {
  for (const CompareRow& row : r.rows) {
    if (row.current.path == path) return &row;
  }
  return nullptr;
}

}  // namespace

TEST(ExpGolden, IdenticalArtifactsPass) {
  const Artifact a = reference_artifact();
  const CompareReport report = check(a, a);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.rows.size(),
            flatten(JsonValue::parse(to_json(a))).size());
  EXPECT_TRUE(report.only_current.empty());
  EXPECT_TRUE(report.only_baseline.empty());
}

TEST(ExpGolden, DriftWithinToleranceIsIgnored) {
  // Default tolerance is 2% relative; 1% drift passes.
  EXPECT_TRUE(check(drifted_artifact(1.01), reference_artifact()).ok());
}

TEST(ExpGolden, DriftBeyondToleranceFails) {
  const CompareReport report =
      check(drifted_artifact(1.10), reference_artifact());
  ASSERT_FALSE(report.ok());
  // The point, its cell mean, the cell's speedup over "base" and the
  // column geomean all move; nothing else does.
  EXPECT_EQ(failed_paths(report),
            (std::vector<std::string>{"points[w1/opt/s1].metrics.ipc",
                                      "cells[w1/opt].speedup",
                                      "cells[w1/opt].metrics.ipc.mean",
                                      "summary.col_geomean.opt"}));
  const CompareRow* mean = find_row(report, "cells[w1/opt].metrics.ipc.mean");
  ASSERT_NE(mean, nullptr);
  EXPECT_DOUBLE_EQ(mean->baseline.number, 3.0);
  EXPECT_DOUBLE_EQ(mean->current.number, 3.3);
  EXPECT_NEAR(mean->rel, 0.10, 1e-12);
}

TEST(ExpGolden, AbsoluteToleranceGuardsNearZeroMetrics) {
  Artifact golden = reference_artifact();
  Artifact current = reference_artifact();
  golden.cells[0].metrics["write_intensity"] = {.mean = 0.0, .stddev = 0.0};
  current.cells[0].metrics["write_intensity"] = {.mean = 5e-10, .stddev = 0.0};
  EXPECT_TRUE(check(current, golden).ok());  // within abs=1e-9
  current.cells[0].metrics["write_intensity"].mean = 1e-3;
  EXPECT_FALSE(check(current, golden).ok());
  CompareOptions loose;
  loose.abs_tol = 1e-2;
  EXPECT_TRUE(check(current, golden, loose).ok());
}

TEST(ExpGolden, StructuralMismatchesAreIssues) {
  // A fig9 artifact against a fig8 golden fails on the sweep name.
  const CompareReport renamed =
      check(make_artifact(unit_spec("fig9"), RunShape{},
                          reference_artifact().points),
            make_artifact(unit_spec("fig8"), RunShape{},
                          reference_artifact().points));
  EXPECT_EQ(failed_paths(renamed), std::vector<std::string>{"sweep.name"});
  const CompareRow* name = find_row(renamed, "sweep.name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->current.text, "fig9");
  EXPECT_EQ(name->baseline.text, "fig8");

  // Different run shape (a full-length run against a --quick golden).
  Artifact shaped = reference_artifact();
  shaped.shape.cycles *= 4;
  EXPECT_EQ(failed_paths(check(shaped, reference_artifact())),
            std::vector<std::string>{"shape.cycles"});

  // A golden cell missing from the current artifact.
  Artifact golden = reference_artifact();
  CellAggregate extra;
  extra.row = "w9";
  extra.col = "opt";
  extra.n = 1;
  golden.cells.push_back(extra);
  const CompareReport missing = check(reference_artifact(), golden);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.failed_rows, 0u);
  EXPECT_TRUE(contains(paths(missing.only_baseline), "cells[w9/opt].n"));

  // Extra metrics in current are fine (the schema may grow).
  Artifact grown = reference_artifact();
  for (CellAggregate& c : grown.cells) {
    c.metrics["brand_new_metric"] = {.mean = 1.0, .stddev = 0.0};
  }
  const CompareReport grew = check(grown, reference_artifact());
  EXPECT_TRUE(grew.ok());
  EXPECT_TRUE(contains(paths(grew.only_current),
                       "cells[w1/base].metrics.brand_new_metric.mean"));
}

TEST(ExpGolden, FailedCurrentPointsAreRegressions) {
  const Artifact golden = reference_artifact();
  PointResult bad;
  bad.id = "w1/base/s1";
  bad.row = "w1";
  bad.col = "base";
  bad.workload = "w1";
  bad.scheduler = "base";
  bad.seed = 1;
  bad.ok = false;
  bad.error = "boom";
  const Artifact current = make_artifact(
      golden.spec, RunShape{},
      {bad, ok_point("w1", "opt", 3.0), ok_point("w2", "base", 1.0),
       ok_point("w2", "opt", 1.5)});
  const CompareReport report = check(current, golden);
  ASSERT_FALSE(report.ok());
  const CompareRow* status = find_row(report, "points[w1/base/s1].status");
  ASSERT_NE(status, nullptr);
  EXPECT_FALSE(status->pass);
  EXPECT_EQ(status->current.text, "failed");
  // The failed point's metrics are gone, and its error is listed.
  EXPECT_TRUE(contains(paths(report.only_baseline),
                       "points[w1/base/s1].metrics.ipc"));
  ASSERT_FALSE(report.only_current.empty());
  EXPECT_EQ(report.only_current.front().path, "points[w1/base/s1].error");
  EXPECT_EQ(report.only_current.front().text, "boom");
}

TEST(ExpCompare, BaselineOnlyMetricFails) {
  Artifact golden = reference_artifact();
  golden.cells[1].metrics["row_hit_rate"] = {.mean = 0.5, .stddev = 0.0};
  const CompareReport report = check(reference_artifact(), golden);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.failed_rows, 0u);
  EXPECT_EQ(paths(report.only_baseline),
            (std::vector<std::string>{
                "cells[w1/opt].metrics.row_hit_rate.mean",
                "cells[w1/opt].metrics.row_hit_rate.stddev"}));
}

TEST(ExpCompare, ChangedStringFails) {
  Artifact current = reference_artifact();
  current.spec.title = "a new banner";
  const CompareReport report = check(current, reference_artifact());
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(failed_paths(report), std::vector<std::string>{"sweep.title"});

  // A leaf that turns from a number into a string fails as well.
  const CompareReport retyped = compare(JsonValue::parse(R"({"a": "1"})"),
                                        JsonValue::parse(R"({"a": 1})"));
  EXPECT_EQ(failed_paths(retyped), std::vector<std::string>{"a"});
}

TEST(ExpCompare, DroppedCellIsReportedByItsRowColKey) {
  const Artifact golden = reference_artifact();
  const Artifact current = make_artifact(
      golden.spec, RunShape{},
      {ok_point("w1", "base", 2.0), ok_point("w1", "opt", 3.0),
       ok_point("w2", "base", 1.0)});
  const CompareReport report = check(current, golden);
  ASSERT_FALSE(report.ok());
  // Every remaining point and cell still lines up with its baseline.
  EXPECT_EQ(report.failed_rows, 0u);
  const std::vector<std::string> gone = paths(report.only_baseline);
  EXPECT_TRUE(contains(gone, "cells[w2/opt].metrics.ipc.mean"));
  EXPECT_TRUE(contains(gone, "points[w2/opt/s1].metrics.ipc"));
  for (const std::string& p : gone) {
    EXPECT_TRUE(p.starts_with("cells[w2/opt]") ||
                p.starts_with("points[w2/opt/s1]"))
        << p;
  }
}

TEST(ExpCompare, ArrayElementsKeyOnIdThenRowColThenWorkload) {
  const JsonValue doc = JsonValue::parse(R"({
    "a": [{"id": "p", "row": "r", "v": 1}],
    "b": [{"row": "r", "col": "c", "v": 2}, {"row": "r2", "v": 3}],
    "c": [{"workload": "w", "scheduler": "s", "v": 4}, {"workload": "w2"}],
    "d": [5, {"v": 6}, null, true],
    "e": [{"id": "x", "v": 7}, {"id": "x", "v": 8}]
  })");
  const std::vector<std::string> got = paths(flatten(doc));
  const std::vector<std::string> want = {
      "a[p].id",        "a[p].row",         "a[p].v",
      "b[r/c].row",     "b[r/c].col",       "b[r/c].v",
      "b[r2].row",      "b[r2].v",          "c[w/s].workload",
      "c[w/s].scheduler", "c[w/s].v",       "c[w2].workload",
      "d[0]",           "d[1].v",           "d[3]",
      "e[x].id",        "e[x].v",           "e[#1].id",
      "e[#1].v"};
  EXPECT_EQ(got, want);
}

TEST(ExpCompare, ReorderedElementsStillLineUp) {
  const CompareReport report =
      compare(JsonValue::parse(R"({"rows": [{"workload": "b", "ipc": 2},
                                             {"workload": "a", "ipc": 1}]})"),
              JsonValue::parse(R"({"rows": [{"workload": "a", "ipc": 1},
                                             {"workload": "b", "ipc": 2}]})"));
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.rows.size(), 4u);
}

TEST(ExpCompare, IgnoredPathsNeverGate) {
  const JsonValue cur = JsonValue::parse(R"({"ipc": 1, "wall_speedup": 9})");
  const JsonValue base =
      JsonValue::parse(R"({"ipc": 1, "wall_speedup": 3, "speedup_old": 1})");
  EXPECT_FALSE(compare(cur, base).ok());
  CompareOptions opts;
  opts.ignore = {"speedup"};
  const CompareReport report = compare(cur, base, opts);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.ignored, 1u);
  EXPECT_EQ(report.rows.size(), 1u);
}

TEST(ExpCompare, RenderersCarryEveryVerdict) {
  Artifact current = reference_artifact();
  current.spec.name = "fig9";
  const CompareReport report = check(current, reference_artifact());
  const CompareOptions opts;
  const std::string md = report_markdown(report, opts, "cur.json", "base.json");
  EXPECT_NE(md.find("| `sweep.name` | fig9 | unit |  |  | **FAIL** |"),
            std::string::npos)
      << md;
  EXPECT_NE(md.find("failed: 1, only in baseline: 0"), std::string::npos);

  const JsonValue json =
      JsonValue::parse(report_json(report, opts, "cur.json", "base.json"));
  EXPECT_FALSE(json.at("ok").as_bool());
  EXPECT_EQ(json.at("failed").as_number(), 1.0);
  EXPECT_EQ(json.at("rows").as_array().size(), report.rows.size());
}
