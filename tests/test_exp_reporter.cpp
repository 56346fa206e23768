// Artifact aggregation and serialisation: mean/stddev over seeds,
// speedups vs. the baseline column, JSON/CSV round trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "exp/reporter.hpp"

using namespace latdiv::exp;

namespace {

PointResult ok_point(const std::string& row, const std::string& col,
                     std::uint64_t seed, double ipc) {
  PointResult p;
  p.id = row + "/" + col + "/s" + std::to_string(seed);
  p.row = row;
  p.col = col;
  p.workload = row;
  p.scheduler = col;
  p.seed = seed;
  p.ok = true;
  p.wall_ms = 12.5;
  p.metrics["ipc"] = ipc;
  p.metrics["loads"] = 100.0;
  return p;
}

PointResult failed_point(const std::string& row, const std::string& col) {
  PointResult p;
  p.id = row + "/" + col + "/s1";
  p.row = row;
  p.col = col;
  p.seed = 1;
  p.ok = false;
  p.error = "simulated crash";
  return p;
}

SweepSpec spec_with_baseline() {
  SweepSpec spec;
  spec.name = "unit";
  spec.title = "unit sweep";
  spec.primary_metric = "ipc";
  spec.baseline_col = "base";
  return spec;
}

/// Two rows x {base, opt}, two seeds each; opt is exactly 2x / 4x base.
std::vector<PointResult> two_by_two() {
  return {
      ok_point("w1", "base", 1, 1.0), ok_point("w1", "base", 2, 3.0),
      ok_point("w1", "opt", 1, 4.0),  ok_point("w1", "opt", 2, 4.0),
      ok_point("w2", "base", 1, 2.0), ok_point("w2", "base", 2, 2.0),
      ok_point("w2", "opt", 1, 8.0),  ok_point("w2", "opt", 2, 8.0),
  };
}

/// The header and body lines print_table writes for `a` (everything
/// after the "shape:" line).
std::vector<std::string> table_lines(const Artifact& a) {
  std::FILE* f = std::tmpfile();
  print_table(a, f);
  std::rewind(f);
  std::vector<std::string> lines;
  std::string line;
  for (int ch = std::fgetc(f); ch != EOF; ch = std::fgetc(f)) {
    if (ch != '\n') {
      line += static_cast<char>(ch);
      continue;
    }
    lines.push_back(line);
    line.clear();
  }
  std::fclose(f);
  const auto shape = std::find_if(
      lines.begin(), lines.end(),
      [](const std::string& l) { return l.rfind("shape:", 0) == 0; });
  return {shape + 1, lines.end()};
}

}  // namespace

TEST(ExpReporter, AggregatesMeanAndPopulationStddev) {
  RunShape shape{.seeds = 2};
  const Artifact a = make_artifact(spec_with_baseline(), shape, two_by_two());
  ASSERT_EQ(a.cells.size(), 4u);

  const CellAggregate& w1_base = a.cells[0];
  EXPECT_EQ(w1_base.row, "w1");
  EXPECT_EQ(w1_base.col, "base");
  EXPECT_EQ(w1_base.n, 2u);
  EXPECT_EQ(w1_base.failed, 0u);
  EXPECT_DOUBLE_EQ(w1_base.metrics.at("ipc").mean, 2.0);   // (1+3)/2
  EXPECT_DOUBLE_EQ(w1_base.metrics.at("ipc").stddev, 1.0); // population
  EXPECT_DOUBLE_EQ(w1_base.metrics.at("loads").stddev, 0.0);
}

TEST(ExpReporter, SpeedupsAndColumnGeomean) {
  RunShape shape{.seeds = 2};
  const Artifact a = make_artifact(spec_with_baseline(), shape, two_by_two());

  // w1: 4.0/2.0 = 2x.  w2: 8.0/2.0 = 4x.  Baseline column has no speedup.
  EXPECT_DOUBLE_EQ(a.cells[0].speedup, 0.0);
  EXPECT_DOUBLE_EQ(a.cells[1].speedup, 2.0);
  EXPECT_DOUBLE_EQ(a.cells[3].speedup, 4.0);

  ASSERT_EQ(a.col_geomean.size(), 1u);  // baseline column omitted
  EXPECT_NEAR(a.col_geomean.at("opt"), std::sqrt(2.0 * 4.0), 1e-12);
}

TEST(ExpReporter, NoBaselineMeansAbsoluteGeomeans) {
  SweepSpec spec = spec_with_baseline();
  spec.baseline_col.clear();
  const Artifact a = make_artifact(spec, RunShape{.seeds = 2}, two_by_two());
  for (const CellAggregate& c : a.cells) EXPECT_DOUBLE_EQ(c.speedup, 0.0);
  EXPECT_NEAR(a.col_geomean.at("base"), std::sqrt(2.0 * 2.0), 1e-12);
  EXPECT_NEAR(a.col_geomean.at("opt"), std::sqrt(4.0 * 8.0), 1e-12);
}

TEST(ExpReporter, FailedPointsAreCountedNotAggregated) {
  auto points = two_by_two();
  points.push_back(failed_point("w3", "base"));
  const Artifact a =
      make_artifact(spec_with_baseline(), RunShape{}, std::move(points));
  EXPECT_EQ(failed_points(a), 1u);

  const CellAggregate& w3 = a.cells.back();
  EXPECT_EQ(w3.row, "w3");
  EXPECT_EQ(w3.n, 0u);
  EXPECT_EQ(w3.failed, 1u);
  EXPECT_TRUE(w3.metrics.empty());
}

TEST(ExpReporter, JsonRoundTripPreservesEveryField) {
  auto points = two_by_two();
  points.push_back(failed_point("w3", "opt"));
  SweepSpec spec = spec_with_baseline();
  spec.reference = "paper claim";
  spec.col_order = {"base", "opt"};
  RunShape shape{.cycles = 12'500, .warmup = 1'250, .base_seed = 7,
                 .seeds = 2};
  const Artifact a = make_artifact(spec, shape, std::move(points));

  const std::string text = to_json(a);
  const Artifact back = artifact_from_json(text);
  EXPECT_EQ(back.spec.name, "unit");
  EXPECT_EQ(back.spec.reference, "paper claim");
  EXPECT_EQ(back.spec.col_order, spec.col_order);
  EXPECT_EQ(back.shape.cycles, 12'500u);
  EXPECT_EQ(back.shape.base_seed, 7u);
  EXPECT_EQ(back.points.size(), a.points.size());
  EXPECT_EQ(back.points.back().ok, false);
  EXPECT_EQ(back.points.back().error, "simulated crash");
  EXPECT_EQ(back.cells.size(), a.cells.size());
  EXPECT_DOUBLE_EQ(back.cells[1].speedup, 2.0);

  // Serialising the parsed artifact reproduces the bytes exactly.
  EXPECT_EQ(to_json(back), text);
}

TEST(ExpReporter, WallTimeNeverEntersTheArtifact) {
  const Artifact a =
      make_artifact(spec_with_baseline(), RunShape{}, {ok_point("w", "base",
                                                               1, 1.0)});
  EXPECT_EQ(to_json(a).find("wall_ms"), std::string::npos);
}

TEST(ExpReporter, RejectsUnknownSchema) {
  const Artifact a = make_artifact(spec_with_baseline(), RunShape{}, {});
  std::string text = to_json(a);
  const std::size_t pos = text.find("latdiv-sweep/1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("latdiv-sweep/1").size(), "latdiv-sweep/9");
  EXPECT_THROW((void)artifact_from_json(text), std::runtime_error);
}

TEST(ExpReporter, CsvHasPointAndCellRows) {
  const Artifact a =
      make_artifact(spec_with_baseline(), RunShape{.seeds = 2}, two_by_two());
  const std::string csv = to_csv(a);
  EXPECT_EQ(csv.find("kind,id,row,col,workload,scheduler,seed,status,metric,"
                     "value,stddev,n,failed\n"),
            0u);
  EXPECT_NE(csv.find("point,w1/base/s1,w1,base,w1,base,1,ok,ipc,1,"),
            std::string::npos);
  EXPECT_NE(csv.find("cell,,w1,base,,,,ok,ipc,2,1,2,0"), std::string::npos);
  EXPECT_NE(csv.find("speedup_vs_base,2,,2,0"), std::string::npos);
}

TEST(ExpReporter, TableColumnsFitTheirLabels) {
  // The device ablation's labels: "WG-W@GDDR5" is 10 characters, so every
  // column widens to 11 and the header keeps a space between labels.
  SweepSpec spec = spec_with_baseline();
  spec.baseline_col.clear();
  spec.col_order = {"GMC@GDDR5", "WG-W@GDDR5", "GMC@DDR3", "WG-W@DDR3"};
  std::vector<PointResult> points;
  double ipc = 1.0;
  for (const std::string& col : spec.col_order) {
    points.push_back(ok_point("bfs", col, 1, ipc));
    ipc *= 2.0;
  }
  const std::vector<std::string> lines =
      table_lines(make_artifact(spec, RunShape{}, std::move(points)));
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines[0],
            "                  GMC@GDDR5 WG-W@GDDR5   GMC@DDR3  WG-W@DDR3");
  EXPECT_EQ(lines[1],
            "bfs                   1.000      2.000      4.000      8.000");
}

TEST(ExpReporter, TableColumnsOfShortLabelsStayTenWide) {
  const std::vector<std::string> lines = table_lines(
      make_artifact(spec_with_baseline(), RunShape{.seeds = 2}, two_by_two()));
  ASSERT_GE(lines.size(), 4u);
  EXPECT_EQ(lines[0], "                      base       opt");
  EXPECT_EQ(lines[1], "w1                   2.000     2.000");
  EXPECT_EQ(lines[3], "geomean                  -     2.828");
}
