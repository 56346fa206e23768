// The manifest catalogue: every name `latdiv-sweep list` prints builds a
// well-formed grid and runs, and run_manifest rejects a zero seed count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>

#include "exp/driver.hpp"

using namespace latdiv;
using namespace latdiv::exp;

namespace {

class ManifestCatalogue : public ::testing::TestWithParam<std::string> {};

TEST_P(ManifestCatalogue, GridIsWellFormedAndOneRowRuns) {
  const std::string& name = GetParam();
  EXPECT_FALSE(manifest_summary(name).empty());

  const Manifest m = make_manifest(name, SweepOptions{});
  ASSERT_FALSE(m.grid.empty());
  const std::vector<std::string>& cols = m.spec.col_order;
  const auto listed = [&cols](const std::string& col) {
    return std::find(cols.begin(), cols.end(), col) != cols.end();
  };
  std::set<std::string> ids;
  for (const ExpPoint& p : m.grid.points()) {
    EXPECT_TRUE(ids.insert(p.id).second) << "duplicate id " << p.id;
    EXPECT_TRUE(listed(p.col)) << p.id << ": column not in col_order";
  }
  if (!m.spec.baseline_col.empty()) {
    EXPECT_TRUE(listed(m.spec.baseline_col)) << m.spec.baseline_col;
  }

  SweepRunArgs args;
  args.opts.cycles = 2000;
  args.opts.filter = m.grid.points().front().row + "/";
  args.progress = false;
  args.out_json = ::testing::TempDir() + "latdiv_manifest_" + name + ".json";
  ASSERT_EQ(run_manifest(name, args), 0);
  std::ifstream in(args.out_json, std::ios::binary);
  const Artifact a = artifact_from_json(
      {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()});
  EXPECT_FALSE(a.points.empty());
  EXPECT_EQ(failed_points(a), 0u);
  std::remove(args.out_json.c_str());
}

INSTANTIATE_TEST_SUITE_P(All, ManifestCatalogue,
                         ::testing::ValuesIn(manifest_names()),
                         [](const auto& info) { return info.param; });

TEST(RunManifest, ZeroSeedsIsAUsageError) {
  SweepRunArgs args;
  args.opts.seeds = 0;
  args.progress = false;
  EXPECT_EQ(run_manifest("fig8", args), 2);
}

}  // namespace
