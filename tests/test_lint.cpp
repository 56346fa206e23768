// latdiv-lint engine tests: the fixture corpus (tests/lint_fixtures)
// pins every rule's positive and suppressed behaviour, and the self-check
// asserts the production tree under src/ lints clean — the same gate CI
// applies.  Expected findings are declared in the fixtures themselves:
//   // expect: <rule>        a finding with <rule> on this line
//   // expect-below: <rule>  a finding with <rule> on the next line
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "lint_engine.hpp"
#include "lint_rules.hpp"

namespace {

namespace fs = std::filesystem;
using latdiv::lint::LintResult;
using latdiv::lint::run_lint;

using Expected = std::tuple<std::string, int, std::string>;  // file, line, rule

std::string fixture_dir() { return std::string(LATDIV_SOURCE_DIR) + "/tests/lint_fixtures"; }

/// Collect (file, line, rule) triples from `// expect:` markers in every
/// fixture file under `dir`.
std::set<Expected> collect_expected(const std::string& dir) {
  std::set<Expected> out;
  std::vector<fs::path> files;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& p : files) {
    std::ifstream in(p);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      for (const auto& [marker, offset] :
           {std::pair<const char*, int>{"// expect-below: ", 1},
            std::pair<const char*, int>{"// expect: ", 0}}) {
        std::size_t pos = line.find(marker);
        if (pos == std::string::npos) continue;
        std::string rule = line.substr(pos + std::string(marker).size());
        while (!rule.empty() && (rule.back() == ' ' || rule.back() == '\r')) {
          rule.pop_back();
        }
        out.emplace(p.string(), lineno + offset, rule);
        break;
      }
    }
  }
  return out;
}

std::set<Expected> as_triples(const LintResult& r) {
  std::set<Expected> out;
  for (const auto& f : r.findings) out.emplace(f.file, f.line, f.rule);
  return out;
}

TEST(LintFixtures, BadCorpusMatchesExpectMarkers) {
  const std::string bad = fixture_dir() + "/bad";
  const std::set<Expected> expected = collect_expected(bad);
  ASSERT_GE(expected.size(), 15u) << "fixture corpus lost its markers?";

  const LintResult r = run_lint({bad});
  ASSERT_TRUE(r.errors.empty());
  const std::set<Expected> actual = as_triples(r);

  for (const Expected& e : expected) {
    EXPECT_TRUE(actual.count(e) != 0)
        << "missed: " << std::get<0>(e) << ":" << std::get<1>(e) << ": "
        << std::get<2>(e);
  }
  for (const Expected& a : actual) {
    EXPECT_TRUE(expected.count(a) != 0)
        << "unexpected: " << std::get<0>(a) << ":" << std::get<1>(a) << ": "
        << std::get<2>(a);
  }
}

TEST(LintFixtures, BadCorpusCoversEveryRule) {
  const LintResult r = run_lint({fixture_dir() + "/bad"});
  std::set<std::string> fired;
  for (const auto& f : r.findings) fired.insert(f.rule);
  for (const std::string& id : latdiv::lint::rule_ids()) {
    EXPECT_TRUE(fired.count(id) != 0) << "no fixture exercises rule " << id;
  }
}

TEST(LintFixtures, GoodCorpusIsCleanAndUsesEverySuppression) {
  const LintResult r = run_lint({fixture_dir() + "/good"});
  ASSERT_TRUE(r.errors.empty());
  for (const auto& f : r.findings) {
    ADD_FAILURE() << "unexpected finding: " << f.file << ":" << f.line << ": "
                  << f.rule << ": " << f.message;
  }
  // One suppressed case per rule family plus the trace-reader and
  // ckpt-reader fixtures' measurement/aggregation directives, all
  // consumed (an unused directive would have been reported as a finding
  // above).
  EXPECT_EQ(r.suppressions_used, 15u);
  EXPECT_EQ(r.files_analyzed, 6u);
}

TEST(LintSelfCheck, ProductionTreeIsClean) {
  const LintResult r = run_lint({std::string(LATDIV_SOURCE_DIR) + "/src"});
  ASSERT_TRUE(r.errors.empty());
  for (const auto& f : r.findings) {
    ADD_FAILURE() << f.file << ":" << f.line << ": " << f.rule << ": "
                  << f.message;
  }
  EXPECT_GT(r.files_analyzed, 50u);
  EXPECT_GT(r.suppressions_used, 0u);
}

// A file's findings must not depend on what else is linted in the same
// run: a local or parameter resolves only in its own file, so a
// floating-point local named `n` under src/ cannot turn an integer `n` in
// a fixture into a float accumulation.
TEST(LintSelfCheck, ProductionTreeWithGoodCorpusIsClean) {
  const LintResult r = run_lint(
      {std::string(LATDIV_SOURCE_DIR) + "/src", fixture_dir() + "/good"});
  ASSERT_TRUE(r.errors.empty());
  for (const auto& f : r.findings) {
    ADD_FAILURE() << f.file << ":" << f.line << ": " << f.rule << ": "
                  << f.message;
  }
}

TEST(LintReport, TextFormatIsFileLineRuleMessage) {
  const LintResult r = run_lint({fixture_dir() + "/bad/determinism.cpp"});
  const std::string text = latdiv::lint::to_text(r);
  EXPECT_NE(text.find("determinism.cpp:14: wall-clock: "), std::string::npos)
      << text;
}

TEST(LintReport, JsonReportHasToolMetadataAndFindings) {
  const LintResult r = run_lint({fixture_dir() + "/bad"});
  const std::string json = latdiv::lint::to_json(r);
  EXPECT_NE(json.find("\"tool\": \"latdiv-lint\""), std::string::npos);
  EXPECT_NE(json.find("\"finding_count\": "), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"unordered-iter\""), std::string::npos);
  EXPECT_NE(json.find("\"suppressions_used\": "), std::string::npos);
}

TEST(LintReport, RunIsDeterministic) {
  const std::string bad = fixture_dir() + "/bad";
  const std::string a = latdiv::lint::to_json(run_lint({bad}));
  const std::string b = latdiv::lint::to_json(run_lint({bad}));
  EXPECT_EQ(a, b);
}

}  // namespace
