// latdiv-lint — CLI.
//
//   latdiv-lint [--json FILE] [--list-rules] PATH...
//
// Analyzes every *.hpp/*.cpp under the given paths with the determinism /
// observer-purity rule catalogue (see DESIGN.md, "Static
// analysis & determinism contract").  Prints one `file:line: rule:
// message` per finding; exit 0 clean, 1 findings, 2 usage or I/O error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "lint_engine.hpp"
#include "lint_rules.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--json FILE] [--list-rules] PATH...\n"
               "  PATH          file, or directory searched recursively for "
               "*.hpp/*.cpp\n"
               "  --json FILE   also write a machine-readable report\n"
               "  --list-rules  print the rule ids and exit\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) return usage(argv[0]);
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--list-rules") == 0) {
      for (const std::string& id : latdiv::lint::rule_ids()) {
        std::printf("%s\n", id.c_str());
      }
      return 0;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "latdiv-lint: unknown flag %s\n", argv[i]);
      return usage(argv[0]);
    } else {
      paths.emplace_back(argv[i]);
    }
  }
  if (paths.empty()) return usage(argv[0]);

  const latdiv::lint::LintResult result = latdiv::lint::run_lint(paths);
  std::fputs(latdiv::lint::to_text(result).c_str(), stdout);
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "latdiv-lint: cannot write %s\n",
                   json_path.c_str());
      return 2;
    }
    out << latdiv::lint::to_json(result);
  }
  if (!result.errors.empty()) return 2;
  if (!result.findings.empty()) {
    std::fprintf(stderr, "latdiv-lint: %zu finding(s) in %zu file(s)\n",
                 result.findings.size(), result.files_analyzed);
    return 1;
  }
  std::fprintf(stdout, "latdiv-lint: clean (%zu files, %zu suppressions used)\n",
               result.files_analyzed, result.suppressions_used);
  return 0;
}
