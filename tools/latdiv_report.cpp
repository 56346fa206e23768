// latdiv-report — cross-run regression report for any two JSON artifacts
// produced by this repo (sweep artifacts, attribution JSON from
// `latdiv-sweep --attrib`, BENCH_throughput.json).
//
//   latdiv-report CURRENT.json BASELINE.json [options]
//
//   --out-md FILE     write the markdown report (default: stdout)
//   --out-json FILE   also write the verdict table as JSON
//   --default-tol R   relative tolerance for 'pass' (default 0.02)
//   --abs-tol A       absolute tolerance floor (default 1e-9)
//   --ignore SUBSTR   skip metrics whose path contains SUBSTR (repeatable;
//                     use for wall-clock fields)
//   --gate            exit 1 when any leaf failed
//
// The comparison rules (array keying, number tolerance, string equality,
// baseline-only leaves failing) live in src/exp/compare.hpp.  Without
// --gate the tool always exits 0 (report-only, for upload-style CI
// steps); usage, I/O or parse problems exit 2.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "cli.hpp"
#include "exp/compare.hpp"

using latdiv::exp::JsonValue;

namespace {

constexpr const char* kTool = "latdiv-report";

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: latdiv-report CURRENT.json BASELINE.json [options]\n"
               "\n"
               "  --out-md FILE     write the markdown report "
               "(default: stdout)\n"
               "  --out-json FILE   also write the verdict table as JSON\n"
               "  --default-tol R   relative tolerance (default 0.02)\n"
               "  --abs-tol A       absolute tolerance floor "
               "(default 1e-9)\n"
               "  --ignore SUBSTR   skip metric paths containing SUBSTR "
               "(repeatable)\n"
               "  --gate            exit 1 when any leaf failed\n");
}

/// A tolerance: finite and >= 0, or exit 2.
double parse_tolerance(const char* flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v < 0.0) {
    std::fprintf(stderr, "%s: %s wants a finite tolerance >= 0, got '%s'\n",
                 kTool, flag, text);
    std::exit(2);
  }
  return v;
}

bool write_file(const char* path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  return static_cast<bool>(out);
}

/// Parse `path` as JSON; false (message printed) when unreadable or bad.
bool load_json(const char* path, JsonValue& doc) {
  std::string text;
  if (!latdiv::cli::read_file(path, text)) {
    std::fprintf(stderr, "%s: cannot read '%s'\n", kTool, path);
    return false;
  }
  try {
    doc = JsonValue::parse(text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: bad JSON '%s': %s\n", kTool, path, e.what());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace latdiv;
  const char* cur_path = nullptr;
  const char* base_path = nullptr;
  const char* out_md = nullptr;
  const char* out_json = nullptr;
  exp::CompareOptions opts;
  bool gate = false;

  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const auto value = [&] { return cli::next_arg(kTool, argc, argv, i); };
    if (std::strcmp(flag, "--out-md") == 0) {
      out_md = value();
    } else if (std::strcmp(flag, "--out-json") == 0) {
      out_json = value();
    } else if (std::strcmp(flag, "--default-tol") == 0) {
      opts.rel_tol = parse_tolerance(flag, value());
    } else if (std::strcmp(flag, "--abs-tol") == 0) {
      opts.abs_tol = parse_tolerance(flag, value());
    } else if (std::strcmp(flag, "--ignore") == 0) {
      opts.ignore.emplace_back(value());
    } else if (std::strcmp(flag, "--gate") == 0) {
      gate = true;
    } else if (std::strcmp(flag, "--help") == 0) {
      usage(stdout);
      return 0;
    } else if (flag[0] == '-') {
      std::fprintf(stderr, "%s: unknown option '%s'\n", kTool, flag);
      usage(stderr);
      return 2;
    } else if (cur_path == nullptr) {
      cur_path = flag;
    } else if (base_path == nullptr) {
      base_path = flag;
    } else {
      usage(stderr);
      return 2;
    }
  }
  if (cur_path == nullptr || base_path == nullptr) {
    usage(stderr);
    return 2;
  }

  JsonValue current, baseline;
  if (!load_json(cur_path, current) || !load_json(base_path, baseline)) {
    return 2;
  }
  const exp::CompareReport report = exp::compare(current, baseline, opts);

  const std::string md =
      exp::report_markdown(report, opts, cur_path, base_path);
  if (out_md != nullptr) {
    if (!write_file(out_md, md)) {
      std::fprintf(stderr, "%s: cannot write '%s'\n", kTool, out_md);
      return 2;
    }
  } else {
    std::fputs(md.c_str(), stdout);
  }
  if (out_json != nullptr &&
      !write_file(out_json,
                  exp::report_json(report, opts, cur_path, base_path))) {
    std::fprintf(stderr, "%s: cannot write '%s'\n", kTool, out_json);
    return 2;
  }
  std::fprintf(stderr,
               "%s: %zu compared, %zu failed, %zu only in baseline, %zu "
               "ignored\n",
               kTool, report.rows.size(), report.failed_rows,
               report.only_baseline.size(), report.ignored);
  return gate && !report.ok() ? 1 : 0;
}
