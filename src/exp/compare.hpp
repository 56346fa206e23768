// Artifact comparison: the core of `latdiv-report`, and the one
// tolerance-based regression check in the repo (the other golden gates
// are byte-exact `cmp`s).
//
// Any two JSON documents this repo writes (sweep artifacts, attribution
// JSON from `latdiv-sweep --attrib`, BENCH_*.json) flatten into ordered
// path -> leaf tables and compare leaf by leaf:
//
//   - Object members join with '.'.  An array element keys on its "id"
//     member, else "row"[/"col"], else "workload"[/"scheduler"], else its
//     position, so a reordered or shortened array never misaligns the
//     elements that remain ("cells[bfs/WG-W].metrics.ipc.mean").
//   - A number (bools count as 0/1) passes when
//       |current - baseline| <= max(abs_tol, rel_tol * |baseline|).
//   - A string passes only when equal (sweep name, point status).
//   - A leaf only in the baseline fails: something the baseline pinned
//     is gone (a dropped cell, a missing metric, a failed point's
//     metrics).
//   - A leaf only in the current document is listed but never fails, so
//     the schema can grow.
//   - Nulls carry no value and are skipped; so are paths containing any
//     `ignore` substring, on both sides.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "exp/json.hpp"

namespace latdiv::exp {

/// One scalar of a flattened document.
struct Leaf {
  std::string path;
  bool is_text = false;
  double number = 0.0;  ///< when !is_text (bools as 0/1)
  std::string text;     ///< when is_text
};

struct CompareOptions {
  double rel_tol = 0.02;
  double abs_tol = 1e-9;
  std::vector<std::string> ignore;  ///< path substrings to skip
};

/// A leaf present on both sides.
struct CompareRow {
  Leaf current;
  Leaf baseline;
  double delta = 0.0;  ///< current - baseline (numbers only)
  double rel = 0.0;    ///< delta / |baseline| (0 when baseline is 0)
  bool pass = true;
};

struct CompareReport {
  std::vector<CompareRow> rows;         ///< current-document order
  std::vector<Leaf> only_current;       ///< listed, never fail
  std::vector<Leaf> only_baseline;      ///< every one fails
  std::size_t failed_rows = 0;
  std::size_t ignored = 0;              ///< current leaves skipped
  [[nodiscard]] bool ok() const {
    return failed_rows == 0 && only_baseline.empty();
  }
};

/// The document's non-null scalars in document order, keyed as above.
[[nodiscard]] std::vector<Leaf> flatten(const JsonValue& doc);

[[nodiscard]] CompareReport compare(const JsonValue& current,
                                    const JsonValue& baseline,
                                    const CompareOptions& opts = {});

/// Markdown report: a header naming both documents and the tolerances,
/// the verdict table, then the one-sided leaves.
[[nodiscard]] std::string report_markdown(const CompareReport& r,
                                          const CompareOptions& opts,
                                          const std::string& current_name,
                                          const std::string& baseline_name);

/// The same verdicts as a JSON document.
[[nodiscard]] std::string report_json(const CompareReport& r,
                                      const CompareOptions& opts,
                                      const std::string& current_name,
                                      const std::string& baseline_name);

}  // namespace latdiv::exp
