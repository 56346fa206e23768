#include "exp/compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string_view>
#include <utility>

namespace latdiv::exp {

namespace {

const std::string* text_member(const JsonValue& v, std::string_view key) {
  const JsonValue* m = v.find(key);
  return m != nullptr && m->kind() == JsonValue::Kind::kString
             ? &m->as_string()
             : nullptr;
}

/// "id", else "row"[/"col"], else "workload"[/"scheduler"], else the
/// position.
std::string element_key(const JsonValue& v, std::size_t index) {
  if (const std::string* id = text_member(v, "id")) return *id;
  for (const auto& [first, second] :
       {std::pair{"row", "col"}, std::pair{"workload", "scheduler"}}) {
    if (const std::string* a = text_member(v, first)) {
      const std::string* b = text_member(v, second);
      return b != nullptr ? *a + "/" + *b : *a;
    }
  }
  return std::to_string(index);
}

void flatten_into(const JsonValue& v, const std::string& path,
                  std::vector<Leaf>& out) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      return;
    case JsonValue::Kind::kBool:
      out.push_back({path, false, v.as_bool() ? 1.0 : 0.0, {}});
      return;
    case JsonValue::Kind::kNumber:
      out.push_back({path, false, v.as_number(), {}});
      return;
    case JsonValue::Kind::kString:
      out.push_back({path, true, 0.0, v.as_string()});
      return;
    case JsonValue::Kind::kObject:
      for (const auto& [key, member] : v.as_object()) {
        flatten_into(member, path.empty() ? key : path + "." + key, out);
      }
      return;
    case JsonValue::Kind::kArray: {
      const JsonValue::Array& arr = v.as_array();
      std::set<std::string> used;
      for (std::size_t i = 0; i < arr.size(); ++i) {
        std::string key = element_key(arr[i], i);
        // A repeated key would pair two elements with one baseline
        // element; the repeat falls back to its position.
        if (!used.insert(key).second) key = "#" + std::to_string(i);
        flatten_into(arr[i], path + "[" + key + "]", out);
      }
      return;
    }
  }
}

std::map<std::string_view, const Leaf*> index_paths(
    const std::vector<Leaf>& leaves) {
  std::map<std::string_view, const Leaf*> index;
  for (const Leaf& l : leaves) index.emplace(l.path, &l);
  return index;
}

CompareRow make_row(const Leaf& cur, const Leaf& base,
                    const CompareOptions& opts) {
  CompareRow row{cur, base};
  if (cur.is_text || base.is_text) {
    row.pass = cur.is_text && base.is_text && cur.text == base.text;
    return row;
  }
  row.delta = cur.number - base.number;
  row.rel = base.number != 0.0 ? row.delta / std::fabs(base.number) : 0.0;
  row.pass = std::fabs(row.delta) <=
             std::max(opts.abs_tol, opts.rel_tol * std::fabs(base.number));
  return row;
}

std::string fmt_num(double v) {
  // Integers print exactly; everything else with 6 significant digits.
  char buf[32];
  if (std::fabs(v) < 1e15 && v == std::floor(v)) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.6g", v);
  }
  return buf;
}

std::string fmt_leaf(const Leaf& l) {
  return l.is_text ? l.text : fmt_num(l.number);
}

JsonValue leaf_value(const Leaf& l) {
  return l.is_text ? JsonValue{l.text} : JsonValue{l.number};
}

}  // namespace

std::vector<Leaf> flatten(const JsonValue& doc) {
  std::vector<Leaf> out;
  flatten_into(doc, "", out);
  return out;
}

CompareReport compare(const JsonValue& current, const JsonValue& baseline,
                      const CompareOptions& opts) {
  const auto ignored = [&opts](const std::string& path) {
    return std::any_of(opts.ignore.begin(), opts.ignore.end(),
                       [&path](const std::string& s) {
                         return path.find(s) != std::string::npos;
                       });
  };
  const std::vector<Leaf> cur = flatten(current);
  const std::vector<Leaf> base = flatten(baseline);
  const auto cur_index = index_paths(cur);
  const auto base_index = index_paths(base);

  CompareReport r;
  for (const Leaf& c : cur) {
    if (ignored(c.path)) {
      ++r.ignored;
      continue;
    }
    const auto it = base_index.find(c.path);
    if (it == base_index.end()) {
      r.only_current.push_back(c);
      continue;
    }
    r.rows.push_back(make_row(c, *it->second, opts));
    if (!r.rows.back().pass) ++r.failed_rows;
  }
  for (const Leaf& b : base) {
    if (!ignored(b.path) && !cur_index.contains(b.path)) {
      r.only_baseline.push_back(b);
    }
  }
  return r;
}

std::string report_markdown(const CompareReport& r,
                            const CompareOptions& opts,
                            const std::string& current_name,
                            const std::string& baseline_name) {
  std::string out;
  out += "# latdiv regression report\n\n";
  out += "- current: `" + current_name + "`\n";
  out += "- baseline: `" + baseline_name + "`\n";
  char head[160];
  std::snprintf(head, sizeof head,
                "- tolerance: rel %.4g, abs %.4g\n- compared: %zu, "
                "failed: %zu, only in baseline: %zu, ignored: %zu\n\n",
                opts.rel_tol, opts.abs_tol, r.rows.size(), r.failed_rows,
                r.only_baseline.size(), r.ignored);
  out += head;

  out += "| metric | current | baseline | delta | rel | verdict |\n";
  out += "|---|---:|---:|---:|---:|---|\n";
  for (const CompareRow& row : r.rows) {
    std::string delta, rel;
    if (!row.current.is_text && !row.baseline.is_text) {
      char pct[32];
      std::snprintf(pct, sizeof pct, "%+.2f%%", row.rel * 100.0);
      delta = fmt_num(row.delta);
      rel = pct;
    }
    out += "| `" + row.current.path + "` | " + fmt_leaf(row.current) +
           " | " + fmt_leaf(row.baseline) + " | " + delta + " | " + rel +
           " | " + (row.pass ? "pass" : "**FAIL**") + " |\n";
  }
  if (r.rows.empty()) out += "| (none) | | | | | |\n";

  const auto list_section = [&out](const char* title,
                                   const std::vector<Leaf>& leaves) {
    if (leaves.empty()) return;
    out += "\n";
    out += title;
    out += "\n\n";
    for (const Leaf& l : leaves) {
      out += "- `" + l.path + "` = " + fmt_leaf(l) + "\n";
    }
  };
  list_section("## only in baseline (each one fails)", r.only_baseline);
  list_section("## only in current", r.only_current);
  return out;
}

std::string report_json(const CompareReport& r, const CompareOptions& opts,
                        const std::string& current_name,
                        const std::string& baseline_name) {
  JsonValue doc{JsonValue::Object{}};
  doc.set("current", current_name);
  doc.set("baseline", baseline_name);
  doc.set("rel_tol", opts.rel_tol);
  doc.set("abs_tol", opts.abs_tol);
  doc.set("ok", r.ok());
  doc.set("compared", static_cast<std::uint64_t>(r.rows.size()));
  doc.set("failed", static_cast<std::uint64_t>(r.failed_rows));
  doc.set("ignored", static_cast<std::uint64_t>(r.ignored));
  JsonValue rows{JsonValue::Array{}};
  for (const CompareRow& row : r.rows) {
    JsonValue o{JsonValue::Object{}};
    o.set("metric", row.current.path);
    o.set("current", leaf_value(row.current));
    o.set("baseline", leaf_value(row.baseline));
    if (!row.current.is_text && !row.baseline.is_text) {
      o.set("delta", row.delta);
      o.set("rel", row.rel);
    }
    o.set("pass", row.pass);
    rows.push_back(std::move(o));
  }
  doc.set("rows", std::move(rows));
  for (const auto& [key, leaves] :
       {std::pair{"only_current", &r.only_current},
        std::pair{"only_baseline", &r.only_baseline}}) {
    JsonValue paths{JsonValue::Array{}};
    for (const Leaf& l : *leaves) paths.push_back(l.path);
    doc.set(key, std::move(paths));
  }
  return doc.dump();
}

}  // namespace latdiv::exp
