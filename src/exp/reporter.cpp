#include "exp/reporter.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/stats.hpp"
#include "exp/json.hpp"

namespace latdiv::exp {

namespace {

/// Stable first-appearance index of (row, col) cells.
std::size_t cell_index(std::vector<CellAggregate>& cells,
                       const std::string& row, const std::string& col) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].row == row && cells[i].col == col) return i;
  }
  CellAggregate c;
  c.row = row;
  c.col = col;
  cells.push_back(std::move(c));
  return cells.size() - 1;
}

const CellAggregate* find_cell(const std::vector<CellAggregate>& cells,
                               const std::string& row,
                               const std::string& col) {
  for (const CellAggregate& c : cells) {
    if (c.row == row && c.col == col) return &c;
  }
  return nullptr;
}

std::vector<std::string> first_appearance_rows(
    const std::vector<CellAggregate>& cells) {
  std::vector<std::string> rows;
  for (const CellAggregate& c : cells) {
    if (std::find(rows.begin(), rows.end(), c.row) == rows.end()) {
      rows.push_back(c.row);
    }
  }
  return rows;
}

std::vector<std::string> column_order(const Artifact& a) {
  if (!a.spec.col_order.empty()) return a.spec.col_order;
  std::vector<std::string> cols;
  for (const CellAggregate& c : a.cells) {
    if (std::find(cols.begin(), cols.end(), c.col) == cols.end()) {
      cols.push_back(c.col);
    }
  }
  return cols;
}

}  // namespace

Artifact make_artifact(const SweepSpec& spec, const RunShape& shape,
                       std::vector<PointResult> points) {
  Artifact a;
  a.spec = spec;
  a.shape = shape;
  a.points = std::move(points);

  // Pass 1: accumulate per-cell sums over ok points.
  struct Sums {
    std::map<std::string, std::pair<double, double>> sum_sq;  // sum, sum^2
  };
  std::vector<Sums> sums;
  for (const PointResult& p : a.points) {
    const std::size_t i = cell_index(a.cells, p.row, p.col);
    if (i >= sums.size()) sums.resize(i + 1);
    if (!p.ok) {
      ++a.cells[i].failed;
      continue;
    }
    ++a.cells[i].n;
    for (const auto& [key, v] : p.metrics) {
      auto& [sum, sq] = sums[i].sum_sq[key];
      sum += v;
      sq += v * v;
    }
  }
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    CellAggregate& c = a.cells[i];
    if (c.n == 0) continue;
    const double n = static_cast<double>(c.n);
    for (const auto& [key, acc] : sums[i].sum_sq) {
      MeanStd ms;
      ms.mean = acc.first / n;
      ms.stddev = std::sqrt(std::max(0.0, acc.second / n - ms.mean * ms.mean));
      c.metrics[key] = ms;
    }
  }

  // Pass 2: speedups vs. the baseline column of the same row.
  if (!a.spec.baseline_col.empty()) {
    for (CellAggregate& c : a.cells) {
      if (c.col == a.spec.baseline_col) continue;
      const CellAggregate* base =
          find_cell(a.cells, c.row, a.spec.baseline_col);
      if (base == nullptr) continue;
      const auto mine = c.metrics.find(a.spec.primary_metric);
      const auto theirs = base->metrics.find(a.spec.primary_metric);
      if (mine == c.metrics.end() || theirs == base->metrics.end()) continue;
      if (theirs->second.mean != 0.0) {
        c.speedup = mine->second.mean / theirs->second.mean;
      }
    }
  }

  // Pass 3: per-column geomean summary.
  for (const std::string& col : column_order(a)) {
    if (col == a.spec.baseline_col) continue;
    std::vector<double> series;
    for (const CellAggregate& c : a.cells) {
      if (c.col != col || c.n == 0) continue;
      if (!a.spec.baseline_col.empty()) {
        if (c.speedup > 0.0) series.push_back(c.speedup);
      } else {
        const auto it = c.metrics.find(a.spec.primary_metric);
        if (it != c.metrics.end() && it->second.mean > 0.0) {
          series.push_back(it->second.mean);
        }
      }
    }
    if (!series.empty()) a.col_geomean[col] = geomean(series);
  }
  return a;
}

std::string to_json(const Artifact& a) {
  JsonValue root;
  root.set("schema", a.schema);

  JsonValue spec;
  spec.set("name", a.spec.name);
  spec.set("title", a.spec.title);
  spec.set("reference", a.spec.reference);
  spec.set("primary_metric", a.spec.primary_metric);
  spec.set("baseline_col", a.spec.baseline_col);
  JsonValue cols;
  for (const std::string& c : a.spec.col_order) cols.push_back(c);
  if (a.spec.col_order.empty()) cols = JsonValue(JsonValue::Array{});
  spec.set("col_order", std::move(cols));
  root.set("sweep", std::move(spec));

  JsonValue shape;
  shape.set("cycles", static_cast<std::uint64_t>(a.shape.cycles));
  shape.set("warmup", static_cast<std::uint64_t>(a.shape.warmup));
  shape.set("base_seed", a.shape.base_seed);
  shape.set("seeds", static_cast<std::uint64_t>(a.shape.seeds));
  root.set("shape", std::move(shape));

  JsonValue points{JsonValue::Array{}};
  for (const PointResult& p : a.points) {
    JsonValue jp;
    jp.set("id", p.id);
    jp.set("row", p.row);
    jp.set("col", p.col);
    jp.set("workload", p.workload);
    jp.set("scheduler", p.scheduler);
    jp.set("seed", p.seed);
    jp.set("status", p.ok ? "ok" : "failed");
    if (!p.ok) jp.set("error", p.error);
    JsonValue metrics;
    for (const auto& [key, v] : p.metrics) metrics.set(key, v);
    if (p.metrics.empty()) metrics = JsonValue(JsonValue::Object{});
    jp.set("metrics", std::move(metrics));
    points.push_back(std::move(jp));
  }
  root.set("points", std::move(points));

  JsonValue cells{JsonValue::Array{}};
  for (const CellAggregate& c : a.cells) {
    JsonValue jc;
    jc.set("row", c.row);
    jc.set("col", c.col);
    jc.set("n", static_cast<std::uint64_t>(c.n));
    jc.set("failed", static_cast<std::uint64_t>(c.failed));
    jc.set("speedup", c.speedup);
    JsonValue metrics;
    for (const auto& [key, ms] : c.metrics) {
      JsonValue jm;
      jm.set("mean", ms.mean);
      jm.set("stddev", ms.stddev);
      metrics.set(key, std::move(jm));
    }
    if (c.metrics.empty()) metrics = JsonValue(JsonValue::Object{});
    jc.set("metrics", std::move(metrics));
    cells.push_back(std::move(jc));
  }
  root.set("cells", std::move(cells));

  JsonValue summary;
  JsonValue geo;
  for (const auto& [col, g] : a.col_geomean) geo.set(col, g);
  if (a.col_geomean.empty()) geo = JsonValue(JsonValue::Object{});
  summary.set("col_geomean", std::move(geo));
  root.set("summary", std::move(summary));

  return root.dump();
}

Artifact artifact_from_json(const std::string& text) {
  const JsonValue root = JsonValue::parse(text);
  Artifact a;
  a.schema = root.at("schema").as_string();
  if (a.schema != kSchemaVersion) {
    throw std::runtime_error("unsupported artifact schema '" + a.schema +
                             "' (this build reads " + kSchemaVersion + ")");
  }
  const JsonValue& spec = root.at("sweep");
  a.spec.name = spec.at("name").as_string();
  a.spec.title = spec.at("title").as_string();
  a.spec.reference = spec.at("reference").as_string();
  a.spec.primary_metric = spec.at("primary_metric").as_string();
  a.spec.baseline_col = spec.at("baseline_col").as_string();
  for (const JsonValue& c : spec.at("col_order").as_array()) {
    a.spec.col_order.push_back(c.as_string());
  }
  const JsonValue& shape = root.at("shape");
  a.shape.cycles = static_cast<Cycle>(shape.at("cycles").as_number());
  a.shape.warmup = static_cast<Cycle>(shape.at("warmup").as_number());
  a.shape.base_seed =
      static_cast<std::uint64_t>(shape.at("base_seed").as_number());
  a.shape.seeds = static_cast<std::uint32_t>(shape.at("seeds").as_number());

  for (const JsonValue& jp : root.at("points").as_array()) {
    PointResult p;
    p.id = jp.at("id").as_string();
    p.row = jp.at("row").as_string();
    p.col = jp.at("col").as_string();
    p.workload = jp.at("workload").as_string();
    p.scheduler = jp.at("scheduler").as_string();
    p.seed = static_cast<std::uint64_t>(jp.at("seed").as_number());
    p.ok = jp.at("status").as_string() == "ok";
    if (const JsonValue* err = jp.find("error")) p.error = err->as_string();
    for (const auto& [key, v] : jp.at("metrics").as_object()) {
      p.metrics[key] = v.as_number();
    }
    a.points.push_back(std::move(p));
  }
  for (const JsonValue& jc : root.at("cells").as_array()) {
    CellAggregate c;
    c.row = jc.at("row").as_string();
    c.col = jc.at("col").as_string();
    c.n = static_cast<std::uint32_t>(jc.at("n").as_number());
    c.failed = static_cast<std::uint32_t>(jc.at("failed").as_number());
    c.speedup = jc.at("speedup").as_number();
    for (const auto& [key, jm] : jc.at("metrics").as_object()) {
      MeanStd ms;
      ms.mean = jm.at("mean").as_number();
      ms.stddev = jm.at("stddev").as_number();
      c.metrics[key] = ms;
    }
    a.cells.push_back(std::move(c));
  }
  for (const auto& [col, g] :
       root.at("summary").at("col_geomean").as_object()) {
    a.col_geomean[col] = g.as_number();
  }
  return a;
}

std::string to_csv(const Artifact& a) {
  std::string out =
      "kind,id,row,col,workload,scheduler,seed,status,metric,value,stddev,"
      "n,failed\n";
  const auto csv = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string quoted = "\"";
    for (const char c : s) {
      if (c == '"') quoted += "\"\"";
      else quoted.push_back(c);
    }
    return quoted + "\"";
  };
  for (const PointResult& p : a.points) {
    const std::string prefix = "point," + csv(p.id) + "," + csv(p.row) + "," +
                               csv(p.col) + "," + csv(p.workload) + "," +
                               csv(p.scheduler) + "," +
                               std::to_string(p.seed) + "," +
                               (p.ok ? "ok" : "failed") + ",";
    if (!p.ok) {
      out += prefix + ",,,,\n";
      continue;
    }
    for (const auto& [key, v] : p.metrics) {
      out += prefix + key + "," + json_number(v) + ",,,\n";
    }
  }
  for (const CellAggregate& c : a.cells) {
    const std::string prefix = "cell,," + csv(c.row) + "," + csv(c.col) +
                               ",,,," + (c.failed == 0 ? "ok" : "failed") +
                               ",";
    const std::string counts =
        std::to_string(c.n) + "," + std::to_string(c.failed);
    for (const auto& [key, ms] : c.metrics) {
      out += prefix + key + "," + json_number(ms.mean) + "," +
             json_number(ms.stddev) + "," + counts + "\n";
    }
    if (c.speedup > 0.0) {
      out += prefix + "speedup_vs_" + a.spec.baseline_col + "," +
             json_number(c.speedup) + ",," + counts + "\n";
    }
  }
  return out;
}

void print_table(const Artifact& a, std::FILE* out) {
  std::fprintf(out,
               "\n================================================"
               "================\n");
  std::fprintf(out, "%s\n", a.spec.title.c_str());
  if (!a.spec.reference.empty()) {
    std::fprintf(out, "paper reference: %s\n", a.spec.reference.c_str());
  }
  std::fprintf(out,
               "==================================================="
               "=============\n");
  std::fprintf(out,
               "shape: %llu cycles (%llu warmup), base seed %llu, "
               "%u seed(s)/cell",
               static_cast<unsigned long long>(a.shape.cycles),
               static_cast<unsigned long long>(a.shape.warmup),
               static_cast<unsigned long long>(a.shape.base_seed),
               a.shape.seeds);
  if (!a.spec.baseline_col.empty()) {
    std::fprintf(out, "; %s absolute %s, other columns normalized to it",
                 a.spec.baseline_col.c_str(), a.spec.primary_metric.c_str());
  } else {
    std::fprintf(out, "; cells show %s", a.spec.primary_metric.c_str());
  }
  std::fprintf(out, "\n");

  const std::vector<std::string> cols = column_order(a);
  const std::vector<std::string> rows = first_appearance_rows(a.cells);
  // One width for every column: 10, or wide enough that the longest
  // label keeps a space before it.
  int width = 10;
  for (const std::string& c : cols) {
    width = std::max(width, static_cast<int>(c.size()) + 1);
  }
  std::fprintf(out, "%-16s", "");
  for (const std::string& c : cols) {
    std::fprintf(out, "%*s", width, c.c_str());
  }
  std::fprintf(out, "\n");

  for (const std::string& row : rows) {
    std::fprintf(out, "%-16s", row.c_str());
    for (const std::string& col : cols) {
      const CellAggregate* c = find_cell(a.cells, row, col);
      if (c == nullptr) {
        std::fprintf(out, "%*s", width, "-");
      } else if (c->n == 0) {
        std::fprintf(out, "%*s", width, "FAILED");
      } else if (!a.spec.baseline_col.empty() &&
                 col != a.spec.baseline_col) {
        std::fprintf(out, "%*.3f", width, c->speedup);
      } else {
        const auto it = c->metrics.find(a.spec.primary_metric);
        const double v = it == c->metrics.end() ? 0.0 : it->second.mean;
        std::fprintf(out, "%*.3f", width, v);
      }
    }
    std::fprintf(out, "\n");
  }

  if (!a.col_geomean.empty()) {
    std::fprintf(out, "%-16s", "geomean");
    for (const std::string& col : cols) {
      const auto it = a.col_geomean.find(col);
      if (it == a.col_geomean.end()) {
        std::fprintf(out, "%*s", width, "-");
      } else {
        std::fprintf(out, "%*.3f", width, it->second);
      }
    }
    std::fprintf(out, "\n");
  }
  if (const std::size_t failed = failed_points(a); failed > 0) {
    std::fprintf(out, "\n%zu point(s) FAILED:\n", failed);
    for (const PointResult& p : a.points) {
      if (!p.ok) {
        std::fprintf(out, "  %s: %s\n", p.id.c_str(), p.error.c_str());
      }
    }
  }
}

std::size_t failed_points(const Artifact& a) {
  std::size_t n = 0;
  for (const PointResult& p : a.points) n += p.ok ? 0 : 1;
  return n;
}

}  // namespace latdiv::exp
