#include "obs/metrics.hpp"

#include <cinttypes>
#include <cstdio>

namespace latdiv::obs {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const int n = std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out.append(buf, static_cast<std::size_t>(n));
}

constexpr double kQuantiles[] = {0.50, 0.90, 0.99};
constexpr const char* kQuantileNames[] = {"p50", "p90", "p99"};

}  // namespace

template <typename T>
static T& find_or_create(std::vector<MetricRegistry::Named<T>>& vec,
                         const std::string& name) {
  for (auto& n : vec) {
    if (n.name == name) return *n.instrument;
  }
  vec.push_back({name, std::make_unique<T>()});
  return *vec.back().instrument;
}

template <typename T>
static const T* find_existing(const std::vector<MetricRegistry::Named<T>>& vec,
                              const std::string& name) {
  for (const auto& n : vec) {
    if (n.name == name) return n.instrument.get();
  }
  return nullptr;
}

Counter& MetricRegistry::counter(const std::string& name) {
  return find_or_create(counters_, name);
}

Gauge& MetricRegistry::gauge(const std::string& name) {
  return find_or_create(gauges_, name);
}

Log2Histogram& MetricRegistry::histogram(const std::string& name) {
  return find_or_create(histograms_, name);
}

const Counter* MetricRegistry::find_counter(const std::string& name) const {
  return find_existing(counters_, name);
}

const Gauge* MetricRegistry::find_gauge(const std::string& name) const {
  return find_existing(gauges_, name);
}

const Log2Histogram* MetricRegistry::find_histogram(
    const std::string& name) const {
  return find_existing(histograms_, name);
}

std::string MetricRegistry::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& c : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + c.name + "\": ";
    append_u64(out, c.instrument->value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& g : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + g.name + "\": ";
    append_u64(out, g.instrument->value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& h : histograms_) {
    const Log2Histogram& hist = *h.instrument;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + h.name + "\": {\"count\": ";
    append_u64(out, hist.total());
    out += ", \"sum\": ";
    append_u64(out, hist.sum());
    out += ", \"min\": ";
    append_u64(out, hist.min());
    out += ", \"max\": ";
    append_u64(out, hist.max());
    for (std::size_t q = 0; q < 3; ++q) {
      out += ", \"";
      out += kQuantileNames[q];
      out += "\": ";
      append_u64(out, hist.quantile(kQuantiles[q]));
    }
    out += ", \"buckets\": [";
    bool bfirst = true;
    for (std::size_t i = 0; i < Log2Histogram::kBuckets; ++i) {
      if (hist.count_in(i) == 0) continue;
      if (!bfirst) out += ", ";
      bfirst = false;
      out += "[";
      append_u64(out, Log2Histogram::lower_edge(i));
      out += ", ";
      append_u64(out, Log2Histogram::upper_edge(i));
      out += ", ";
      append_u64(out, hist.count_in(i));
      out += "]";
    }
    out += "]}";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

}  // namespace latdiv::obs
