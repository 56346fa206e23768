#include "ledger.hpp"

#include <chrono>
#include <fstream>

#include "exp/json.hpp"

namespace latbench {

namespace {

/// Layers that keep one span per call; the rest are aggregated only.
bool keeps_spans(Layer layer) {
  switch (layer) {
    case Layer::kStepCore:
    case Layer::kStepDram:
    case Layer::kCorePolicy:
    case Layer::kMcPolicy:
    case Layer::kNext:
      return false;
    default:
      return true;
  }
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kPass: return "pass";
    case Layer::kPoint: return "point";
    case Layer::kSetup: return "exp.setup";
    case Layer::kStepCore: return "sim.step_core";
    case Layer::kStepDram: return "sim.step_dram";
    case Layer::kCorePolicy: return "core.policy";
    case Layer::kMcPolicy: return "mc.policy";
    case Layer::kNext: return "workload.next";
    case Layer::kPrime: return "ckpt.prime";
    case Layer::kSave: return "ckpt.save";
    case Layer::kLoad: return "ckpt.load";
    case Layer::kSkip: return "ckpt.skip";
    case Layer::kMeasure: return "ckpt.measure";
    case Layer::kReport: return "exp.report";
    case Layer::kCount: break;
  }
  return "?";
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Ledger::begin(Layer layer) {
  Frame f;
  f.layer = layer;
  if (!stack_.empty()) {
    const Frame& top = stack_.back();
    f.parent_span = top.span != kNoSpan ? top.span : top.parent_span;
  }
  f.start = now_ns();
  if (keeps_spans(layer)) {
    f.span = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({layer, f.parent_span, point_, pass_, f.start, 0});
  }
  stack_.push_back(f);
}

void Ledger::end() {
  const std::int64_t t = now_ns();
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = t - f.start;
  LayerTotals& lt = totals_[static_cast<std::size_t>(f.layer)];
  ++lt.calls;
  lt.total_ns += dur;
  lt.self_ns += dur - f.child;
  if (!stack_.empty()) stack_.back().child += dur;
  if (f.span != kNoSpan) spans_[f.span].end_ns = t;
}

bool Ledger::write_spans(const std::string& path,
                         const std::vector<std::string>& point_ids) const {
  using latdiv::exp::JsonValue;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  JsonValue::Array list;
  list.reserve(spans_.size());
  for (const Span& s : spans_) {
    JsonValue o{JsonValue::Object{}};
    o.set("name", layer_name(s.layer));
    o.set("pass", static_cast<std::uint64_t>(s.pass));
    o.set("point", s.point < point_ids.size() ? JsonValue{point_ids[s.point]}
                                              : JsonValue{});
    o.set("parent", s.parent == kNoSpan
                        ? JsonValue{}
                        : JsonValue{static_cast<std::uint64_t>(s.parent)});
    o.set("start_ns", static_cast<double>(s.start_ns - origin));
    o.set("end_ns", static_cast<double>(s.end_ns - origin));
    list.push_back(std::move(o));
  }
  JsonValue doc{JsonValue::Object{}};
  doc.set("schema", "latbench-spans/1");
  doc.set("spans", std::move(list));
  std::ofstream out(path, std::ios::binary);
  out << doc.dump();
  return static_cast<bool>(out);
}

}  // namespace latbench
