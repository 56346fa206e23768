// Host-time ledger for the traced benchmark run.
//
// The benchmark times calls into the simulator's public entry points from
// its own code (see traced.hpp).  Every timed call opens a frame on a
// stack; closing it charges the frame's duration to its layer and to the
// enclosing frame's child time, so a layer's self time is its duration
// minus the time its children cover.  Because every child interval lies
// inside its parent's, the self times of all layers sum exactly to the
// root frame's duration — the traced wall time.
//
// Coarse layers (passes, points, set-up, checkpoint calls, reporting)
// keep one span per call in memory; the span list is written out when the
// benchmark ends.  Fine layers (single simulator steps, scheduler calls,
// instruction draws) run millions of times per pass, so they are only
// aggregated into per-layer call counts and times.
//
// Single-threaded by design: the traced run drives every simulator from
// one thread so that the self times sum to wall time.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace latbench {

enum class Layer : std::uint8_t {
  kPass,        ///< root: one traced pass over a workload
  kPoint,       ///< one point; self time is teardown and loop overhead
  kSetup,       ///< manifest expansion and Simulator construction
  kStepCore,    ///< Simulator::step on a core-clock tick
  kStepDram,    ///< Simulator::step on a DRAM-only cycle
  kCorePolicy,  ///< WG-family TransactionScheduler calls
  kMcPolicy,    ///< baseline TransactionScheduler calls
  kNext,        ///< InstrSource::next
  kPrime,       ///< SampledRunner::measure_window on the priming window
  kSave,        ///< ckpt::save_snapshot
  kLoad,        ///< ckpt::load_snapshot
  kSkip,        ///< SampledRunner::skip_to
  kMeasure,     ///< SampledRunner::measure_window on a fanned-out window
  kReport,      ///< finish(), metric flattening, checks, artifact writing
  kCount,
};

inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);

[[nodiscard]] const char* layer_name(Layer layer);

struct LayerTotals {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

using LayerTable = std::array<LayerTotals, kLayerCount>;

struct Span {
  Layer layer = Layer::kPass;
  std::uint32_t parent = 0;  ///< index into the span list, or kNoSpan
  std::uint32_t point = 0;   ///< point index, or Ledger::kNoPoint
  std::uint32_t pass = 0;    ///< traced pass the span belongs to
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Monotonic host time in nanoseconds.
[[nodiscard]] std::int64_t now_ns();

class Ledger {
 public:
  static constexpr std::uint32_t kNoSpan = 0xffffffffu;
  static constexpr std::uint32_t kNoPoint = 0xffffffffu;

  void begin(Layer layer);
  void end();

  void set_pass(std::uint32_t pass) { pass_ = pass; }
  void set_point(std::uint32_t point) { point_ = point; }

  [[nodiscard]] const LayerTable& totals() const { return totals_; }
  /// Forget the totals (spans are kept until written out).
  void reset_totals() { totals_ = {}; }

  /// Write every span as JSON, with point ids resolved from `point_ids`.
  [[nodiscard]] bool write_spans(const std::string& path,
                                 const std::vector<std::string>& point_ids)
      const;

 private:
  struct Frame {
    Layer layer = Layer::kPass;
    std::int64_t start = 0;
    std::int64_t child = 0;
    std::uint32_t span = kNoSpan;
    std::uint32_t parent_span = kNoSpan;
  };

  std::vector<Frame> stack_;
  LayerTable totals_{};
  std::vector<Span> spans_;
  std::uint32_t pass_ = 0;
  std::uint32_t point_ = kNoPoint;
};

/// Times one call into a layer; a null ledger makes it a no-op, which is
/// how the untraced passes share code with the traced ones.
class Scope {
 public:
  Scope(Ledger* ledger, Layer layer) : ledger_(ledger) {
    if (ledger_ != nullptr) ledger_->begin(layer);
  }
  ~Scope() {
    if (ledger_ != nullptr) ledger_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Ledger* ledger_;
};

}  // namespace latbench
