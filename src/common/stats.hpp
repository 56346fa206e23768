// Lightweight statistics primitives.
//
// Components own their statistics as plain members (no global registry, no
// string lookups on the hot path).  The sim layer aggregates them into
// report tables at the end of a run.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/log.hpp"

namespace latdiv {

/// Running sum + count; reports mean.
class Accumulator {
 public:
  void add(double value) noexcept {
    sum_ += value;
    ++count_;
    max_ = std::max(max_, value);
  }

  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  void merge(const Accumulator& other) noexcept {
    sum_ += other.sum_;
    count_ += other.count_;
    max_ = std::max(max_, other.max_);
  }

  /// Snapshot serialization (src/ckpt); doubles travel as bit patterns,
  /// so a resumed run reports the exact same means.
  template <class Ar>
  void ckpt_io(Ar& ar) {
    ar.f64(sum_);
    ar.f64(max_);
    ar.u64(count_);
  }

 private:
  double sum_ = 0.0;
  double max_ = 0.0;
  std::uint64_t count_ = 0;
};

/// Fixed-bin histogram over [0, bin_width * bins); overflow goes to the
/// last bin.  Used for latency and divergence distributions.
class Histogram {
 public:
  Histogram(double bin_width, std::size_t bins)
      : bin_width_(bin_width), counts_(bins, 0) {
    LATDIV_ASSERT(bin_width > 0.0 && bins > 0, "bad histogram shape");
  }

  void add(double value) noexcept {
    auto bin = static_cast<std::size_t>(std::max(value, 0.0) / bin_width_);
    bin = std::min(bin, counts_.size() - 1);
    ++counts_[bin];
    ++total_;
  }

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::span<const std::uint64_t> counts() const noexcept {
    return counts_;
  }
  [[nodiscard]] double bin_width() const noexcept { return bin_width_; }

  /// Value below which `q` (in [0,1]) of the samples fall, estimated at
  /// bin granularity (upper edge of the containing bin).
  [[nodiscard]] double quantile(double q) const noexcept {
    if (total_ == 0) return 0.0;
    const auto target =
        static_cast<std::uint64_t>(q * static_cast<double>(total_));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen > target) return bin_width_ * static_cast<double>(i + 1);
    }
    return bin_width_ * static_cast<double>(counts_.size());
  }

 private:
  double bin_width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Ratio of two counters, guarded against a zero denominator.
[[nodiscard]] inline double safe_ratio(double num, double den) noexcept {
  return den == 0.0 ? 0.0 : num / den;
}

/// Geometric mean of a positive series (0.0 for an empty one).
[[nodiscard]] double geomean(std::span<const double> values);

/// Fixed-width numeric cell used by the bench report printers.
[[nodiscard]] std::string fixed(double value, int decimals = 2);

}  // namespace latdiv
