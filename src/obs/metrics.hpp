// Deterministic metric primitives for the introspection layer.
//
// Unlike common/stats.hpp (plain members on hot-path components, mean-only
// accumulators), these are *registry* metrics: named, created on demand,
// exported wholesale as JSON/CSV at end of run.  They exist for
// distribution-shaped questions — "what does the warp latency-divergence
// histogram look like" (the paper's Fig. 3 quantity as a distribution,
// not a mean) — that scalar aggregates cannot answer.
//
// Determinism rules:
//   * histograms use fixed log2 bucket edges — no data-dependent binning,
//     so two runs that see the same samples produce the same buckets and
//     the same (bucket-upper-edge) percentile estimates;
//   * the registry preserves creation order and exports are rendered with
//     integer-only formatting, so exports are byte-stable;
//   * no wall-clock anywhere.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace latdiv::obs {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

  /// Snapshot serialization (src/ckpt).
  template <class Ar>
  void ckpt_io(Ar& ar);

 private:
  std::uint64_t value_ = 0;
};

/// Last-written value (levels: occupancy high-water marks and the like).
class Gauge {
 public:
  void set(std::uint64_t v) noexcept { value_ = v; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

  /// Snapshot serialization (src/ckpt).
  template <class Ar>
  void ckpt_io(Ar& ar);

 private:
  std::uint64_t value_ = 0;
};

/// Histogram over uint64 samples with fixed log2 bucketing:
///   bucket 0      holds exactly the value 0
///   bucket i >= 1 holds [2^(i-1), 2^i)   (i.e. values of bit-width i)
/// 65 buckets cover the full uint64 range, so there is no overflow bin to
/// tune and no sample is ever dropped.
class Log2Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void add(std::uint64_t v) noexcept {
    ++counts_[bucket_of(v)];
    ++total_;
    sum_ += v;
    if (total_ == 1 || v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  void merge(const Log2Histogram& other) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    if (other.total_ > 0) {
      if (total_ == 0 || other.min_ < min_) min_ = other.min_;
      if (other.max_ > max_) max_ = other.max_;
    }
    total_ += other.total_;
    sum_ += other.sum_;
  }

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) noexcept {
    std::size_t w = 0;
    while (v != 0) {
      v >>= 1;
      ++w;
    }
    return w;  // == std::bit_width(v)
  }

  /// Smallest value in bucket `i`.
  [[nodiscard]] static std::uint64_t lower_edge(std::size_t i) noexcept {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }

  /// Largest value in bucket `i` (inclusive).
  [[nodiscard]] static std::uint64_t upper_edge(std::size_t i) noexcept {
    if (i == 0) return 0;
    if (i >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << i) - 1;
  }

  /// Value below-or-at which a fraction `q` (clamped to [0,1]) of the
  /// samples fall, estimated as the inclusive upper edge of the bucket
  /// containing the ceil(q * total)-th sample.  0 for an empty histogram.
  /// Bucket-granular by design: deterministic, and log2 resolution is
  /// right for latency tails.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept {
    if (total_ == 0) return 0;
    if (q <= 0.0) q = 0.0;
    if (q >= 1.0) q = 1.0;
    auto target = static_cast<std::uint64_t>(q * static_cast<double>(total_));
    if (target < static_cast<double>(total_) * q) ++target;  // ceil
    if (target == 0) target = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= target) return upper_edge(i);
    }
    return upper_edge(kBuckets - 1);  // unreachable (total_ > 0)
  }

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min() const noexcept {
    return total_ ? min_ : 0;
  }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] std::uint64_t count_in(std::size_t bucket) const noexcept {
    return counts_[bucket];
  }

  /// Snapshot serialization (src/ckpt).
  template <class Ar>
  void ckpt_io(Ar& ar);

 private:
  std::uint64_t counts_[kBuckets] = {};
  std::uint64_t total_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Named metric store.  find-or-create by name; pointers returned are
/// stable for the registry's lifetime (instruments are heap nodes), so
/// hot paths resolve a name once and keep the pointer.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  [[nodiscard]] Log2Histogram& histogram(const std::string& name);

  [[nodiscard]] const Counter* find_counter(const std::string& name) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const;
  [[nodiscard]] const Log2Histogram* find_histogram(
      const std::string& name) const;

  /// Deterministic JSON dump: counters/gauges as name:value, histograms
  /// with count/sum/min/max, the standard percentile ladder and the
  /// non-empty buckets ([lo, hi] edge pairs).
  [[nodiscard]] std::string to_json() const;

  template <typename T>
  struct Named {
    std::string name;
    std::unique_ptr<T> instrument;
  };

  /// Snapshot serialization (src/ckpt): saved in creation order; loading
  /// find-or-creates by name, so instrument pointers cached by hot paths
  /// before the load stay valid and export order is reproduced.
  template <class Ar>
  void ckpt_io(Ar& ar);

 private:
  // Creation order is export order; lookup is linear (registries hold a
  // handful of instruments and hot paths cache the returned pointer).
  std::vector<Named<Counter>> counters_;
  std::vector<Named<Gauge>> gauges_;
  std::vector<Named<Log2Histogram>> histograms_;
};

}  // namespace latdiv::obs
