// Unit tests for the introspection layer's metric primitives: log2
// histogram bucketing and percentile math (including the empty /
// one-sample / extreme-value edge cases the exporter must survive), and
// the registry's deterministic JSON/CSV exports.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "exp/json.hpp"

namespace latdiv::obs {
namespace {

constexpr std::uint64_t kMax64 = std::numeric_limits<std::uint64_t>::max();

TEST(Log2Histogram, BucketOfMatchesBitWidth) {
  EXPECT_EQ(Log2Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Log2Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Log2Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Log2Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Log2Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Log2Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Log2Histogram::bucket_of(8), 4u);
  EXPECT_EQ(Log2Histogram::bucket_of((1ull << 31)), 32u);
  EXPECT_EQ(Log2Histogram::bucket_of((1ull << 32) - 1), 32u);
  EXPECT_EQ(Log2Histogram::bucket_of(1ull << 63), 64u);
  EXPECT_EQ(Log2Histogram::bucket_of(kMax64), 64u);
}

TEST(Log2Histogram, EdgesArePowersOfTwo) {
  // Bucket 0 holds exactly {0}.
  EXPECT_EQ(Log2Histogram::lower_edge(0), 0u);
  EXPECT_EQ(Log2Histogram::upper_edge(0), 0u);
  // Bucket i >= 1 holds [2^(i-1), 2^i - 1].
  for (std::size_t i = 1; i < 64; ++i) {
    EXPECT_EQ(Log2Histogram::lower_edge(i), 1ull << (i - 1));
    EXPECT_EQ(Log2Histogram::upper_edge(i), (1ull << i) - 1);
    // Edges partition the range: upper(i) + 1 == lower(i + 1).
    EXPECT_EQ(Log2Histogram::upper_edge(i) + 1, Log2Histogram::lower_edge(i + 1));
  }
  // The top bucket's upper edge saturates instead of overflowing.
  EXPECT_EQ(Log2Histogram::upper_edge(64), kMax64);
  // Every bucket contains its own edges.
  for (std::size_t i = 0; i < Log2Histogram::kBuckets; ++i) {
    EXPECT_EQ(Log2Histogram::bucket_of(Log2Histogram::lower_edge(i)), i);
    EXPECT_EQ(Log2Histogram::bucket_of(Log2Histogram::upper_edge(i)), i);
  }
}

TEST(Log2Histogram, EmptyHistogramIsInert) {
  const Log2Histogram h;
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_EQ(h.quantile(1.0), 0u);
}

TEST(Log2Histogram, OneSampleDominatesEveryQuantile) {
  Log2Histogram h;
  h.add(37);  // bucket 6: [32, 63]
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(h.sum(), 37u);
  EXPECT_EQ(h.min(), 37u);
  EXPECT_EQ(h.max(), 37u);
  for (const double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.quantile(q), 63u) << q;
  }
}

TEST(Log2Histogram, QuantileIsBucketUpperEdge) {
  Log2Histogram h;
  // 90 samples in bucket 1 (value 1), 10 in bucket 7 ([64, 127]).
  for (int i = 0; i < 90; ++i) h.add(1);
  for (int i = 0; i < 10; ++i) h.add(100);
  EXPECT_EQ(h.quantile(0.50), 1u);
  EXPECT_EQ(h.quantile(0.90), 1u);   // 90th sample is still in bucket 1
  EXPECT_EQ(h.quantile(0.91), 127u); // 91st crosses into bucket 7
  EXPECT_EQ(h.quantile(0.99), 127u);
  EXPECT_EQ(h.quantile(1.0), 127u);
  // Out-of-range fractions clamp instead of misbehaving.
  EXPECT_EQ(h.quantile(-0.5), 1u);
  EXPECT_EQ(h.quantile(2.0), 127u);
}

TEST(Log2Histogram, ExtremeValuesNeitherOverflowNorDrop) {
  Log2Histogram h;
  h.add(0);
  h.add(kMax64);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.count_in(0), 1u);
  EXPECT_EQ(h.count_in(64), 1u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), kMax64);
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_EQ(h.quantile(1.0), kMax64);
}

TEST(Log2Histogram, MergeAddsCountsAndKeepsExtremes) {
  Log2Histogram a, b;
  a.add(5);
  a.add(9);
  b.add(2);
  b.add(1000);
  a.merge(b);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.sum(), 5u + 9u + 2u + 1000u);
  EXPECT_EQ(a.min(), 2u);
  EXPECT_EQ(a.max(), 1000u);
  // Merging an empty histogram changes nothing.
  const Log2Histogram empty;
  a.merge(empty);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.min(), 2u);
}

TEST(MetricRegistry, FindOrCreateReturnsStableInstruments) {
  MetricRegistry reg;
  Counter& c = reg.counter("events");
  c.add(3);
  EXPECT_EQ(&reg.counter("events"), &c);  // same instrument, not a copy
  EXPECT_EQ(reg.counter("events").value(), 3u);
  EXPECT_EQ(reg.find_counter("events")->value(), 3u);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);

  Gauge& g = reg.gauge("depth");
  g.set(7);
  g.set(4);
  EXPECT_EQ(reg.find_gauge("depth")->value(), 4u);

  Log2Histogram& h = reg.histogram("lat");
  h.add(10);
  EXPECT_EQ(reg.find_histogram("lat")->total(), 1u);
  EXPECT_EQ(reg.find_histogram("depth"), nullptr);  // kind-scoped lookup
}

TEST(MetricRegistry, JsonExportParsesAndRoundTripsValues) {
  MetricRegistry reg;
  reg.counter("c.events").add(42);
  reg.gauge("g.depth").set(9);
  Log2Histogram& h = reg.histogram("h.lat");
  for (int i = 0; i < 10; ++i) h.add(100);

  const exp::JsonValue doc = exp::JsonValue::parse(reg.to_json());
  EXPECT_EQ(doc.at("counters").at("c.events").as_number(), 42.0);
  EXPECT_EQ(doc.at("gauges").at("g.depth").as_number(), 9.0);
  const exp::JsonValue& hist = doc.at("histograms").at("h.lat");
  EXPECT_EQ(hist.at("count").as_number(), 10.0);
  EXPECT_EQ(hist.at("sum").as_number(), 1000.0);
  EXPECT_EQ(hist.at("p50").as_number(), 127.0);
  EXPECT_EQ(hist.at("p99").as_number(), 127.0);
  // Exactly one non-empty bucket: [64, 127] with count 10.
  const auto& buckets = hist.at("buckets").as_array();
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_EQ(buckets[0].as_array()[0].as_number(), 64.0);
  EXPECT_EQ(buckets[0].as_array()[1].as_number(), 127.0);
  EXPECT_EQ(buckets[0].as_array()[2].as_number(), 10.0);
}

TEST(MetricRegistry, ExportsAreByteDeterministic) {
  const auto build = [] {
    auto reg = std::make_unique<MetricRegistry>();
    reg->counter("a").add(1);
    reg->gauge("b").set(2);
    reg->histogram("c").add(3);
    return reg;
  };
  const auto r1 = build();
  const auto r2 = build();
  EXPECT_EQ(r1->to_json(), r2->to_json());
}

}  // namespace
}  // namespace latdiv::obs
