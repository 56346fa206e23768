#include "probe.hpp"

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ledger.hpp"

namespace latbench {

namespace {

/// Chase table entries: 256 KiB, resident in a core's L2.
constexpr std::uint32_t kTableSize = 1u << 16;
constexpr int kChaseSteps = 300'000;
/// Hash-map churn: operations over a fixed key space.
constexpr int kMapOps = 60'000;
constexpr std::uint64_t kMapKeys = 20'000;

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// One cycle through every entry (Sattolo's shuffle with a fixed seed),
/// so the chase never falls into a short loop.
const std::vector<std::uint32_t>& table() {
  static const std::vector<std::uint32_t> t = [] {
    std::vector<std::uint32_t> v(kTableSize);
    for (std::uint32_t i = 0; i < kTableSize; ++i) v[i] = i;
    std::uint64_t x = 88172645463325252ULL;
    for (std::uint32_t i = kTableSize - 1; i > 0; --i) {
      std::swap(v[i], v[xorshift(x) % i]);
    }
    return v;
  }();
  return t;
}

volatile std::uint64_t g_sink = 0;

/// Dependent loads with a data-dependent branch per step.
std::uint64_t chase() {
  const std::vector<std::uint32_t>& t = table();
  std::uint32_t idx = 0;
  std::uint64_t acc = 0;
  for (int i = 0; i < kChaseSteps; ++i) {
    idx = t[idx];
    if ((idx & 4) != 0) {
      acc += idx;
    } else {
      acc ^= static_cast<std::uint64_t>(idx) << 3;
    }
  }
  return acc;
}

/// Inserts, lookups and erases: allocation, hashing and branches.
std::uint64_t churn() {
  std::unordered_map<std::uint64_t, std::uint64_t> m;
  std::uint64_t x = 0x2545F4914F6CDD1DULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < kMapOps; ++i) {
    const std::uint64_t r = xorshift(x);
    const auto it = m.find(r % kMapKeys);
    if (it == m.end()) {
      m.emplace(r % kMapKeys, r);
    } else if ((r & 1) != 0) {
      m.erase(it);
    } else {
      acc += it->second;
    }
  }
  return acc + m.size();
}

}  // namespace

double probe_ms() {
  table();  // built once, outside the timed region
  const std::int64_t t0 = now_ns();
  g_sink = chase() + churn();
  return static_cast<double>(now_ns() - t0) * 1e-6;
}

}  // namespace latbench
