// Suppressed-but-justified cases for the determinism rule family:
// latdiv-lint must report nothing in this directory, and every directive
// here must be counted as used (an unused one is itself a finding).
#include <chrono>
#include <cstdlib>
#include <map>
#include <unordered_map>

namespace fixture_good {

double wall_ms() {
  auto t0 = std::chrono::steady_clock::now();  // lint: wall-clock-ok
  (void)t0;
  return 0.0;
}

int jitter() {
  return rand();  // lint: unseeded-rng-ok
}

int count_entries() {
  std::unordered_map<int, int> m;
  int n = 0;
  // Pure aggregation with integer arithmetic: order-independent.
  // lint: unordered-iter-ok
  for (const auto& [k, v] : m) {
    (void)k;
    n += v;
  }
  return n;
}

struct Tag {};

class TagIndex {
 private:
  std::map<Tag*, int> order_;  // lint: pointer-key-ok
};

double float_total() {
  std::unordered_map<int, double> m;
  double total = 0.0;
  // lint: unordered-iter-ok
  for (const auto& [k, w] : m) {
    (void)k;
    total += w;  // lint: float-accum-ok
  }
  return total;
}

// Mutable statics: annotated with the lock that guards them, or
// suppressed with a justification.
class Registry {
 private:
  static int live_ LATDIV_GUARDED_BY(mu_);
};

int legacy_bump() {
  static int legacy = 0;  // lint: mutable-static-ok
  return ++legacy;
}

}  // namespace fixture_good
