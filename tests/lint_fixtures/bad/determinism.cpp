// Positive fixtures for the determinism rule family.  Each `// expect:`
// marker names the rule latdiv-lint must report on that exact line
// (tests/test_lint.cpp compares the two sets).  This file is never
// compiled — it exists only to be linted.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>
#include <unordered_map>

namespace fixture {

double now_ms() {
  auto t0 = std::chrono::steady_clock::now();  // expect: wall-clock
  (void)t0;
  return 0.0;
}

long stamp() {
  return time(nullptr);  // expect: wall-clock
}

void fill_tm() {
  gettimeofday(nullptr, nullptr);  // expect: wall-clock
}

int noise() {
  return rand();  // expect: unseeded-rng
}

unsigned entropy_seed() {
  std::random_device rd;  // expect: unseeded-rng
  return rd();
}

double max_latency() {
  std::unordered_map<int, double> local;
  double worst = 0.0;
  for (auto it = local.begin(); it != local.end(); ++it) {  // expect: unordered-iter
    if (it->second > worst) worst = it->second;
  }
  return worst;
}

double biased_sum() {
  std::unordered_map<int, double> weights;
  double sum = 0.0;
  // The loop itself is vouched order-independent, but float accumulation
  // inside it must still be reported: FP addition does not commute across
  // reorderings.
  // lint: order-independent
  for (const auto& [k, w] : weights) {
    (void)k;
    sum += w;  // expect: float-accum
  }
  return sum;
}

// Mutable statics are shared by every simulation in the process, and
// --jobs runs simulations concurrently.
class PointCounter {
 private:
  static unsigned long instances_;  // expect: mutable-static
  unsigned long local_count_ = 0;   // value member: per-instance, fine
};

int next_fixture_id() {
  static int counter = 0;  // expect: mutable-static
  return ++counter;
}

}  // namespace fixture
