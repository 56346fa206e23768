// Positive fixtures for unused-suppression: a directive that suppresses
// nothing (or names no known rule) is itself a finding.  The
// `// expect-below:` marker refers to the line after it.
#include <unordered_map>

namespace fixture {

// expect-below: unused-suppression
// lint: pointer-key-ok
inline double stale() { return 1.0; }

// expect-below: unused-suppression
// lint: frobnicate
inline int unknown_directive() { return 0; }

// The retired alias `order-independent` names no rule either: it does
// not suppress the loop below, and it is reported itself.
inline int retired_alias() {
  std::unordered_map<int, int> counts;
  int n = 0;
  // expect-below: unused-suppression
  // lint: order-independent
  for (const auto& [k, v] : counts) {  // expect: unordered-iter
    n += k + v;
  }
  return n;
}

}  // namespace fixture
