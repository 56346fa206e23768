// Trace-I/O idioms done right, mirroring src/workload/trace.cpp: stream
// state in ordered containers keyed by integer warp index, wall-clock
// reads only for measurement (suppressed as such), and integer
// aggregation where iteration order is vouched.  latdiv-lint must report
// nothing here and count every directive as used.
#include <chrono>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

namespace fixture_good {

struct WarpStreamBuf {
  std::vector<unsigned char> payload;
  std::uint64_t records = 0;
};

class TraceIndex {
 private:
  // Integer warp-index keys: iteration order is the SM-major warp order,
  // identical on every run.
  std::map<std::uint32_t, WarpStreamBuf> streams_;
};

double decode_throughput_s(std::uint64_t payload_bytes) {
  // Timing a decode is measurement, never simulator or file-format state.
  const auto t0 = std::chrono::steady_clock::now();  // lint: wall-clock-ok
  const auto t1 = std::chrono::steady_clock::now();  // lint: wall-clock-ok
  (void)payload_bytes;
  return std::chrono::duration<double>(t1 - t0).count();
}

std::uint64_t cached_record_total() {
  std::unordered_map<std::uint32_t, WarpStreamBuf> cache;
  std::uint64_t record_sum = 0;
  // Integer sum: commutative, so hash order cannot change the result.
  // lint: unordered-iter-ok
  for (const auto& [wi, ws] : cache) {
    (void)wi;
    record_sum += ws.records;
  }
  return record_sum;
}

}  // namespace fixture_good
