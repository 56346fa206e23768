// Checkpoint-reading idioms done right, mirroring src/ckpt/snapshot.cpp:
// section tables in ordered containers keyed by integer position,
// wall-clock reads only for load-time measurement (suppressed as such),
// and integer CRC aggregation where iteration order is vouched.
// latdiv-lint must report nothing here and count every directive as used.
#include <chrono>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

namespace fixture_good {

struct SectionFrame {
  std::vector<unsigned char> payload;
  std::uint32_t crc = 0;
};

class SectionTable {
 private:
  // Integer file-position keys: iteration order is the on-disk section
  // order, identical on every run.
  std::map<std::uint64_t, SectionFrame> frames_;
};

double load_throughput_s(std::uint64_t snapshot_bytes) {
  // Timing a snapshot load is measurement, never serialized state.
  const auto t0 = std::chrono::steady_clock::now();  // lint: wall-clock-ok
  const auto t1 = std::chrono::steady_clock::now();  // lint: wall-clock-ok
  (void)snapshot_bytes;
  return std::chrono::duration<double>(t1 - t0).count();
}

std::uint64_t cached_payload_total() {
  std::unordered_map<std::uint32_t, SectionFrame> frame_cache;
  std::uint64_t payload_sum = 0;
  // Integer sum: commutative, so hash order cannot change the result.
  // lint: unordered-iter-ok
  for (const auto& [pos, frame] : frame_cache) {
    (void)pos;
    payload_sum += frame.payload.size();
  }
  return payload_sum;
}

}  // namespace fixture_good
