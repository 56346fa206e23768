#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace latdiv {

unsigned parallel_for(std::size_t tasks, unsigned jobs,
                      const std::function<void(std::size_t)>& fn) {
  if (tasks == 0) return 0;
  const auto threads =
      static_cast<unsigned>(std::min<std::size_t>(std::max(jobs, 1u), tasks));

  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;  // first failure, guarded by error_mu
  const auto work = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
        next.store(tasks, std::memory_order_relaxed);  // stop claiming
      }
    }
  };

  std::vector<std::thread> spawned;
  spawned.reserve(threads - 1);
  try {
    for (unsigned t = 1; t < threads; ++t) spawned.emplace_back(work);
  } catch (const std::system_error&) {
    // The host refused another thread: the ones already running and the
    // caller claim the remaining indices between them.
  }
  work();
  for (std::thread& t : spawned) t.join();
  if (error) std::rethrow_exception(error);
  return static_cast<unsigned>(spawned.size()) + 1;
}

}  // namespace latdiv
