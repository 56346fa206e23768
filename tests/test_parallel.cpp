// parallel_for (src/common/parallel.hpp): every index runs exactly once
// for any (tasks, jobs) pair, jobs <= 1 stays on the calling thread, the
// thread count never exceeds the task count, and a task's exception
// reaches the caller.
#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace latdiv {
namespace {

struct FanOut {
  std::vector<int> hits;              ///< per-index execution count
  std::set<std::thread::id> threads;  ///< threads that ran a task
  unsigned reported = 0;              ///< parallel_for's return value
};

FanOut fan_out(std::size_t tasks, unsigned jobs) {
  FanOut r;
  std::vector<std::atomic<int>> hits(tasks);
  std::mutex mu;
  r.reported = parallel_for(tasks, jobs, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(mu);
    r.threads.insert(std::this_thread::get_id());
  });
  for (const auto& h : hits) r.hits.push_back(h.load());
  return r;
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  for (const std::size_t tasks : {0u, 1u, 7u, 100u}) {
    for (const unsigned jobs : {1u, 2u, 8u}) {
      const FanOut r = fan_out(tasks, jobs);
      ASSERT_EQ(r.hits.size(), tasks);
      for (std::size_t i = 0; i < tasks; ++i) {
        EXPECT_EQ(r.hits[i], 1)
            << "index " << i << ", tasks " << tasks << ", jobs " << jobs;
      }
    }
  }
}

TEST(ParallelFor, OneJobSpawnsNoThread) {
  for (const unsigned jobs : {0u, 1u}) {
    const FanOut r = fan_out(100, jobs);
    EXPECT_EQ(r.reported, 1u);
    ASSERT_EQ(r.threads.size(), 1u);
    EXPECT_EQ(*r.threads.begin(), std::this_thread::get_id());
  }
}

TEST(ParallelFor, NoTasksRunNothing) {
  EXPECT_EQ(fan_out(0, 8).reported, 0u);
  EXPECT_TRUE(fan_out(0, 8).threads.empty());
}

TEST(ParallelFor, ThreadCountIsCappedByTasks) {
  for (const std::size_t tasks : {1u, 3u, 7u}) {
    const FanOut r = fan_out(tasks, 8);
    EXPECT_EQ(r.reported, tasks) << "tasks " << tasks;
    EXPECT_LE(r.threads.size(), tasks) << "tasks " << tasks;
  }
  EXPECT_EQ(fan_out(100, 8).reported, 8u);
  EXPECT_LE(fan_out(100, 8).threads.size(), 8u);
}

TEST(ParallelFor, TaskExceptionReachesTheCaller) {
  for (const unsigned jobs : {1u, 4u}) {
    EXPECT_THROW(parallel_for(50, jobs,
                              [](std::size_t i) {
                                if (i == 17) throw std::runtime_error("17");
                              }),
                 std::runtime_error)
        << "jobs " << jobs;
  }
}

}  // namespace
}  // namespace latdiv
