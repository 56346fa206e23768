#include "common/bounded_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <iterator>
#include <string>
#include <vector>

namespace latdiv {
namespace {

TEST(BoundedQueue, StartsEmpty) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.full());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.capacity(), 4u);
  EXPECT_EQ(q.free_slots(), 4u);
}

TEST(BoundedQueue, FifoOrder) {
  BoundedQueue<int> q(4);
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
}

TEST(BoundedQueue, FullAtCapacity) {
  BoundedQueue<int> q(2);
  q.push(1);
  EXPECT_FALSE(q.full());
  q.push(2);
  EXPECT_TRUE(q.full());
  EXPECT_EQ(q.free_slots(), 0u);
}

TEST(BoundedQueue, EraseFromMiddle) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) q.push(i);
  auto it = q.begin();
  ++it;
  ++it;  // points at 2
  q.erase(it);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.pop(), 0);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_EQ(q.pop(), 4);
}

TEST(BoundedQueue, IterationSeesArrivalOrder) {
  BoundedQueue<std::string> q(4);
  q.push("a");
  q.push("b");
  std::string joined;
  for (const auto& s : q) joined += s;
  EXPECT_EQ(joined, "ab");
}

TEST(BoundedQueue, FrontPeeksWithoutRemoval) {
  BoundedQueue<int> q(2);
  q.push(9);
  EXPECT_EQ(q.front(), 9);
  EXPECT_EQ(q.size(), 1u);
}

static_assert(std::random_access_iterator<BoundedQueue<int>::iterator>);
static_assert(std::random_access_iterator<BoundedQueue<int>::const_iterator>);

// Differential check of the ring against a std::deque reference: random
// push / pop / erase-anywhere / clear streams that wrap the ring many
// times, comparing the full FIFO walk, random `begin() + k` reads and the
// position erase returns after every step.
TEST(BoundedQueue, MatchesDequeOnRandomStreams) {
  for (const std::size_t cap : {std::size_t{1}, std::size_t{8}, std::size_t{64}}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + cap;
      auto below = [&state](std::uint64_t n) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return (state >> 33) % n;
      };
      BoundedQueue<int> q(cap);
      std::deque<int> ref;
      int next = 0;
      std::uint64_t pops = 0;
      for (int step = 0; step < 20000; ++step) {
        const std::uint64_t op = below(100);
        if (op < 45) {  // push
          if (ref.size() < cap) {
            q.push(next);
            ref.push_back(next);
            ++next;
          }
          ASSERT_EQ(q.full(), ref.size() == cap);
        } else if (op < 75) {  // pop
          if (!ref.empty()) {
            ASSERT_EQ(q.front(), ref.front());
            ASSERT_EQ(q.pop(), ref.front());
            ref.pop_front();
            ++pops;
          }
        } else if (op < 99) {  // erase at any position
          if (!ref.empty()) {
            const auto k = static_cast<std::ptrdiff_t>(below(ref.size()));
            const auto it = q.erase(q.begin() + k);
            const auto rit = ref.erase(ref.begin() + k);
            ASSERT_EQ(it - q.begin(), rit - ref.begin());
            ASSERT_EQ(it == q.end(), rit == ref.end());
            if (rit != ref.end()) {
              ASSERT_EQ(*it, *rit);
            }
          }
        } else {
          q.clear();
          ref.clear();
        }
        ASSERT_EQ(q.size(), ref.size());
        ASSERT_EQ(q.empty(), ref.empty());
        ASSERT_EQ(q.free_slots(), cap - ref.size());
        ASSERT_EQ(static_cast<std::size_t>(q.end() - q.begin()), ref.size());
        std::size_t i = 0;
        for (const int v : q) {
          ASSERT_EQ(v, ref[i++]) << "cap " << cap;
        }
        if (!ref.empty()) {
          const auto k = static_cast<std::ptrdiff_t>(below(ref.size()));
          const BoundedQueue<int>& cq = q;
          ASSERT_EQ(*(cq.begin() + k), ref[static_cast<std::size_t>(k)]);
          ASSERT_EQ(q.begin()[k], ref[static_cast<std::size_t>(k)]);
          ASSERT_EQ(*(q.end() - 1), ref.back());
        }
      }
      // The head laps the ring many times.
      EXPECT_GT(pops, 4 * cap) << "stream too short to wrap the ring";
    }
  }
}

TEST(BoundedQueue, EraseReturnsFollowingElement) {
  BoundedQueue<int> q(4);
  for (int i = 0; i < 4; ++i) q.push(i);
  (void)q.pop();
  (void)q.pop();
  q.push(4);
  q.push(5);  // wrapped: slots hold 4 5 2 3, FIFO 2 3 4 5
  auto it = q.erase(q.begin() + 1);
  EXPECT_EQ(*it, 4);
  it = q.erase(q.begin());
  EXPECT_EQ(*it, 4);
  std::vector<int> rest(q.begin(), q.end());
  EXPECT_EQ(rest, (std::vector<int>{4, 5}));
}

TEST(BoundedQueueDeath, PushOnFullAborts) {
  BoundedQueue<int> q(1);
  q.push(1);
  EXPECT_DEATH(q.push(2), "full");
}

TEST(BoundedQueueDeath, PopOnEmptyAborts) {
  BoundedQueue<int> q(1);
  EXPECT_DEATH((void)q.pop(), "empty");
}

}  // namespace
}  // namespace latdiv
