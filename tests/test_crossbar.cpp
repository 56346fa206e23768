#include "icnt/crossbar.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace latdiv {
namespace {

constexpr std::uint32_t kSms = 4;

IcntConfig small_cfg() {
  IcntConfig cfg;
  cfg.partitions = 2;
  cfg.request_latency = 3;
  cfg.response_latency = 3;
  return cfg;
}

MemRequest req_to(ChannelId part, SmId sm, WarpInstrUid uid) {
  MemRequest r;
  r.loc.channel = part;
  r.tag.sm = sm;
  r.tag.instr = uid;
  return r;
}

MemResponse resp_to(SmId sm, WarpInstrUid uid) {
  MemResponse r;
  r.tag.sm = sm;
  r.tag.instr = uid;
  return r;
}

TEST(Crossbar, RequestDeliveredAfterLatency) {
  Crossbar x(small_cfg(), kSms, /*sticky=*/false);
  x.inject_request(0, req_to(1, 0, 7), 0);
  x.tick(0);
  EXPECT_EQ(x.peek_request(1, 2), nullptr);
  ASSERT_NE(x.peek_request(1, 3), nullptr);
  EXPECT_EQ(x.pop_request(1, 3).tag.instr, 7u);
}

TEST(Crossbar, PerSmOrderPreserved) {
  Crossbar x(small_cfg(), kSms, /*sticky=*/false);
  for (WarpInstrUid u = 0; u < 5; ++u) {
    x.inject_request(2, req_to(0, 2, u), 0);
  }
  std::vector<WarpInstrUid> seen;
  for (Cycle c = 0; c < 20; ++c) {
    x.tick(c);
    while (x.peek_request(0, c) != nullptr) {
      seen.push_back(x.pop_request(0, c).tag.instr);
    }
  }
  ASSERT_EQ(seen.size(), 5u);
  for (WarpInstrUid u = 0; u < 5; ++u) EXPECT_EQ(seen[u], u);
}

TEST(Crossbar, HeadOfLineBlockingPreservesOrderAcrossPartitions) {
  // SM 0's head targets partition 0, which refuses to pop; the later
  // request for partition 1 must NOT overtake it in flight beyond the
  // partition buffers: partition 1 receives nothing until partition 0's
  // buffer accepts the head.  (One in-flight buffer slot exists, so the
  // head moves off the SM queue; the point is order *within* the SM
  // stream, which we check by popping everything at the end.)
  IcntConfig cfg = small_cfg();
  cfg.partition_in_depth = 1;
  Crossbar x(cfg, kSms, /*sticky=*/false);
  x.inject_request(0, req_to(0, 0, 1), 0);
  x.inject_request(0, req_to(0, 0, 2), 0);
  x.inject_request(0, req_to(1, 0, 3), 0);
  for (Cycle c = 0; c < 10; ++c) x.tick(c);
  // Request 1 sits in partition 0's single-entry buffer; request 2 is
  // stuck at the SM head; request 3 behind it must not have reached
  // partition 1.
  EXPECT_EQ(x.peek_request(1, 9), nullptr);
  // Drain partition 0 and let the crossbar move on.
  (void)x.pop_request(0, 9);
  for (Cycle c = 10; c < 30; ++c) x.tick(c);
  ASSERT_NE(x.peek_request(0, 29), nullptr);
  EXPECT_EQ(x.pop_request(0, 29).tag.instr, 2u);
  for (Cycle c = 30; c < 40; ++c) x.tick(c);
  ASSERT_NE(x.peek_request(1, 39), nullptr);
  EXPECT_EQ(x.pop_request(1, 39).tag.instr, 3u);
}

TEST(Crossbar, RoundRobinSharesPartitionBandwidth) {
  Crossbar x(small_cfg(), kSms, /*sticky=*/false);
  // All four SMs target partition 0; one grant per cycle.
  for (SmId sm = 0; sm < 4; ++sm) {
    x.inject_request(sm, req_to(0, sm, sm), 0);
  }
  std::vector<SmId> grant_order;
  for (Cycle c = 0; c < 10; ++c) {
    x.tick(c);
    while (x.peek_request(0, c) != nullptr) {
      grant_order.push_back(x.pop_request(0, c).tag.sm);
    }
  }
  ASSERT_EQ(grant_order.size(), 4u);
  // Every SM served exactly once (fairness), in round-robin order.
  EXPECT_EQ(grant_order, (std::vector<SmId>{0, 1, 2, 3}));
}

TEST(Crossbar, StickyArbitrationKeepsSmStreak) {
  Crossbar x(small_cfg(), kSms, /*sticky=*/true);
  // SM 0 has a 3-request train; SM 1 has one request; all to partition 0.
  for (WarpInstrUid u = 0; u < 3; ++u) x.inject_request(0, req_to(0, 0, u), 0);
  x.inject_request(1, req_to(0, 1, 100), 0);
  std::vector<SmId> order;
  for (Cycle c = 0; c < 12; ++c) {
    x.tick(c);
    while (x.peek_request(0, c) != nullptr) {
      order.push_back(x.pop_request(0, c).tag.sm);
    }
  }
  ASSERT_EQ(order.size(), 4u);
  // Non-interleaving: SM 0's whole train first (Yuan et al. model).
  EXPECT_EQ(order, (std::vector<SmId>{0, 0, 0, 1}));
}

TEST(Crossbar, WithoutStickinessTrainsInterleave) {
  Crossbar x(small_cfg(), kSms, /*sticky=*/false);
  for (WarpInstrUid u = 0; u < 3; ++u) x.inject_request(0, req_to(0, 0, u), 0);
  x.inject_request(1, req_to(0, 1, 100), 0);
  std::vector<SmId> order;
  for (Cycle c = 0; c < 12; ++c) {
    x.tick(c);
    while (x.peek_request(0, c) != nullptr) {
      order.push_back(x.pop_request(0, c).tag.sm);
    }
  }
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[1], 1) << "round-robin must interleave SM 1";
}

TEST(Crossbar, ResponseRoutedToSmAfterLatency) {
  Crossbar x(small_cfg(), kSms, /*sticky=*/false);
  x.inject_response(1, resp_to(2, 9), 0);
  x.tick(0);
  EXPECT_FALSE(x.pop_response(2, 2).has_value());
  const auto r = x.pop_response(2, 3);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->tag.instr, 9u);
  EXPECT_FALSE(x.pop_response(0, 3).has_value());
}

TEST(Crossbar, OneResponsePerSmPerCycle) {
  Crossbar x(small_cfg(), kSms, /*sticky=*/false);
  x.inject_response(0, resp_to(0, 1), 0);
  x.inject_response(1, resp_to(0, 2), 0);
  x.tick(0);  // only one can move to SM 0 this cycle
  x.tick(1);
  int delivered = 0;
  delivered += x.pop_response(0, 3).has_value();
  delivered += x.pop_response(0, 4).has_value();
  EXPECT_EQ(delivered, 2);
}

TEST(Crossbar, InjectionBackpressure) {
  IcntConfig cfg = small_cfg();
  cfg.sm_queue_depth = 2;
  Crossbar x(cfg, kSms, /*sticky=*/false);
  EXPECT_TRUE(x.can_inject_request(0));
  x.inject_request(0, req_to(0, 0, 1), 0);
  x.inject_request(0, req_to(0, 0, 2), 0);
  EXPECT_FALSE(x.can_inject_request(0));
  EXPECT_TRUE(x.can_inject_request(1));
}

TEST(Crossbar, StatsCountMoves) {
  Crossbar x(small_cfg(), kSms, /*sticky=*/false);
  x.inject_request(0, req_to(0, 0, 1), 0);
  x.inject_response(0, resp_to(0, 1), 0);
  x.tick(0);
  EXPECT_EQ(x.stats().requests_moved, 1u);
  EXPECT_EQ(x.stats().responses_moved, 1u);
}

}  // namespace
}  // namespace latdiv
