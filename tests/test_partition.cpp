// Partition (L2 slice + controller glue) behaviour: hits respond without
// DRAM, misses fetch through the controller, stores allocate dirty lines,
// evictions write back, and warp-group completion tags are forwarded.
#include "gpu/partition.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "gpu/tracker.hpp"
#include "mc/policy_fcfs.hpp"
#include "mc/policy.hpp"

namespace latdiv {
namespace {

struct CompletionProbe : TransactionScheduler {
  const char* name() const override { return "probe"; }
  void schedule_reads(MemoryController& mc, Cycle now) override {
    fcfs.schedule_reads(mc, now);
  }
  void on_group_complete(MemoryController&, const WarpTag& tag,
                         Cycle) override {
    completed.push_back(tag.instr);
  }
  FcfsPolicy fcfs;
  std::vector<WarpInstrUid> completed;
};

struct Harness {
  Harness()
      : amap(AddressMapConfig{}),
        xbar(make_icnt(), /*sms=*/2, /*sticky=*/false) {
    DramParams dp;
    dp.refresh_enabled = false;
    auto probe = std::make_unique<CompletionProbe>();
    probe_raw = probe.get();
    part = std::make_unique<Partition>(kPart, McConfig{},
                                       DramTiming::from(dp), std::move(probe),
                                       amap, xbar, tracker);
  }

  static IcntConfig make_icnt() {
    IcntConfig cfg;
    cfg.partitions = 6;
    cfg.request_latency = 2;
    cfg.response_latency = 2;
    return cfg;
  }

  /// An address guaranteed to live on partition 0 (searched).
  Addr addr_on_partition(std::uint64_t salt) const {
    for (Addr a = salt * 131072;; a += 128) {
      if (amap.decode(a).channel == kPart) return a;
    }
  }

  MemRequest read_req(Addr addr, WarpInstrUid uid, bool last = false) {
    MemRequest r;
    r.addr = amap.line_base(addr);
    r.kind = ReqKind::kRead;
    r.loc = amap.decode(r.addr);
    r.tag = WarpTag{0, 0, uid};
    r.last_of_group_at_mc = last;
    return r;
  }

  void run_to(Cycle end) {
    for (; now < end; ++now) {
      if (now % 2 == 0) {
        xbar.tick(now);
        part->tick_core(now);
      }
      part->tick_dram(now);
      // Collect responses as the SM side would.
      while (auto resp = xbar.pop_response(0, now)) {
        responses.push_back(*resp);
      }
    }
  }

  static constexpr ChannelId kPart = 0;
  AddressMap amap;
  Crossbar xbar;
  InstrTracker tracker;
  CompletionProbe* probe_raw = nullptr;
  std::unique_ptr<Partition> part;
  std::vector<MemResponse> responses;
  Cycle now = 0;
};

TEST(Partition, ColdReadMissFetchesFromDram) {
  Harness h;
  const Addr a = h.addr_on_partition(1);
  h.xbar.inject_request(0, h.read_req(a, 1), 0);
  h.run_to(400);
  ASSERT_EQ(h.responses.size(), 1u);
  EXPECT_EQ(h.responses[0].addr, a);
  EXPECT_EQ(h.part->stats().read_misses, 1u);
  EXPECT_EQ(h.part->mc().stats().reads_served, 1u);
}

TEST(Partition, SecondReadHitsInL2) {
  Harness h;
  const Addr a = h.addr_on_partition(1);
  h.xbar.inject_request(0, h.read_req(a, 1), 0);
  h.run_to(400);
  h.xbar.inject_request(0, h.read_req(a, 2), h.now);
  h.run_to(500);
  ASSERT_EQ(h.responses.size(), 2u);
  EXPECT_EQ(h.part->stats().read_hits, 1u);
  EXPECT_EQ(h.part->mc().stats().reads_served, 1u);  // still one DRAM read
}

TEST(Partition, ConcurrentMissesMergeInMshr) {
  Harness h;
  const Addr a = h.addr_on_partition(1);
  h.xbar.inject_request(0, h.read_req(a, 1), 0);
  h.xbar.inject_request(1, h.read_req(a, 2), 0);
  h.run_to(500);
  ASSERT_EQ(h.responses.size() +
                [&] {
                  std::size_t n = 0;
                  Harness* hp = &h;
                  while (hp->xbar.pop_response(1, hp->now)) ++n;
                  return n;
                }(),
            2u);
  EXPECT_EQ(h.part->stats().mshr_merges, 1u);
  EXPECT_EQ(h.part->mc().stats().reads_served, 1u);
}

TEST(Partition, L2HitLatencyIsPipelineDelayNotDram) {
  Harness h;
  const Addr a = h.addr_on_partition(1);
  h.xbar.inject_request(0, h.read_req(a, 1), 0);
  h.run_to(400);
  const Cycle warm_start = h.now;
  h.xbar.inject_request(0, h.read_req(a, 2), h.now);
  h.run_to(warm_start + 120);
  ASSERT_EQ(h.responses.size(), 2u);
  // Hit latency: crossbar (2+2) + pipeline (16) + core-tick rounding;
  // far below a DRAM round trip (~40+ cycles of array timing alone).
  EXPECT_LT(h.responses[1].completed - warm_start, 40u);
}

TEST(Partition, StoreMissAllocatesDirtyWithoutDramRead) {
  Harness h;
  const Addr a = h.addr_on_partition(1);
  MemRequest w = h.read_req(a, 1);
  w.kind = ReqKind::kWrite;
  h.xbar.inject_request(0, w, 0);
  h.run_to(200);
  EXPECT_EQ(h.part->stats().write_misses, 1u);
  EXPECT_EQ(h.part->mc().stats().reads_served, 0u);
  // A read to the same line now hits.
  h.xbar.inject_request(0, h.read_req(a, 2), h.now);
  h.run_to(400);
  EXPECT_EQ(h.part->stats().read_hits, 1u);
}

TEST(Partition, StoreHitMarksDirtyOnly) {
  Harness h;
  const Addr a = h.addr_on_partition(1);
  h.xbar.inject_request(0, h.read_req(a, 1), 0);
  h.run_to(400);
  MemRequest w = h.read_req(a, 2);
  w.kind = ReqKind::kWrite;
  h.xbar.inject_request(0, w, h.now);
  h.run_to(h.now + 100);
  EXPECT_EQ(h.part->stats().write_hits, 1u);
  EXPECT_EQ(h.part->stats().writebacks, 0u);
}

TEST(Partition, CapacityEvictionOfDirtyLineWritesBack) {
  Harness h;
  // Fill one L2 set (16 ways) with dirty store-allocated lines, then one
  // more: the LRU victim must be written back to DRAM.
  // Lines in the same L2 set on partition 0: set stride = sets*128.
  const std::uint32_t sets = h.part->l2().sets();
  std::vector<Addr> lines;
  for (Addr a = 0; lines.size() < 17; a += 128) {
    const DramLoc loc = h.amap.decode(a);
    if (loc.channel == Harness::kPart &&
        ((a / 128) % sets) == 0) {
      lines.push_back(a);
    }
  }
  Cycle t = 0;
  for (Addr a : lines) {
    MemRequest w = h.read_req(a, 1);
    w.kind = ReqKind::kWrite;
    h.run_to(t);
    h.xbar.inject_request(0, w, t);
    t += 16;
  }
  h.run_to(t + 3000);
  EXPECT_GE(h.part->stats().writebacks, 1u);
  EXPECT_GE(h.part->mc().stats().writes_served +
                h.part->mc().write_queue().size(),
            1u);
}

TEST(Partition, GroupCompletionForwardedOnMiss) {
  Harness h;
  const Addr a = h.addr_on_partition(1);
  h.xbar.inject_request(0, h.read_req(a, 5, /*last=*/true), 0);
  h.run_to(100);
  ASSERT_EQ(h.probe_raw->completed.size(), 1u);
  EXPECT_EQ(h.probe_raw->completed[0], 5u);
}

TEST(Partition, GroupCompletionForwardedEvenOnL2Hit) {
  Harness h;
  const Addr a = h.addr_on_partition(1);
  h.xbar.inject_request(0, h.read_req(a, 1), 0);
  h.run_to(400);
  h.xbar.inject_request(0, h.read_req(a, 6, /*last=*/true), h.now);
  h.run_to(h.now + 100);
  ASSERT_EQ(h.probe_raw->completed.size(), 1u);
  EXPECT_EQ(h.probe_raw->completed[0], 6u);
  EXPECT_EQ(h.part->mc().stats().reads_served, 1u);
}

TEST(Partition, TrackerSeesDramRequestAndCompletion) {
  Harness h;
  const Addr a = h.addr_on_partition(1);
  h.tracker.on_issue(1, 0);
  h.xbar.inject_request(0, h.read_req(a, 1), 0);
  h.run_to(400);
  h.tracker.finalize(1, h.now);
  EXPECT_EQ(h.tracker.summary().loads_touching_dram, 1u);
  EXPECT_GT(h.tracker.summary().first_req_latency.mean(), 0.0);
}

}  // namespace
}  // namespace latdiv
