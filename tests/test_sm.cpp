// SM model behaviour: blocking-load semantics, coalescing, L1 filtering,
// LSU dispatch order and warp-group tagging.  The SM is driven against a
// bare crossbar; this test plays the role of the memory partitions.
#include "gpu/sm.hpp"

#include "workload/generator.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

namespace latdiv {
namespace {

WorkloadProfile compute_only() {
  WorkloadProfile p;
  p.name = "compute";
  p.mem_instr_frac = 0.0;
  return p;
}

WorkloadProfile all_loads(double divergent, double lines_mean) {
  WorkloadProfile p;
  p.name = "loads";
  p.mem_instr_frac = 1.0;
  p.store_frac = 0.0;
  p.divergent_load_frac = divergent;
  p.divergent_lines_mean = lines_mean;
  p.cluster_len_mean = 1.0;
  p.footprint_bytes = 16ULL << 20;
  p.hot_frac = 0.0;
  return p;
}

struct Harness {
  explicit Harness(const WorkloadProfile& profile, std::uint32_t warps = 2)
      : gen(profile, 1, warps, 42),
        amap(AddressMapConfig{}),
        xbar(icnt_cfg(), /*sms=*/1, /*sticky=*/false) {
    SmConfig cfg;
    cfg.warps = warps;
    sm = std::make_unique<Sm>(0, cfg, gen, amap, xbar, tracker, 1, 1);
  }

  static IcntConfig icnt_cfg() {
    IcntConfig cfg;
    cfg.partitions = 6;
    cfg.request_latency = 1;
    cfg.response_latency = 1;
    return cfg;
  }

  /// Tick the SM in the core domain and echo every request back as a
  /// response after `mem_latency` cycles (a perfect memory).
  void run_to(Cycle end, Cycle mem_latency = 20) {
    for (; now < end; now += 2) {
      sm->tick(now);
      xbar.tick(now);
      for (ChannelId p = 0; p < 6; ++p) {
        while (const MemRequest* head = xbar.peek_request(p, now)) {
          requests.push_back(*head);
          if (head->kind == ReqKind::kRead) {
            pending[now + mem_latency].push_back(
                MemResponse{head->addr, head->tag, now + mem_latency, 1});
          }
          xbar.pop_request(p, now);
        }
      }
      for (auto it = pending.begin(); it != pending.end();) {
        if (it->first > now) break;
        for (const MemResponse& r : it->second) {
          xbar.inject_response(r.tag.instr % 6, r, now);  // any partition
        }
        it = pending.erase(it);
      }
    }
  }

  WorkloadGenerator gen;
  AddressMap amap;
  Crossbar xbar;
  InstrTracker tracker;
  std::unique_ptr<Sm> sm;
  std::vector<MemRequest> requests;
  std::map<Cycle, std::vector<MemResponse>> pending;
  Cycle now = 0;
};

TEST(Sm, ComputeOnlyIssuesEveryCycleEventually) {
  Harness h(compute_only(), 4);
  h.run_to(2000);
  EXPECT_GT(h.sm->stats().instructions, 100u);
  EXPECT_TRUE(h.requests.empty());
}

TEST(Sm, LoadsProduceRequestsAndBlockWarps) {
  Harness h(all_loads(1.0, 8.0), 1);
  h.run_to(40, /*mem_latency=*/100000);  // responses never arrive
  // The single warp issued one load and is now blocked: exactly one
  // instruction, and its coalesced requests are in flight.
  EXPECT_EQ(h.sm->stats().loads, 1u);
  EXPECT_GT(h.requests.size(), 1u);
  const std::uint64_t before = h.sm->stats().instructions;
  h.run_to(400, 100000);
  EXPECT_EQ(h.sm->stats().instructions, before) << "blocked warp issued";
}

TEST(Sm, WarpUnblocksWhenAllResponsesReturn) {
  Harness h(all_loads(1.0, 6.0), 1);
  h.run_to(3000, 30);
  EXPECT_GT(h.sm->stats().loads, 5u) << "warp must make repeated progress";
}

TEST(Sm, OtherWarpsIssueWhileOneBlocks) {
  Harness h(all_loads(1.0, 6.0), 8);
  h.run_to(600, 100000);
  // With 8 warps and no responses, several warps issue their first load
  // before the machine fills up.
  EXPECT_GT(h.sm->stats().loads, 3u);
}

TEST(Sm, L1HitsFilterRepeatLoads) {
  // Tiny footprint: after warm-up most loads hit in the 32KB L1 and
  // produce no interconnect traffic.
  WorkloadProfile p = all_loads(0.0, 1.0);
  p.footprint_bytes = 8 * 1024;
  Harness h(p, 1);
  h.run_to(6000, 20);
  EXPECT_GT(h.sm->stats().loads, 50u);
  EXPECT_LT(h.requests.size(), h.sm->stats().loads / 2)
      << "most loads should be L1 hits";
  EXPECT_GT(h.sm->l1().stats().hits, 0u);
}

TEST(Sm, RequestsCarryOwnerTag) {
  Harness h(all_loads(1.0, 4.0), 2);
  h.run_to(200, 100000);
  ASSERT_FALSE(h.requests.empty());
  for (const MemRequest& r : h.requests) {
    EXPECT_EQ(r.tag.sm, 0);
    EXPECT_NE(r.tag.instr, kNoWarpInstr);
  }
}

TEST(Sm, LastOfGroupTaggedOncePerChannel) {
  Harness h(all_loads(1.0, 12.0), 1);
  h.run_to(400, 100000);
  ASSERT_FALSE(h.requests.empty());
  // All requests belong to the single warp's first load.
  std::map<ChannelId, int> last_flags;
  std::map<ChannelId, const MemRequest*> last_seen;
  for (const MemRequest& r : h.requests) {
    if (r.last_of_group_at_mc) ++last_flags[r.loc.channel];
    last_seen[r.loc.channel] = &r;
  }
  for (const auto& [ch, count] : last_flags) {
    EXPECT_EQ(count, 1) << "channel " << static_cast<int>(ch);
  }
  // The flagged request must be the channel's final request in order.
  for (const auto& [ch, req] : last_seen) {
    EXPECT_TRUE(req->last_of_group_at_mc)
        << "final request per channel must carry the tag";
  }
}

TEST(Sm, StoresDoNotBlockWarp) {
  WorkloadProfile p = all_loads(0.0, 1.0);
  p.store_frac = 1.0;  // all memory instructions are stores
  Harness h(p, 1);
  h.run_to(800, 100000);  // no responses ever sent for writes
  EXPECT_GT(h.sm->stats().stores, 5u)
      << "stores are fire-and-forget; the warp keeps issuing";
}

TEST(Sm, MshrLimitStallsIssueGracefully) {
  WorkloadProfile p = all_loads(1.0, 30.0);  // huge divergent loads
  Harness h(p, 8);
  h.run_to(2000, 100000);
  // 32 MSHRs with ~30-line loads: after one load the file is nearly
  // full; further loads must stall rather than half-issue.
  EXPECT_GT(h.sm->stats().issue_stall_mshr, 0u);
  EXPECT_LE(h.sm->mshr().outstanding(), 32u);
}

TEST(Sm, TrackerFinalizedOnUnblock) {
  Harness h(all_loads(1.0, 4.0), 1);
  h.run_to(3000, 30);
  EXPECT_GT(h.tracker.summary().loads_finalized, 3u);
  EXPECT_EQ(h.tracker.inflight(), h.sm->mshr().outstanding() > 0 ? 1u : 0u);
}

TEST(Sm, InstructionsCountAllKinds) {
  WorkloadProfile p = all_loads(0.3, 4.0);
  p.mem_instr_frac = 0.3;
  p.store_frac = 0.2;
  Harness h(p, 4);
  h.run_to(4000, 30);
  const SmStats& s = h.sm->stats();
  EXPECT_GT(s.instructions, s.loads + s.stores);
}

}  // namespace
}  // namespace latdiv
