// The paper's key idea (§IV-A, Fig. 5), reproduced on the real controller.
//
// Two warps A and B each issue N requests.  If the controller interleaves
// them, both warps finish near cycle 2N*T and the average stall is
// ~(2N - 1/2)*T.  If warp A's requests are served as a unit first, the
// average drops to ~1.5N*T.  This example builds exactly that scenario —
// two warps, N row-hit requests each, same bank so service serialises —
// and prints the completion times under an interleaving policy (FCFS over
// alternating arrivals) and under warp-group scheduling (WG).
//
//   ./examples/warp_interference [N]
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "cli.hpp"
#include "core/policy_wg.hpp"
#include "mc/controller.hpp"
#include "mc/policy_fcfs.hpp"

using namespace latdiv;

namespace {

MemRequest make_req(WarpInstrUid warp, std::uint32_t col) {
  MemRequest r;
  r.kind = ReqKind::kRead;
  r.loc.bank = 0;
  r.loc.row = 1;  // all row hits: pure service-order arithmetic
  r.loc.col = col;
  r.tag.instr = warp;
  r.tag.warp = static_cast<WarpId>(warp);
  return r;
}

struct Outcome {
  Cycle warp_a_done = 0;
  Cycle warp_b_done = 0;
  double avg_stall() const {
    return (static_cast<double>(warp_a_done) +
            static_cast<double>(warp_b_done)) /
           2.0;
  }
};

Outcome run(std::unique_ptr<TransactionScheduler> policy, unsigned n,
            bool interleaved_arrival) {
  DramParams p;
  p.refresh_enabled = false;
  Outcome out;
  std::map<WarpInstrUid, Cycle> last_done;
  unsigned completions = 0;
  MemoryController mc(0, McConfig{}, DramTiming::from(p), std::move(policy),
                      [&](const MemRequest& r, Cycle) {
                        last_done[r.tag.instr] = r.completed;
                        ++completions;
                      });
  // Arrival order models the interconnect: interleaved (A,B,A,B,...) as
  // in the paper's baseline picture, or A's train then B's.
  std::vector<MemRequest> arrivals;
  for (unsigned i = 0; i < n; ++i) {
    arrivals.push_back(make_req(1, i * 2));
    arrivals.push_back(make_req(2, i * 2 + 1));
  }
  if (!interleaved_arrival) {
    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [](const MemRequest& a, const MemRequest& b) {
                       return a.tag.instr < b.tag.instr;
                     });
  }
  for (MemRequest& r : arrivals) mc.push(r, 0);
  mc.notify_group_complete(WarpTag{0, 1, 1}, 0);
  mc.notify_group_complete(WarpTag{0, 2, 2}, 0);
  for (Cycle c = 0; c < 100000 && completions < 2 * n; ++c) mc.tick(c);
  out.warp_a_done = last_done[1];
  out.warp_b_done = last_done[2];
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Both warps' requests must fit the read queue at once.
  const std::uint64_t max_n = McConfig{}.read_queue_size / 2;
  std::uint64_t parsed = 8;
  if (argc > 1 && (cli::parse_uint(argv[1], max_n, parsed) !=
                       cli::UintParse::kOk ||
                   parsed == 0)) {
    std::fprintf(stderr,
                 "warp_interference: N wants a number in [1, %llu], got "
                 "'%s'\n",
                 static_cast<unsigned long long>(max_n), argv[1]);
    return 2;
  }
  const auto n = static_cast<unsigned>(parsed);
  DramParams dp;
  const DramTiming t = DramTiming::from(dp);

  std::printf("Fig. 5 scenario: warps A and B, %u row-hit requests each, "
              "one bank (T = tCCDL = %llu cycles)\n\n",
              n, static_cast<unsigned long long>(t.tccdl));

  const Outcome fcfs =
      run(std::make_unique<FcfsPolicy>(), n, /*interleaved_arrival=*/true);
  WgConfig wg_cfg;
  const Outcome wg = run(std::make_unique<WgPolicy>(wg_cfg, t), n,
                         /*interleaved_arrival=*/true);

  std::printf("%-28s warpA done @%5llu  warpB done @%5llu  avg stall %.0f\n",
              "interleaved (FCFS):",
              static_cast<unsigned long long>(fcfs.warp_a_done),
              static_cast<unsigned long long>(fcfs.warp_b_done),
              fcfs.avg_stall());
  std::printf("%-28s warpA done @%5llu  warpB done @%5llu  avg stall %.0f\n",
              "warp-group (WG):",
              static_cast<unsigned long long>(wg.warp_a_done),
              static_cast<unsigned long long>(wg.warp_b_done),
              wg.avg_stall());

  const double ideal =
      (1.5 * n) / (2.0 * n - 0.5);  // paper's 1.5N*T vs (2N-1/2)*T
  std::printf("\npaper arithmetic: avg stall ratio should approach %.2f "
              "(measured %.2f)\n",
              ideal, wg.avg_stall() / fcfs.avg_stall());
  std::printf("note: the slower warp finishes at the same time under both "
              "policies — the win is entirely in the average.\n");
  return 0;
}
