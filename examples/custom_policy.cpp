// Extending latdiv with a custom memory scheduling policy.
//
// The paper closes by suggesting schedulers "cognizant of the intricacies
// of the SM cores" beyond WG-W.  This example shows the extension surface
// a downstream researcher would use: implement TransactionScheduler,
// plug it into SimConfig::custom_policy, and compare against the built-in
// policies on the paper's workloads.
//
// The demo policy, "BLP-first", is a deliberately simple contrast to
// BASJF: it always picks the oldest request targeting the bank with the
// fewest queued commands (maximising bank-level parallelism, ignoring
// rows and warps).  It beats FCFS, loses to GMC and WG — and showing
// *that* in three numbers is the point of the example.
//
//   ./examples/custom_policy [workload] [cycles]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include "cli.hpp"
#include "core/policy_wg.hpp"
#include "sim/simulator.hpp"

using namespace latdiv;

namespace {

/// Oldest request to the least-loaded bank; rows and warps ignored.
class BlpFirstPolicy final : public TransactionScheduler {
 public:
  const char* name() const override { return "BLP-first"; }

  void schedule_reads(MemoryController& mc, Cycle now) override {
    auto& rq = mc.read_queue();
    if (rq.empty()) return;
    auto best = rq.end();
    std::size_t best_depth = 0;
    for (auto it = rq.begin(); it != rq.end(); ++it) {
      if (!mc.bank_queue_has_space(it->loc.bank)) continue;
      const std::size_t depth = mc.bank_queue_size(it->loc.bank);
      if (best == rq.end() || depth < best_depth) {
        best = it;  // first (oldest) request per depth class wins
        best_depth = depth;
      }
    }
    if (best == rq.end()) return;
    MemRequest req = *best;
    rq.erase(best);
    mc.send_to_bank(req, now);
  }
};

/// Decorator pattern: wrap a built-in policy to observe or perturb it
/// while keeping its behaviour.  Forwarding wg_stats() keeps the WG
/// counters flowing into RunResult; a wrapper that hid them behind the
/// default would report zeros.
class CountingWrapper final : public TransactionScheduler {
 public:
  explicit CountingWrapper(std::unique_ptr<TransactionScheduler> inner)
      : inner_(std::move(inner)) {}

  const char* name() const override { return inner_->name(); }
  void schedule_reads(MemoryController& mc, Cycle now) override {
    ++schedule_calls_;
    inner_->schedule_reads(mc, now);
  }
  void schedule_writes(MemoryController& mc, Cycle now) override {
    inner_->schedule_writes(mc, now);
  }
  bool wants_interleaved_writes() const override {
    return inner_->wants_interleaved_writes();
  }
  void on_push(MemoryController& mc, const MemRequest& req,
               Cycle now) override {
    inner_->on_push(mc, req, now);
  }
  void on_group_complete(MemoryController& mc, const WarpTag& tag,
                         Cycle now) override {
    inner_->on_group_complete(mc, tag, now);
  }
  void on_remote_selection(MemoryController& mc, const CoordMsg& msg,
                           Cycle now) override {
    inner_->on_remote_selection(mc, msg, now);
  }
  void on_drain_start(MemoryController& mc, Cycle now) override {
    inner_->on_drain_start(mc, now);
  }
  const WgStats* wg_stats() const override { return inner_->wg_stats(); }

  std::uint64_t schedule_calls() const { return schedule_calls_; }

 private:
  std::unique_ptr<TransactionScheduler> inner_;
  std::uint64_t schedule_calls_ = 0;
};

RunResult run(const WorkloadProfile& w, SchedulerKind sched, Cycle cycles,
              bool custom) {
  SimConfig cfg;
  cfg.workload = w;
  cfg.scheduler = sched;
  cfg.max_cycles = cycles;
  cfg.warmup_cycles = cycles / 10;
  if (custom) {
    cfg.custom_policy = [](ChannelId, const DramTiming&) {
      return std::make_unique<BlpFirstPolicy>();
    };
  }
  return Simulator(cfg).run();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string workload = argc > 1 ? argv[1] : "sssp";
  Cycle cycles = 60'000;
  if (argc > 2) cli::uint_arg("custom_policy", "cycles", argv[2], cycles);
  const WorkloadProfile w = profile_by_name(workload);

  std::printf("custom-policy demo on %s (%llu cycles)\n\n", workload.c_str(),
              static_cast<unsigned long long>(cycles));
  const RunResult fcfs = run(w, SchedulerKind::kFcfs, cycles, false);
  const RunResult blp = run(w, SchedulerKind::kGmc, cycles, true);
  const RunResult gmc = run(w, SchedulerKind::kGmc, cycles, false);
  const RunResult wgw = run(w, SchedulerKind::kWgW, cycles, false);

  for (const RunResult* r : {&fcfs, &blp, &gmc, &wgw}) {
    std::printf("%-10s IPC=%5.2f  BW-util=%5.1f%%  row-hit=%5.1f%%  "
                "eff-mem-lat=%6.0f ns\n",
                r->scheduler.c_str(), r->ipc,
                100.0 * r->bandwidth_utilization, 100.0 * r->row_hit_rate,
                r->effective_mem_latency_ns);
  }
  std::printf("\nBLP-first vs FCFS: %+.1f%%   (bank parallelism helps)\n",
              100.0 * (blp.ipc / fcfs.ipc - 1.0));
  std::printf("BLP-first vs GMC:  %+.1f%%   (but row locality matters more)\n",
              100.0 * (blp.ipc / gmc.ipc - 1.0));
  std::printf("WG-W vs GMC:       %+.1f%%   (and warp-awareness most of all)\n",
              100.0 * (wgw.ipc / gmc.ipc - 1.0));

  // Wrapped built-in: WG-W behind a forwarding decorator.  Because the
  // wrapper forwards wg_stats(), the simulator's collect() still sees the
  // warp-group counters through the virtual hook — no downcasts anywhere.
  SimConfig wrapped_cfg;
  wrapped_cfg.workload = w;
  wrapped_cfg.scheduler = SchedulerKind::kWgW;
  wrapped_cfg.max_cycles = cycles;
  wrapped_cfg.warmup_cycles = cycles / 10;
  WgConfig wg_cfg;
  wg_cfg.multi_channel = true;
  wg_cfg.merb = true;
  wg_cfg.write_aware = true;
  wrapped_cfg.custom_policy = [&wg_cfg](ChannelId, const DramTiming& t) {
    return std::make_unique<CountingWrapper>(
        std::make_unique<WgPolicy>(wg_cfg, t));
  };
  const RunResult wrapped = Simulator(wrapped_cfg).run();
  std::printf("\nwrapped WG-W (CountingWrapper): IPC=%.2f, "
              "%llu warp-groups selected — identical to the built-in "
              "(%llu), stats flow through wg_stats()\n",
              wrapped.ipc,
              static_cast<unsigned long long>(wrapped.wg_groups_selected),
              static_cast<unsigned long long>(wgw.wg_groups_selected));
  return 0;
}
