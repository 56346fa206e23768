#include "traced.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "core/policy_wg.hpp"
#include "mc/policy_fcfs.hpp"
#include "mc/policy_frfcfs.hpp"
#include "mc/policy_gmc.hpp"
#include "mc/policy_sbwas.hpp"
#include "mc/policy_wafcfs.hpp"
#include "workload/generator.hpp"

namespace latbench {

using latdiv::Cycle;
using latdiv::MemoryController;
using latdiv::SchedulerKind;
using latdiv::TransactionScheduler;

namespace {

class TracedPolicy final : public TransactionScheduler {
 public:
  TracedPolicy(std::unique_ptr<TransactionScheduler> inner, Ledger& ledger,
               Layer layer)
      : inner_(std::move(inner)), ledger_(&ledger), layer_(layer) {}

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  void schedule_reads(MemoryController& mc, Cycle now) override {
    const Scope s(ledger_, layer_);
    inner_->schedule_reads(mc, now);
  }
  void schedule_writes(MemoryController& mc, Cycle now) override {
    const Scope s(ledger_, layer_);
    inner_->schedule_writes(mc, now);
  }
  void on_push(MemoryController& mc, const latdiv::MemRequest& req,
               Cycle now) override {
    const Scope s(ledger_, layer_);
    inner_->on_push(mc, req, now);
  }
  void on_group_complete(MemoryController& mc, const latdiv::WarpTag& tag,
                         Cycle now) override {
    const Scope s(ledger_, layer_);
    inner_->on_group_complete(mc, tag, now);
  }
  void on_remote_selection(MemoryController& mc, const latdiv::CoordMsg& msg,
                           Cycle now) override {
    const Scope s(ledger_, layer_);
    inner_->on_remote_selection(mc, msg, now);
  }
  void on_drain_start(MemoryController& mc, Cycle now) override {
    const Scope s(ledger_, layer_);
    inner_->on_drain_start(mc, now);
  }
  [[nodiscard]] bool wants_interleaved_writes() const override {
    return inner_->wants_interleaved_writes();
  }
  [[nodiscard]] const latdiv::WgStats* wg_stats() const override {
    return inner_->wg_stats();
  }
  [[nodiscard]] bool quiescent() const override { return inner_->quiescent(); }
  void ckpt_save(latdiv::ckpt::CkptWriter& ar) const override {
    inner_->ckpt_save(ar);
  }
  void ckpt_load(latdiv::ckpt::CkptReader& ar) override {
    inner_->ckpt_load(ar);
  }

 private:
  std::unique_ptr<TransactionScheduler> inner_;
  Ledger* ledger_;
  Layer layer_;
};

class TracedSource final : public latdiv::InstrSource {
 public:
  TracedSource(std::unique_ptr<latdiv::InstrSource> inner, Ledger& ledger)
      : inner_(std::move(inner)), ledger_(&ledger) {}

  [[nodiscard]] latdiv::WarpInstr next(latdiv::SmId sm,
                                       latdiv::WarpId warp) override {
    const Scope s(ledger_, Layer::kNext);
    return inner_->next(sm, warp);
  }
  [[nodiscard]] bool checkpointable() const override {
    return inner_->checkpointable();
  }
  void ckpt_save(latdiv::ckpt::CkptWriter& ar) const override {
    inner_->ckpt_save(ar);
  }
  void ckpt_load(latdiv::ckpt::CkptReader& ar) override {
    inner_->ckpt_load(ar);
  }

 private:
  std::unique_ptr<latdiv::InstrSource> inner_;
  Ledger* ledger_;
};

/// The SimConfig fields the scheduler policies read.
struct PolicyKnobs {
  latdiv::GmcConfig gmc;
  latdiv::SbwasConfig sbwas;
  latdiv::WgConfig wg;
};

/// The policy the simulator builds for `kind` when no custom factory is
/// set (Simulator::make_policy, which is private).
std::unique_ptr<TransactionScheduler> make_policy(
    SchedulerKind kind, const PolicyKnobs& cfg,
    const latdiv::DramTiming& timing) {
  switch (kind) {
    case SchedulerKind::kFcfs:
      return std::make_unique<latdiv::FcfsPolicy>();
    case SchedulerKind::kFrFcfs:
      return std::make_unique<latdiv::FrFcfsPolicy>();
    case SchedulerKind::kGmc:
      return std::make_unique<latdiv::GmcPolicy>(cfg.gmc);
    case SchedulerKind::kWafcfs:
      return std::make_unique<latdiv::WafcfsPolicy>();
    case SchedulerKind::kSbwas:
      return std::make_unique<latdiv::SbwasPolicy>(cfg.sbwas);
    case SchedulerKind::kWg:
    case SchedulerKind::kWgM:
    case SchedulerKind::kWgBw:
    case SchedulerKind::kWgW:
    case SchedulerKind::kWgShared: {
      latdiv::WgConfig wg = cfg.wg;
      wg.multi_channel = kind != SchedulerKind::kWg;
      wg.merb = kind == SchedulerKind::kWgBw || kind == SchedulerKind::kWgW ||
                kind == SchedulerKind::kWgShared;
      wg.write_aware =
          kind == SchedulerKind::kWgW || kind == SchedulerKind::kWgShared;
      wg.shared_data_boost = kind == SchedulerKind::kWgShared;
      return std::make_unique<latdiv::WgPolicy>(wg, timing);
    }
    case SchedulerKind::kZld:
      break;
  }
  throw std::invalid_argument(std::string("scheduler ") +
                              latdiv::to_string(kind) +
                              " cannot be traced from outside");
}

bool is_wg_family(SchedulerKind kind) {
  return kind == SchedulerKind::kWg || kind == SchedulerKind::kWgM ||
         kind == SchedulerKind::kWgBw || kind == SchedulerKind::kWgW ||
         kind == SchedulerKind::kWgShared;
}

}  // namespace

void instrument(latdiv::SimConfig& cfg, Ledger& ledger, bool wrap_policy) {
  if (!cfg.replay_trace_path.empty() || !cfg.record_trace_path.empty() ||
      cfg.custom_policy) {
    throw std::invalid_argument(
        "traced runs support neither trace replay/recording nor custom "
        "policies");
  }
  auto inner_source = cfg.instr_source;
  const latdiv::WorkloadProfile profile = cfg.workload;
  cfg.instr_source = [inner_source, profile, &ledger](
                         std::uint32_t sms, std::uint32_t warps,
                         std::uint64_t seed)
      -> std::unique_ptr<latdiv::InstrSource> {
    std::unique_ptr<latdiv::InstrSource> src =
        inner_source ? inner_source(sms, warps, seed)
                     : std::make_unique<latdiv::WorkloadGenerator>(
                           profile, sms, warps, seed);
    return std::make_unique<TracedSource>(std::move(src), ledger);
  };
  if (!wrap_policy) return;
  const SchedulerKind kind = cfg.scheduler;
  const Layer layer =
      is_wg_family(kind) ? Layer::kCorePolicy : Layer::kMcPolicy;
  const PolicyKnobs knobs{cfg.gmc, cfg.sbwas, cfg.wg};
  cfg.custom_policy = [kind, knobs, layer, &ledger](
                          latdiv::ChannelId, const latdiv::DramTiming& timing)
      -> std::unique_ptr<TransactionScheduler> {
    return std::make_unique<TracedPolicy>(make_policy(kind, knobs, timing),
                                          ledger, layer);
  };
}

}  // namespace latbench
