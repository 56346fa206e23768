#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/log.hpp"
#include "mc/policy_fcfs.hpp"
#include "mc/policy_frfcfs.hpp"
#include "mc/policy_wafcfs.hpp"

namespace latdiv {

const char* to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFcfs: return "FCFS";
    case SchedulerKind::kFrFcfs: return "FR-FCFS";
    case SchedulerKind::kGmc: return "GMC";
    case SchedulerKind::kWafcfs: return "WAFCFS";
    case SchedulerKind::kSbwas: return "SBWAS";
    case SchedulerKind::kWg: return "WG";
    case SchedulerKind::kWgM: return "WG-M";
    case SchedulerKind::kWgBw: return "WG-Bw";
    case SchedulerKind::kWgW: return "WG-W";
    case SchedulerKind::kWgShared: return "WG-Sh";
    case SchedulerKind::kZld: return "ZLD-ideal";
  }
  return "?";
}

void SimConfig::shrink_for_tests() {
  num_sms = 4;
  sm.warps = 8;
  max_cycles = 20'000;
  warmup_cycles = 2'000;
  dram.refresh_enabled = false;
  // Unit-test runs double as conformance runs: any illegal DRAM command
  // or conservation break aborts the test.
  check.protocol = true;
  check.invariants = true;
  check.abort_on_violation = true;
}

std::unique_ptr<TransactionScheduler> Simulator::make_policy(ChannelId id) {
  if (cfg_.custom_policy) return cfg_.custom_policy(id, timing_);
  switch (cfg_.scheduler) {
    case SchedulerKind::kFcfs:
      return std::make_unique<FcfsPolicy>();
    case SchedulerKind::kFrFcfs:
      return std::make_unique<FrFcfsPolicy>();
    case SchedulerKind::kGmc:
      return std::make_unique<GmcPolicy>(cfg_.gmc);
    case SchedulerKind::kWafcfs:
      return std::make_unique<WafcfsPolicy>();
    case SchedulerKind::kSbwas:
      return std::make_unique<SbwasPolicy>(cfg_.sbwas);
    case SchedulerKind::kWg:
    case SchedulerKind::kWgM:
    case SchedulerKind::kWgBw:
    case SchedulerKind::kWgW:
    case SchedulerKind::kWgShared: {
      WgConfig wg = cfg_.wg;
      wg.multi_channel = cfg_.scheduler != SchedulerKind::kWg;
      wg.merb = cfg_.scheduler == SchedulerKind::kWgBw ||
                cfg_.scheduler == SchedulerKind::kWgW ||
                cfg_.scheduler == SchedulerKind::kWgShared;
      wg.write_aware = cfg_.scheduler == SchedulerKind::kWgW ||
                       cfg_.scheduler == SchedulerKind::kWgShared;
      wg.shared_data_boost = cfg_.scheduler == SchedulerKind::kWgShared;
      return std::make_unique<WgPolicy>(wg, timing_);
    }
    case SchedulerKind::kZld:
      return std::make_unique<ZldPolicy>(zld_);
  }
  LATDIV_UNREACHABLE("bad SchedulerKind");
}

namespace {

/// Global cycles between invariant audits (audits are O(queued work)).
constexpr Cycle kAuditInterval = 64;

/// `cfg`, once its geometry fits the id types: SmId and WarpId are 16-bit,
/// so more than 65536 SMs or warps per SM would alias ids (crossbar
/// routing, warp tags) through silent truncation.  Throws before any
/// component is built.
const SimConfig& checked_geometry(const SimConfig& cfg) {
  constexpr std::uint64_t kSmIds = std::uint64_t{1} << (8 * sizeof(SmId));
  constexpr std::uint64_t kWarpIds = std::uint64_t{1}
                                     << (8 * sizeof(WarpId));
  if (cfg.num_sms == 0 || cfg.num_sms > kSmIds) {
    throw std::invalid_argument("num_sms must be in [1, 65536], got " +
                                std::to_string(cfg.num_sms));
  }
  if (cfg.sm.warps == 0 || cfg.sm.warps > kWarpIds) {
    throw std::invalid_argument("sm.warps must be in [1, 65536], got " +
                                std::to_string(cfg.sm.warps));
  }
  return cfg;
}

}  // namespace

Simulator::Simulator(const SimConfig& cfg)
    : cfg_(checked_geometry(cfg)),
      timing_(DramTiming::from(cfg.dram)),
      amap_(AddressMapConfig{.channels = cfg.icnt.partitions,
                             .banks_per_channel = cfg.dram.banks,
                             .banks_per_group = cfg.dram.banks_per_group}),
      xbar_(cfg.icnt, cfg.num_sms, cfg.scheduler == SchedulerKind::kWafcfs) {
  zld_ = std::make_shared<ZldCoordinator>();

  // Instruction source: trace replay, else a custom factory source, else
  // the statistical generator; trace capture wraps it.
  if (!cfg_.replay_trace_path.empty()) {
    auto replayer = std::make_unique<TraceReplayer>(cfg_.replay_trace_path);
    LATDIV_ASSERT(replayer->sms() >= cfg_.num_sms &&
                      replayer->warps_per_sm() >= cfg_.sm.warps,
                  "trace geometry smaller than the simulated GPU");
    source_ = std::move(replayer);
  } else if (cfg_.instr_source) {
    source_ = cfg_.instr_source(cfg_.num_sms, cfg_.sm.warps, cfg_.seed);
    LATDIV_ASSERT(source_ != nullptr, "instr_source factory returned null");
  } else {
    source_ = std::make_unique<WorkloadGenerator>(cfg_.workload, cfg_.num_sms,
                                                  cfg_.sm.warps, cfg_.seed);
  }
  if (!cfg_.record_trace_path.empty()) {
    trace_writer_ = std::make_unique<TraceWriter>(
        cfg_.record_trace_path, cfg_.num_sms, cfg_.sm.warps);
    recorder_ = std::make_unique<RecordingSource>(*source_, *trace_writer_);
  }

  // Introspection hub — constructed before the partitions so controllers
  // can capture the pointer.  Strictly an observer: simulated behaviour is
  // identical with or without it (tests/test_obs_trace.cpp asserts this).
  if (cfg_.obs.enabled()) {
    LATDIV_ASSERT(cfg_.obs.sample_interval > 0,
                  "time-series sampling needs a positive interval");
    obs_hub_ = std::make_unique<obs::ObsHub>(cfg_.obs);
    tracker_.set_obs(obs_hub_.get());
  }

  for (std::uint32_t p = 0; p < cfg_.icnt.partitions; ++p) {
    partitions_.push_back(std::make_unique<Partition>(
        static_cast<ChannelId>(p), cfg_.mc, timing_,
        make_policy(static_cast<ChannelId>(p)), amap_, xbar_, tracker_,
        obs_hub_.get()));
  }
  if (obs_hub_ && obs_hub_->tracing()) {
    obs::ObsHub* hub = obs_hub_.get();
    for (auto& part : partitions_) {
      const ChannelId ch = part->id();
      part->mc().channel_mut().add_command_observer(
          [hub, ch](const DramCommand& cmd, Cycle at) {
            hub->dram_command(ch, cmd, at);
          });
    }
  }
  for (std::uint32_t s = 0; s < cfg_.num_sms; ++s) {
    sms_.push_back(std::make_unique<Sm>(
        static_cast<SmId>(s), cfg_.sm, instr_source(), amap_, xbar_, tracker_,
        /*uid_base=*/s + 1, /*uid_stride=*/cfg_.num_sms));
  }
  // Coordination network (only WG-M and above broadcast, but wiring it
  // unconditionally is harmless: outboxes stay empty for other policies).
  std::vector<MemoryController*> mcs;
  mcs.reserve(partitions_.size());
  for (auto& part : partitions_) mcs.push_back(&part->mc());
  coord_ = std::make_unique<CoordinationNetwork>(std::move(mcs),
                                                 cfg_.coordination_latency);

  // Correctness checkers: a shadow protocol verifier per channel, one
  // conservation auditor across the whole request path.
  if (cfg_.check.protocol) {
    for (auto& part : partitions_) {
      auto checker = std::make_unique<ProtocolChecker>(
          timing_, cfg_.check.abort_on_violation);
      ProtocolChecker* raw = checker.get();
      part->mc().channel_mut().add_command_observer(
          [raw](const DramCommand& cmd, Cycle at) {
            raw->on_command(cmd, at);
          });
      protocol_checkers_.push_back(std::move(checker));
    }
  }
  if (cfg_.check.invariants) {
    invariant_checker_ =
        std::make_unique<InvariantChecker>(cfg_.check.abort_on_violation);
  }

  if (obs_hub_ && obs_hub_->sampling()) {
    std::vector<std::string> cols{"d_instr", "inflight_loads", "icnt_req_q",
                                  "icnt_resp_q"};
    for (std::size_t p = 0; p < partitions_.size(); ++p) {
      const std::string pre = "ch" + std::to_string(p) + ".";
      for (const char* c :
           {"rdq", "wrq", "cmdq", "inflight", "drain", "d_reads", "d_writes",
            "d_acts", "d_row_hits", "d_row_misses", "d_row_conflicts",
            "d_merb"}) {
        cols.push_back(pre + c);
      }
    }
    series_prev_.assign(partitions_.size(), ChannelSeriesPrev{});
    obs_hub_->set_series_columns(std::move(cols));
    sample_timeseries();  // baseline row at cycle 0
  }
}

void Simulator::audit_invariants() {
  for (const auto& part : partitions_) {
    invariant_checker_->audit_partition(*part, now_);
    invariant_checker_->audit_hot_path(part->mc().channel(), now_);
    invariant_checker_->audit_mshr(part->l2_mshr(), now_);
  }
  std::size_t blocked = 0;
  for (const auto& sm : sms_) {
    blocked += sm->warps_blocked_on_loads();
    invariant_checker_->audit_hot_path(*sm, now_);
    invariant_checker_->audit_mshr(sm->mshr(), now_);
  }
  invariant_checker_->audit_tracker(tracker_, blocked, now_);
  invariant_checker_->audit_hot_path(xbar_, now_);
  if (obs_hub_ && obs_hub_->attrib() != nullptr) {
    invariant_checker_->audit_attribution(*obs_hub_->attrib(), now_);
  }
}

void Simulator::step() {
  const bool core_tick = now_ % cfg_.sm.core_clock_ratio == 0;
  if (core_tick) {
    for (auto& sm : sms_) sm->tick(now_);
    xbar_.tick(now_);
    for (auto& part : partitions_) part->tick_core(now_);
  }
  for (auto& part : partitions_) part->tick_dram(now_);
  coord_->tick(now_);
  ++now_;
  if (invariant_checker_ && now_ % kAuditInterval == 0) {
    audit_invariants();
  }
  if (obs_hub_ && obs_hub_->sampling() &&
      now_ % cfg_.obs.sample_interval == 0) {
    sample_timeseries();
  }
  if (warmup_done_at_ == 0 && now_ >= cfg_.warmup_cycles) {
    warmup_done_at_ = now_;
    warmup_instructions_ = total_instructions();
  }
}

void Simulator::sample_timeseries() {
  series_row_.clear();
  const std::uint64_t instr = total_instructions();
  series_row_.push_back(instr - series_prev_instr_);
  series_prev_instr_ = instr;
  series_row_.push_back(tracker_.inflight());
  series_row_.push_back(xbar_.requests_queued());
  series_row_.push_back(xbar_.responses_queued());
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    const MemoryController& mc = partitions_[p]->mc();
    const ChannelStats& cs = mc.channel().stats();
    const McStats& ms = mc.stats();
    ChannelSeriesPrev& prev = series_prev_[p];
    std::uint64_t hits = 0, misses = 0, conflicts = 0;
    for (std::size_t b = 0; b < ms.bank_row_hits.size(); ++b) {
      hits += ms.bank_row_hits[b];
      misses += ms.bank_row_misses[b];
      conflicts += ms.bank_row_conflicts[b];
    }
    const WgStats* wg = mc.policy().wg_stats();
    const std::uint64_t merb = wg != nullptr ? wg->merb_deferrals : 0;

    series_row_.push_back(mc.read_queue().size());
    series_row_.push_back(mc.write_queue().size());
    series_row_.push_back(mc.commands_pending());
    series_row_.push_back(mc.inflight_reads());
    series_row_.push_back(mc.in_write_drain() ? 1 : 0);
    series_row_.push_back(cs.reads - prev.reads);
    series_row_.push_back(cs.writes - prev.writes);
    series_row_.push_back(cs.activates - prev.activates);
    series_row_.push_back(hits - prev.row_hits);
    series_row_.push_back(misses - prev.row_misses);
    series_row_.push_back(conflicts - prev.row_conflicts);
    series_row_.push_back(merb - prev.merb_deferrals);
    prev = {cs.reads, cs.writes,  cs.activates, hits,
            misses,   conflicts, merb};
  }
  obs_hub_->sample(now_, series_row_);
}

std::uint64_t Simulator::total_instructions() const {
  std::uint64_t total = 0;
  for (const auto& sm : sms_) total += sm->stats().instructions;
  return total;
}

RunResult Simulator::run() {
  run_to(cfg_.max_cycles);
  return finish();
}

void Simulator::run_to(Cycle stop) {
  const Cycle limit = std::min(stop, cfg_.max_cycles);
  while (now_ < limit) step();
}

RunResult Simulator::finish() {
  for (auto& checker : protocol_checkers_) checker->finalize(now_);
  if (invariant_checker_) audit_invariants();
  if (obs_hub_) obs_hub_->finalize(now_);
  return collect();
}

void Simulator::teleport(Cycle target) {
  LATDIV_ASSERT(target >= now_ && target <= cfg_.max_cycles,
                "teleport target outside [now, max_cycles]");
  LATDIV_ASSERT(protocol_checkers_.empty() && !invariant_checker_ &&
                    !obs_hub_,
                "teleport requires checkers and the obs hub disabled");
  now_ = target;
  for (auto& part : partitions_) part->mc().on_teleport(now_);
  for (auto& sm : sms_) sm->on_teleport();
  if (warmup_done_at_ == 0 && now_ >= cfg_.warmup_cycles) {
    warmup_done_at_ = now_;
    warmup_instructions_ = total_instructions();
  }
}

RunResult Simulator::collect() const {
  RunResult r;
  r.workload = cfg_.workload.name;
  r.scheduler = cfg_.custom_policy ? partitions_[0]->mc().policy().name()
                                   : to_string(cfg_.scheduler);
  r.dram_cycles = now_;
  r.core_cycles = now_ / cfg_.sm.core_clock_ratio;
  r.instructions = total_instructions();

  const std::uint64_t measured_instr = r.instructions - warmup_instructions_;
  const Cycle measured_cycles = now_ - warmup_done_at_;
  const double measured_core_cycles =
      static_cast<double>(measured_cycles) / cfg_.sm.core_clock_ratio;
  r.ipc = safe_ratio(static_cast<double>(measured_instr), measured_core_cycles);

  // Coalescer + L1 aggregates.
  CoalescerStats co;
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  for (const auto& sm : sms_) {
    const CoalescerStats& s = sm->coalescer().stats();
    co.loads += s.loads;
    co.divergent_loads += s.divergent_loads;
    co.load_requests += s.load_requests;
    co.stores += s.stores;
    co.store_requests += s.store_requests;
    l1_hits += sm->l1().stats().hits;
    l1_misses += sm->l1().stats().misses;
    r.sm_issue_stall_mshr += sm->stats().issue_stall_mshr;
    r.sm_no_ready_warp_cycles += sm->stats().no_ready_warp_cycles;
  }
  r.icnt_inject_stalls = xbar_.stats().inject_stalls;
  r.loads = static_cast<double>(co.loads);
  r.divergent_load_frac = co.divergent_frac();
  r.requests_per_load = co.requests_per_load();
  r.l1_hit_rate = safe_ratio(static_cast<double>(l1_hits),
                             static_cast<double>(l1_hits + l1_misses));

  r.tracker = tracker_.summary();
  r.effective_mem_latency_ns =
      r.tracker.last_req_latency.mean() * cfg_.dram.tck_ns;
  r.divergence_gap_ns = r.tracker.divergence_gap.mean() * cfg_.dram.tck_ns;
  r.first_req_latency_ns =
      r.tracker.first_req_latency.mean() * cfg_.dram.tck_ns;
  r.last_to_first_ratio = r.tracker.last_to_first_ratio.mean();
  r.mcs_per_warp = r.tracker.channels_per_load.mean();
  r.banks_per_warp = r.tracker.banks_per_load.mean();
  r.same_row_frac = r.tracker.same_row_frac.mean();
  // Core clock in GHz: one core cycle every core_clock_ratio command-clock
  // ticks of tck_ns each.  IPC * GHz = instructions per ns; x1000 -> /us.
  const double core_ghz =
      1.0 / (cfg_.dram.tck_ns * static_cast<double>(cfg_.sm.core_clock_ratio));
  r.instr_per_usec = r.ipc * core_ghz * 1000.0;

  // DRAM-side aggregates across channels.
  std::uint64_t busy = 0, acts = 0, reads = 0, writes = 0, refs = 0;
  std::uint64_t idle = 0;
  std::uint64_t l2_hits = 0, l2_misses = 0;
  std::uint64_t drain_groups = 0, drain_small = 0;
  Accumulator mc_queueing, mc_service;
  for (const auto& part : partitions_) {
    const ChannelStats& cs = part->mc().channel().stats();
    busy += cs.data_bus_busy_cycles;
    acts += cs.activates;
    reads += cs.reads;
    writes += cs.writes;
    refs += cs.refreshes;
    idle += cs.all_banks_idle_cycles;
    l2_hits += part->l2().stats().hits;
    l2_misses += part->l2().stats().misses;
    drain_groups += part->mc().stats().drain_stalled_groups;
    drain_small += part->mc().stats().drain_stalled_small_groups;
    mc_queueing.merge(part->mc().stats().read_queueing_cycles);
    mc_service.merge(part->mc().stats().read_service_cycles);
    r.mc_drains_started += part->mc().stats().drains_started;

    if (const WgStats* wg = part->mc().policy().wg_stats()) {
      r.wg_groups_selected += wg->groups_selected;
      r.wg_fallback_selections += wg->fallback_selections;
      r.wg_merb_deferrals += wg->merb_deferrals;
      r.wg_writeaware_selections += wg->writeaware_selections;
      r.wg_shared_boosts += wg->shared_boosts;
    }
  }
  const double chans = static_cast<double>(partitions_.size());
  r.bandwidth_utilization =
      safe_ratio(static_cast<double>(busy), static_cast<double>(now_) * chans);
  r.row_hit_rate = 1.0 - safe_ratio(static_cast<double>(acts),
                                    static_cast<double>(reads + writes));
  r.write_intensity = safe_ratio(static_cast<double>(writes),
                                 static_cast<double>(reads + writes));
  r.drain_small_group_frac = safe_ratio(static_cast<double>(drain_small),
                                        static_cast<double>(drain_groups));
  r.dram_reads = reads;
  r.dram_writes = writes;
  r.dram_activates = acts;
  r.l2_hit_rate = safe_ratio(static_cast<double>(l2_hits),
                             static_cast<double>(l2_hits + l2_misses));
  r.mc_read_queueing_cycles = mc_queueing.mean();
  r.mc_read_service_cycles = mc_service.mean();
  r.coord_messages = coord_->messages_sent();

  // Per-bank breakdown (satellite of the introspection layer; always
  // collected — the counters are maintained unconditionally and cheap).
  r.bank_breakdown.reserve(partitions_.size());
  for (const auto& part : partitions_) {
    const ChannelStats& cs = part->mc().channel().stats();
    const McStats& ms = part->mc().stats();
    std::vector<BankCounters> banks(cs.per_bank_activates.size());
    for (std::size_t b = 0; b < banks.size(); ++b) {
      banks[b] = BankCounters{cs.per_bank_activates[b],
                              cs.per_bank_precharges[b], ms.bank_row_hits[b],
                              ms.bank_row_misses[b], ms.bank_row_conflicts[b]};
    }
    r.bank_breakdown.push_back(std::move(banks));
  }

  // Average per-channel power (scale the merged counters down).
  ChannelStats per_chan{};
  per_chan.activates = acts / partitions_.size();
  per_chan.reads = reads / partitions_.size();
  per_chan.writes = writes / partitions_.size();
  per_chan.refreshes = refs / partitions_.size();
  per_chan.data_bus_busy_cycles = busy / partitions_.size();
  per_chan.all_banks_idle_cycles = idle / partitions_.size();
  const PowerModel power(Gddr5PowerParams{}, cfg_.dram);
  if (now_ > 0) r.power = power.compute(per_chan, now_);

  if (obs_hub_ && obs_hub_->attrib() != nullptr) {
    r.attrib = obs_hub_->attrib()->summary();
  }

  return r;
}

}  // namespace latdiv
