#include "workload/generator.hpp"

#include <algorithm>

#include "ckpt/archive.hpp"
#include "common/log.hpp"

namespace latdiv {

template <class Ar>
void WorkloadGenerator::ckpt_io(Ar& ar) {
  std::uint64_t warps = warps_.size();
  std::uint64_t sms = sm_stream_pos_.size();
  ar.u64(warps);
  ar.u64(sms);
  if (warps != warps_.size() || sms != sm_stream_pos_.size()) {
    throw ckpt::CkptError(
        "snapshot generator geometry does not match the configured GPU");
  }
  for (WarpState& ws : warps_) ws.rng.ckpt_io(ar);
  for (Addr& pos : sm_stream_pos_) ar.u64(pos);
}

void WorkloadGenerator::ckpt_save(ckpt::CkptWriter& ar) const {
  const_cast<WorkloadGenerator*>(this)->ckpt_io(ar);  // writer never mutates
}

void WorkloadGenerator::ckpt_load(ckpt::CkptReader& ar) { ckpt_io(ar); }

WorkloadGenerator::WorkloadGenerator(const WorkloadProfile& profile,
                                     std::uint32_t sms,
                                     std::uint32_t warps_per_sm,
                                     std::uint64_t seed)
    : profile_(profile), warps_per_sm_(warps_per_sm) {
  LATDIV_ASSERT(sms > 0 && warps_per_sm > 0, "empty GPU");
  footprint_lines_ = std::max<std::uint64_t>(profile.footprint_bytes / kLineBytes, 64);
  hot_lines_ = std::clamp<std::uint64_t>(profile.hot_bytes / kLineBytes, 1,
                                         footprint_lines_);
  const std::uint64_t total = std::uint64_t{sms} * warps_per_sm;
  warps_.reserve(total);
  for (std::uint64_t i = 0; i < total; ++i) {
    warps_.emplace_back(seed * 0x9e3779b97f4a7c15ULL + i + 1);
  }
  // Each SM's warps share one streaming sweep over an SM-private segment.
  sm_stream_pos_.reserve(sms);
  for (std::uint32_t s = 0; s < sms; ++s) {
    sm_stream_pos_.push_back((footprint_lines_ * s / sms) * kLineBytes);
  }
}

WorkloadGenerator::WarpState& WorkloadGenerator::state(SmId sm, WarpId warp) {
  const std::size_t idx =
      static_cast<std::size_t>(sm) * warps_per_sm_ + warp;
  LATDIV_ASSERT(idx < warps_.size(), "warp index out of range");
  return warps_[idx];
}

Addr WorkloadGenerator::random_line(Rng& rng) const {
  const std::uint64_t line = rng.chance(profile_.hot_frac)
                                 ? rng.below(hot_lines_)
                                 : rng.below(footprint_lines_);
  return line * kLineBytes;
}

Addr WorkloadGenerator::stream_line(SmId sm) {
  Addr& pos = sm_stream_pos_[sm];
  const Addr line = pos;
  pos += kLineBytes;
  if (pos >= footprint_lines_ * kLineBytes) pos = 0;
  return line;
}

void WorkloadGenerator::fill_memory_instr(WarpInstr& instr, SmId sm,
                                          WarpState& ws) {
  Rng& rng = ws.rng;
  instr.active_lanes = kWarpLanes;

  if (!rng.chance(profile_.divergent_load_frac)) {
    // Fully coalesced: all 32 lanes inside one 128B line (4B words).
    const Addr base = rng.chance(profile_.streaming_frac) ? stream_line(sm)
                                                          : random_line(rng);
    for (std::uint32_t lane = 0; lane < kWarpLanes; ++lane) {
      instr.lane_addr[lane] = base + lane * 4;
    }
    return;
  }

  // Divergent: k distinct lines arranged in clusters of consecutive lines.
  // Consecutive lines share the 256B channel-interleave granule, so the
  // cluster length tunes channels-touched and intra-warp row locality.
  const auto k = static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
      1 + rng.geometric(std::max(profile_.divergent_lines_mean - 1.0, 1.0),
                        kWarpLanes - 1),
      2, kWarpLanes));
  std::array<Addr, kWarpLanes> lines{};
  std::uint32_t count = 0;
  while (count < k) {
    const auto clen = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        rng.geometric(profile_.cluster_len_mean, 8), k - count));
    Addr cluster_base;
    if (rng.chance(profile_.streaming_frac)) {
      // Streamed cluster: the structured part of an irregular kernel
      // (CSR row walks, frame traversal) — warps of an SM collectively
      // sweep a region, creating the cross-warp DRAM row locality a
      // throughput-optimized scheduler feeds on.
      cluster_base = stream_line(sm);
      // Advance the stream cursor past the cluster (addresses discarded:
      // the cluster is materialised from cluster_base below).
      for (std::uint32_t j = 1; j < clen; ++j) (void)stream_line(sm);
    } else {
      cluster_base = random_line(rng);
    }
    // Align multi-line clusters to the 256B channel-interleave granule so
    // line pairs land on the same channel/bank/row (gathered structures
    // are allocator-aligned in practice; unaligned clusters would split
    // every pair across two channels and erase intra-warp row locality).
    if (clen >= 2) cluster_base &= ~static_cast<Addr>(255);
    for (std::uint32_t j = 0; j < clen; ++j) {
      lines[count++] = cluster_base + j * kLineBytes;
    }
  }
  // Gathered elements land in *lane* order, which bears no relation to
  // address order: shuffle the line list before assigning lanes.  This
  // preserves every locality statistic (the same lines are touched) but
  // means same-row lines are NOT adjacent in the coalescer's emission
  // order — the property that separates schedulers that search for row
  // hits (GMC, WG's bank table) from ones that rely on arrival order
  // (FCFS, WAFCFS), exactly as the paper's §VI-C2 discussion requires.
  for (std::uint32_t i = k - 1; i > 0; --i) {
    const auto j = static_cast<std::uint32_t>(rng.below(i + 1));
    std::swap(lines[i], lines[j]);
  }
  // Spread the 32 lanes over the k lines in contiguous groups (the usual
  // pattern when each thread indexes its own element of a gathered set).
  for (std::uint32_t lane = 0; lane < kWarpLanes; ++lane) {
    const std::uint32_t line_idx = lane * k / kWarpLanes;
    instr.lane_addr[lane] = lines[line_idx] + (lane % 32) * 4 % kLineBytes;
  }
}

WarpInstr WorkloadGenerator::next(SmId sm, WarpId warp) {
  WarpState& ws = state(sm, warp);
  WarpInstr instr;
  if (!ws.rng.chance(profile_.mem_instr_frac)) {
    instr.kind = WarpInstr::Kind::kCompute;
    instr.latency = static_cast<std::uint32_t>(
        ws.rng.geometric(profile_.compute_latency_mean, 64));
    return instr;
  }
  instr.kind = ws.rng.chance(profile_.store_frac) ? WarpInstr::Kind::kStore
                                                  : WarpInstr::Kind::kLoad;
  fill_memory_instr(instr, sm, ws);
  return instr;
}

}  // namespace latdiv
