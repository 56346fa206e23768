// The microkernel models behind make_scenario().  Each class emits the
// characteristic access structure documented in scenario.hpp; all of
// them share the KernelBase issue machinery (per-warp Rng + integer
// per-mille accumulator that enforces mem_instr_frac exactly).
#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "ckpt/archive.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "scenario/scenario.hpp"
#include "workload/instr.hpp"

namespace latdiv::scenario {

namespace {

constexpr std::uint64_t kRowLines = 16;  // 2048B DRAM row / 128B line

/// SplitMix64 finalizer — the "next pointer" hash of the chase chains.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Shared machinery: per-warp state, the compute/memory mix, latency
/// draws.  Subclasses implement memory_instr() only.
class KernelBase : public InstrSource {
 public:
  KernelBase(const ScenarioParams& p, std::uint32_t sms,
             std::uint32_t warps_per_sm, std::uint64_t seed)
      : params_(p),
        warps_per_sm_(warps_per_sm),
        total_warps_(std::uint64_t{sms} * warps_per_sm),
        footprint_lines_(std::max<std::uint64_t>(
            p.footprint_bytes / kLineBytes, 3 * 1024)),
        mem_per_mille_(static_cast<std::uint32_t>(
            std::clamp(p.mem_instr_frac, 0.001, 1.0) * 1000.0 + 0.5)) {
    LATDIV_ASSERT(sms > 0 && warps_per_sm > 0, "empty GPU");
    warps_.reserve(total_warps_);
    for (std::uint64_t i = 0; i < total_warps_; ++i) {
      // Same per-warp seeding scheme as WorkloadGenerator: streams are a
      // function of the warp id, never of warp interleaving order.
      warps_.emplace_back(seed * 0x9e3779b97f4a7c15ULL + i + 1);
    }
  }

  [[nodiscard]] WarpInstr next(SmId sm, WarpId warp) final {
    const std::size_t g = std::size_t{sm} * warps_per_sm_ + warp;
    LATDIV_ASSERT(g < warps_.size(), "warp index out of range");
    Warp& w = warps_[g];
    w.credit += mem_per_mille_;
    if (w.credit < 1000) {
      WarpInstr instr;
      instr.kind = WarpInstr::Kind::kCompute;
      instr.latency = static_cast<std::uint32_t>(w.rng.geometric(
          std::max<std::uint32_t>(params_.compute_latency_mean, 1), 64));
      return instr;
    }
    w.credit -= 1000;
    return memory_instr(w, g);
  }

  // Snapshot hooks (src/ckpt): the per-warp state below is the only
  // mutable state any kernel has (PowerLawRows' Zipf table is a pure
  // function of the params, rebuilt at construction), so one
  // implementation covers all six kernels.
  [[nodiscard]] bool checkpointable() const override { return true; }
  void ckpt_save(ckpt::CkptWriter& ar) const override {
    const_cast<KernelBase*>(this)->warps_io(ar);  // writer never mutates
  }
  void ckpt_load(ckpt::CkptReader& ar) override { warps_io(ar); }

 protected:
  struct Warp {
    Rng rng;
    std::uint64_t iter = 0;    ///< kernel-grid iteration counter
    std::uint64_t cursor = 0;  ///< kernel-specific running position
    std::uint32_t credit = 0;  ///< memory-issue accumulator (per mille)
    std::uint32_t op = 0;      ///< position in the kernel's op cycle
    std::array<std::uint64_t, kWarpLanes> lane_state{};
    bool init = false;
    explicit Warp(std::uint64_t seed) : rng(seed) {}
  };

  [[nodiscard]] virtual WarpInstr memory_instr(Warp& w, std::uint64_t g) = 0;

  template <class Ar>
  void warps_io(Ar& ar) {
    std::uint64_t n = warps_.size();
    ar.u64(n);
    if (n != warps_.size()) {
      throw ckpt::CkptError(
          "snapshot kernel warp count does not match the configured GPU");
    }
    for (Warp& w : warps_) {
      w.rng.ckpt_io(ar);
      ar.u64(w.iter);
      ar.u64(w.cursor);
      ar.u32(w.credit);
      ar.u32(w.op);
      for (auto& lane : w.lane_state) ar.u64(lane);
      ar.b(w.init);
    }
  }

  /// Byte address of `line` (wrapped into the footprint) with a per-lane
  /// 4B subword offset, matching the generator's address shape.
  [[nodiscard]] Addr line_addr(std::uint64_t line, std::uint32_t lane) const {
    return (line % footprint_lines_) * kLineBytes + (lane * 4) % kLineBytes;
  }

  ScenarioParams params_;
  std::uint32_t warps_per_sm_;
  std::uint64_t total_warps_;
  std::uint64_t footprint_lines_;
  std::uint32_t mem_per_mille_;
  std::vector<Warp> warps_;
};

// ---------------------------------------------------------------------------

/// c[i] = a[i] + b[i] with a pathological lane-to-address mapping: lane
/// l of element block e touches line e*32*S + l*S, so every access is 32
/// distinct lines S lines apart.  Op cycle per block: load a, load b,
/// store c in three same-sized regions.
class VecAddUncoalesced final : public KernelBase {
 public:
  using KernelBase::KernelBase;

 private:
  WarpInstr memory_instr(Warp& w, std::uint64_t g) override {
    const std::uint64_t region = footprint_lines_ / 3;
    const std::uint64_t stride = std::max(params_.stride_lines, 1u);
    const std::uint64_t elem = g + w.iter * total_warps_;
    WarpInstr instr;
    instr.kind = w.op == 2 ? WarpInstr::Kind::kStore : WarpInstr::Kind::kLoad;
    instr.active_lanes = kWarpLanes;
    const std::uint64_t base = elem * kWarpLanes * stride;
    const std::uint64_t region_start = w.op * region;
    for (std::uint32_t lane = 0; lane < kWarpLanes; ++lane) {
      const std::uint64_t line = region_start + (base + lane * stride) % region;
      instr.lane_addr[lane] = line_addr(line, lane);
    }
    if (++w.op == 3) {
      w.op = 0;
      ++w.iter;
    }
    return instr;
  }
};

/// Stream compaction: coalesced input loads, then a store whose active
/// lane count is data-dependent (each lane survives with p = threshold)
/// and whose packed destination drifts across line boundaries.
class ThresholdCompact final : public KernelBase {
 public:
  using KernelBase::KernelBase;

 private:
  WarpInstr memory_instr(Warp& w, std::uint64_t g) override {
    const std::uint64_t in_region = footprint_lines_ / 2;
    const std::uint64_t out_region = footprint_lines_ - in_region;
    WarpInstr instr;
    if (w.op == 0) {
      // Input block: 32 lanes packed into two consecutive lines.
      const std::uint64_t base = ((g + w.iter * total_warps_) * 2) % in_region;
      instr.kind = WarpInstr::Kind::kLoad;
      instr.active_lanes = kWarpLanes;
      for (std::uint32_t lane = 0; lane < kWarpLanes; ++lane) {
        instr.lane_addr[lane] = line_addr(base + lane / 16, lane);
      }
      w.op = 1;
      return instr;
    }
    // Compacted output: k surviving lanes write consecutive 8B slots at
    // the warp's private output cursor (16 slots per line, so the write
    // footprint wanders over 1-3 lines and is rarely line-aligned).
    std::uint32_t k = 0;
    for (std::uint32_t lane = 0; lane < kWarpLanes; ++lane) {
      if (w.rng.chance(params_.threshold)) ++k;
    }
    k = std::max(k, 1u);  // an empty store would be a no-op instruction
    instr.kind = WarpInstr::Kind::kStore;
    instr.active_lanes = static_cast<std::uint8_t>(k);
    for (std::uint32_t j = 0; j < k; ++j) {
      const std::uint64_t slot = w.cursor + j;
      const std::uint64_t line = in_region + (slot / 16) % out_region;
      instr.lane_addr[j] =
          (line % footprint_lines_) * kLineBytes + (slot % 16) * 8;
    }
    w.cursor += k;
    w.op = 0;
    ++w.iter;
    return instr;
  }
};

/// Tiled framebuffer blit: a divergent texture gather, then two stores
/// painting the warp's tile.  Lanes of one store share scanlines (good
/// coalescing) but the scanlines sit fb_width_lines apart (row spread).
class Framebuffer final : public KernelBase {
 public:
  using KernelBase::KernelBase;

 private:
  WarpInstr memory_instr(Warp& w, std::uint64_t g) override {
    const std::uint64_t width = std::max(params_.fb_width_lines, 8u);
    const std::uint64_t tile_rows = std::max(params_.tile, 2u);
    const std::uint64_t fb_lines = footprint_lines_ / 2;
    const std::uint64_t tex_lines = footprint_lines_ - fb_lines;
    const std::uint64_t rows = std::max<std::uint64_t>(fb_lines / width, tile_rows);
    const std::uint64_t tiles_x = std::max<std::uint64_t>(width / 4, 1);
    const std::uint64_t tiles_y = std::max<std::uint64_t>(rows / tile_rows, 1);
    const std::uint64_t t = g + w.iter * total_warps_;
    const std::uint64_t tx = t % tiles_x;
    const std::uint64_t ty = (t / tiles_x) % tiles_y;

    WarpInstr instr;
    instr.active_lanes = kWarpLanes;
    if (w.op == 0) {
      // Texture gather: each lane samples an unpredictable texel line.
      instr.kind = WarpInstr::Kind::kLoad;
      for (std::uint32_t lane = 0; lane < kWarpLanes; ++lane) {
        instr.lane_addr[lane] =
            line_addr(fb_lines + w.rng.below(tex_lines), lane);
      }
      w.op = 1;
      return instr;
    }
    // Paint half the tile: 4 scanline rows x 4 line columns, 2 lanes per
    // line (upper half on op 1, lower half on op 2).
    const std::uint64_t half = w.op - 1;
    instr.kind = WarpInstr::Kind::kStore;
    for (std::uint32_t lane = 0; lane < kWarpLanes; ++lane) {
      const std::uint64_t row =
          ty * tile_rows + half * (tile_rows / 2) + lane / 8;
      const std::uint64_t col = tx * 4 + (lane % 8) / 2;
      instr.lane_addr[lane] = line_addr((row % rows) * width + col, lane);
    }
    if (++w.op == 3) {
      w.op = 0;
      ++w.iter;
    }
    return instr;
  }
};

/// Independent hash-chain walks: chase_lanes lanes each follow their own
/// pointer chain, so every load gathers that many unrelated lines.
class PointerChase final : public KernelBase {
 public:
  using KernelBase::KernelBase;

 private:
  WarpInstr memory_instr(Warp& w, std::uint64_t /*g*/) override {
    const auto lanes = static_cast<std::uint8_t>(
        std::clamp<std::uint32_t>(params_.chase_lanes, 1, kWarpLanes));
    if (!w.init) {
      for (std::uint32_t l = 0; l < kWarpLanes; ++l) {
        w.lane_state[l] = w.rng.next();
      }
      w.init = true;
    }
    WarpInstr instr;
    instr.kind = WarpInstr::Kind::kLoad;
    instr.active_lanes = lanes;
    for (std::uint32_t l = 0; l < lanes; ++l) {
      w.lane_state[l] = mix64(w.lane_state[l]);
      instr.lane_addr[l] = line_addr(w.lane_state[l] % footprint_lines_, l);
    }
    ++w.iter;
    return instr;
  }
};

/// Alternates streaming (contiguous, coalesced) and divergent (random
/// gather) behaviour every phase_len memory instructions.
class PhaseShift final : public KernelBase {
 public:
  using KernelBase::KernelBase;

 private:
  WarpInstr memory_instr(Warp& w, std::uint64_t g) override {
    const std::uint64_t phase_len = std::max(params_.phase_len, 1u);
    const bool divergent = (w.iter / phase_len) % 2 == 1;
    WarpInstr instr;
    instr.kind = w.iter % 4 == 3 ? WarpInstr::Kind::kStore
                                 : WarpInstr::Kind::kLoad;
    instr.active_lanes = kWarpLanes;
    if (divergent) {
      for (std::uint32_t lane = 0; lane < kWarpLanes; ++lane) {
        instr.lane_addr[lane] =
            line_addr(w.rng.below(footprint_lines_), lane);
      }
    } else {
      // Streaming phase: the warp sweeps its private contiguous segment
      // two lines per access (16 lanes per line).
      const std::uint64_t seg =
          std::max<std::uint64_t>(footprint_lines_ / total_warps_, 64);
      const std::uint64_t base = footprint_lines_ * g / total_warps_;
      const std::uint64_t line = base + w.cursor % seg;
      w.cursor += 2;
      for (std::uint32_t lane = 0; lane < kWarpLanes; ++lane) {
        instr.lane_addr[lane] = line_addr(line + lane / 16, lane);
      }
    }
    ++w.iter;
    return instr;
  }
};

/// Zipf-skewed row popularity: lanes mostly hit a few hot 2KB rows (deep
/// same-row queues for a row-hit-seeking scheduler to exploit), with a
/// uniform cold tail over the whole footprint.
class PowerLawRows final : public KernelBase {
 public:
  PowerLawRows(const ScenarioParams& p, std::uint32_t sms,
               std::uint32_t warps_per_sm, std::uint64_t seed)
      : KernelBase(p, sms, warps_per_sm, seed) {
    const std::uint32_t rows = std::max(params_.hot_rows, 1u);
    const double s = std::max(params_.zipf_s, 0.0);
    cum_.reserve(rows);
    std::uint64_t sum = 0;
    for (std::uint32_t r = 0; r < rows; ++r) {
      // Integer-scaled Zipf weights: exact cumulative table, no float
      // accumulation at issue time.
      const auto weight = std::max<std::uint64_t>(
          static_cast<std::uint64_t>(1e9 * std::pow(r + 1.0, -s)), 1);
      sum += weight;
      cum_.push_back(sum);
    }
  }

 private:
  WarpInstr memory_instr(Warp& w, std::uint64_t /*g*/) override {
    WarpInstr instr;
    instr.kind = w.rng.chance(0.125) ? WarpInstr::Kind::kStore
                                     : WarpInstr::Kind::kLoad;
    instr.active_lanes = kWarpLanes;
    for (std::uint32_t lane = 0; lane < kWarpLanes; ++lane) {
      std::uint64_t line;
      if (w.rng.chance(0.1)) {
        line = w.rng.below(footprint_lines_);  // cold tail
      } else {
        const std::uint64_t pick = w.rng.below(cum_.back());
        const auto row = static_cast<std::uint64_t>(
            std::lower_bound(cum_.begin(), cum_.end(), pick + 1) -
            cum_.begin());
        line = row * kRowLines + w.rng.below(kRowLines);
      }
      instr.lane_addr[lane] = line_addr(line, lane);
    }
    ++w.iter;
    return instr;
  }

  std::vector<std::uint64_t> cum_;  ///< cumulative Zipf weights (const)
};

}  // namespace

std::unique_ptr<InstrSource> make_scenario(const ScenarioSpec& spec,
                                           std::uint32_t sms,
                                           std::uint32_t warps_per_sm,
                                           std::uint64_t seed) {
  switch (spec.kind) {
    case ScenarioKind::kVecAddUncoalesced:
      return std::make_unique<VecAddUncoalesced>(spec.params, sms,
                                                 warps_per_sm, seed);
    case ScenarioKind::kThresholdCompact:
      return std::make_unique<ThresholdCompact>(spec.params, sms,
                                                warps_per_sm, seed);
    case ScenarioKind::kFramebuffer:
      return std::make_unique<Framebuffer>(spec.params, sms, warps_per_sm,
                                           seed);
    case ScenarioKind::kPointerChase:
      return std::make_unique<PointerChase>(spec.params, sms, warps_per_sm,
                                            seed);
    case ScenarioKind::kPhaseShift:
      return std::make_unique<PhaseShift>(spec.params, sms, warps_per_sm,
                                          seed);
    case ScenarioKind::kPowerLawRows:
      return std::make_unique<PowerLawRows>(spec.params, sms, warps_per_sm,
                                            seed);
  }
  LATDIV_UNREACHABLE("bad ScenarioKind");
}

}  // namespace latdiv::scenario
