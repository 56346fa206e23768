// Statistical warp-instruction generator.
//
// Produces per-warp instruction streams matching a WorkloadProfile.  Every
// warp owns an independently-seeded RNG, so simulations are reproducible
// bit-for-bit from (profile, seed) regardless of scheduling order, and the
// same workload is presented to every memory scheduler under comparison.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "workload/instr.hpp"
#include "workload/instr_source.hpp"
#include "workload/profile.hpp"

namespace latdiv {

class WorkloadGenerator : public InstrSource {
 public:
  WorkloadGenerator(const WorkloadProfile& profile, std::uint32_t sms,
                    std::uint32_t warps_per_sm, std::uint64_t seed);

  /// Next instruction for (sm, warp).  Never exhausts: the synthetic
  /// kernels are unbounded; the simulation decides when to stop.
  [[nodiscard]] WarpInstr next(SmId sm, WarpId warp) override;

  [[nodiscard]] const WorkloadProfile& profile() const { return profile_; }

  /// Snapshot hooks (src/ckpt): per-warp RNG streams + per-SM stream
  /// cursors fully determine the remaining instruction sequence.
  [[nodiscard]] bool checkpointable() const override { return true; }
  void ckpt_save(ckpt::CkptWriter& ar) const override;
  void ckpt_load(ckpt::CkptReader& ar) override;

 private:
  struct WarpState {
    Rng rng;
    explicit WarpState(std::uint64_t seed) : rng(seed) {}
  };

  /// Shared save/load body: the per-warp RNG streams plus the per-SM
  /// streaming cursors are the generator's entire mutable state.
  template <class Ar>
  void ckpt_io(Ar& ar);

  [[nodiscard]] WarpState& state(SmId sm, WarpId warp);
  /// A line-aligned address, hot-region biased.
  [[nodiscard]] Addr random_line(Rng& rng) const;
  /// Next line of the SM's shared streaming sweep.  Streaming kernels
  /// assign consecutive elements to consecutive threads *across* warps,
  /// so the warps of one SM collectively walk a contiguous region — this
  /// is what creates cross-warp DRAM row locality for regular workloads.
  [[nodiscard]] Addr stream_line(SmId sm);
  void fill_memory_instr(WarpInstr& instr, SmId sm, WarpState& ws);

  WorkloadProfile profile_;
  std::uint32_t warps_per_sm_;
  std::uint64_t footprint_lines_;
  std::uint64_t hot_lines_;
  std::vector<WarpState> warps_;
  std::vector<Addr> sm_stream_pos_;
};

}  // namespace latdiv
