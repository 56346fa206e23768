// GDDR5 power model following the Micron power-calculator methodology
// (TN-41-01) with GDDR5-class current/voltage constants, as the paper does
// in §VI-B.
//
// Energy is attributed per event class from the ChannelStats counters:
//   activate/precharge pairs   (IDD0 net of background)
//   read / write bursts        (IDD4R/IDD4W net of active standby)
//   background                 (IDD3N when any bank open, IDD2N otherwise)
//   refresh                    (IDD5 net of precharge standby)
//   I/O + termination          (pJ/bit on the 64-bit POD15 interface —
//                               the dominant term in GDDR5, which is why
//                               the paper finds a 16% row-hit-rate drop
//                               costs only ~1.8% device power)
//
// Two x32 devices operate in tandem per channel; array terms are scaled by
// the device count, I/O is modelled per channel.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "dram/channel.hpp"
#include "dram/params.hpp"

namespace latdiv {

struct Gddr5PowerParams {
  double vdd = 1.5;      ///< volts
  double idd0 = 0.090;   ///< amps, one-bank ACT->PRE cycling
  double idd2n = 0.035;  ///< amps, precharge standby
  double idd3n = 0.045;  ///< amps, active standby
  double idd4r = 0.180;  ///< amps, burst read
  double idd4w = 0.175;  ///< amps, burst write
  double idd5 = 0.150;   ///< amps, refresh
  double io_pj_per_bit = 8.0;  ///< driver + ODT energy per transferred bit
  std::uint32_t devices_per_channel = 2;
};

/// Average power in watts over the measured interval, per channel.
struct PowerBreakdown {
  double background = 0.0;
  double activate = 0.0;
  double read = 0.0;
  double write = 0.0;
  double refresh = 0.0;
  double io = 0.0;

  [[nodiscard]] double total() const noexcept {
    return background + activate + read + write + refresh + io;
  }
};

class PowerModel {
 public:
  PowerModel(const Gddr5PowerParams& params, const DramParams& dram);

  /// Average power for one channel whose counters are `stats`, observed
  /// over `elapsed_cycles` command-clock cycles.
  [[nodiscard]] PowerBreakdown compute(const ChannelStats& stats,
                                       Cycle elapsed_cycles) const;

 private:
  Gddr5PowerParams p_;
  DramParams d_;
};

}  // namespace latdiv
