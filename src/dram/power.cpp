#include "dram/power.hpp"

#include "common/log.hpp"

namespace latdiv {

PowerModel::PowerModel(const Gddr5PowerParams& params, const DramParams& dram)
    : p_(params), d_(dram) {}

PowerBreakdown PowerModel::compute(const ChannelStats& stats,
                                   Cycle elapsed_cycles) const {
  LATDIV_ASSERT(elapsed_cycles > 0, "power over an empty interval");
  PowerBreakdown out;
  const double devices = p_.devices_per_channel;
  const double elapsed_ns =
      static_cast<double>(elapsed_cycles) * d_.tck_ns;
  const double elapsed_s = elapsed_ns * 1e-9;

  // Background: IDD3N while any bank holds an open row, IDD2N otherwise.
  const double open_ns =
      static_cast<double>(elapsed_cycles - stats.all_banks_idle_cycles) *
      d_.tck_ns;
  const double closed_ns = elapsed_ns - open_ns;
  const double e_bg =
      (p_.idd3n * open_ns + p_.idd2n * closed_ns) * 1e-9 * p_.vdd * devices;
  out.background = e_bg / elapsed_s;

  // Activate/precharge: IDD0 covers one full tRC cycle of ACT+PRE; subtract
  // the background current already accounted for over that window.
  const double e_act_one =
      (p_.idd0 * d_.trc_ns - p_.idd3n * d_.tras_ns -
       p_.idd2n * (d_.trc_ns - d_.tras_ns)) *
      1e-9 * p_.vdd;
  out.activate = static_cast<double>(stats.activates) * e_act_one * devices /
                 elapsed_s;

  // Burst terms: incremental current over active standby, for tBURST.
  const double burst_ns = static_cast<double>(d_.tburst_ck) * d_.tck_ns;
  out.read = static_cast<double>(stats.reads) * (p_.idd4r - p_.idd3n) *
             burst_ns * 1e-9 * p_.vdd * devices / elapsed_s;
  out.write = static_cast<double>(stats.writes) * (p_.idd4w - p_.idd3n) *
              burst_ns * 1e-9 * p_.vdd * devices / elapsed_s;

  // Refresh: incremental over precharge standby for tRFC.
  out.refresh = static_cast<double>(stats.refreshes) *
                (p_.idd5 - p_.idd2n) * d_.trfc_ns * 1e-9 * p_.vdd * devices /
                elapsed_s;

  // I/O: per-bit energy on the channel interface.
  const double bits = static_cast<double>(stats.reads + stats.writes) *
                      static_cast<double>(kLineBytes) * 8.0;
  out.io = bits * p_.io_pj_per_bit * 1e-12 / elapsed_s;

  return out;
}

}  // namespace latdiv
