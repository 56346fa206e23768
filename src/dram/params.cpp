#include "dram/params.hpp"

#include <cmath>

#include "common/log.hpp"

namespace latdiv {

namespace {

/// Convert nanoseconds to command-clock cycles, rounding up (a constraint
/// satisfied at a fractional cycle is not satisfied until the next edge).
Cycle ns_to_ck(double ns, double tck_ns) noexcept {
  return static_cast<Cycle>(std::ceil(ns / tck_ns - 1e-9));
}

}  // namespace

DramParams gddr5_params() { return DramParams{}; }

DramParams ddr3_1600_params() {
  DramParams p;
  p.tck_ns = 1.25;  // 800 MHz command clock, 1600 MT/s data
  p.trc_ns = 48.75;
  p.trcd_ns = 13.75;
  p.trp_ns = 13.75;
  p.tcas_ns = 13.75;
  p.tras_ns = 35.0;
  p.trrd_ns = 6.0;
  p.twtr_ns = 7.5;
  p.tfaw_ns = 40.0;
  p.trtp_ns = 7.5;
  p.twr_ns = 15.0;
  p.twl_ck = 8;
  p.tburst_ck = 4;   // BL8 on a 64-bit channel
  p.trtrs_ck = 2;
  p.tccdl_ck = 4;    // no bank groups: tCCD is uniformly 4 tCK
  p.tccds_ck = 4;
  p.banks = 8;
  p.banks_per_group = 8;  // a single "group": no fast cross-group path
  p.trefi_ns = 7800.0;
  p.trfc_ns = 160.0;
  return p;
}

DramTiming DramTiming::from(const DramParams& p) noexcept {
  LATDIV_ASSERT(p.tck_ns > 0.0, "tCK must be positive");
  LATDIV_ASSERT(p.banks % p.banks_per_group == 0, "bank-group geometry");
  // The command scheduler's per-bank bounds stay valid across a CAS to
  // another bank group only if the short gap, paid twice, covers the long
  // one (DESIGN.md, "Why the ignored events cannot change a failed
  // answer").
  LATDIV_ASSERT(2 * p.tccds_ck >= p.tccdl_ck, "tCCDL exceeds 2 x tCCDS");
  DramTiming t{};
  t.trc = ns_to_ck(p.trc_ns, p.tck_ns);
  t.trcd = ns_to_ck(p.trcd_ns, p.tck_ns);
  t.trp = ns_to_ck(p.trp_ns, p.tck_ns);
  t.tcas = ns_to_ck(p.tcas_ns, p.tck_ns);
  t.tras = ns_to_ck(p.tras_ns, p.tck_ns);
  t.trrd = ns_to_ck(p.trrd_ns, p.tck_ns);
  t.twtr = ns_to_ck(p.twtr_ns, p.tck_ns);
  t.tfaw = ns_to_ck(p.tfaw_ns, p.tck_ns);
  t.trtp = ns_to_ck(p.trtp_ns, p.tck_ns);
  t.twr = ns_to_ck(p.twr_ns, p.tck_ns);
  t.twl = p.twl_ck;
  t.tburst = p.tburst_ck;
  t.trtrs = p.trtrs_ck;
  t.tccdl = p.tccdl_ck;
  t.tccds = p.tccds_ck;
  t.trefi = ns_to_ck(p.trefi_ns, p.tck_ns);
  t.trfc = ns_to_ck(p.trfc_ns, p.tck_ns);
  t.banks = p.banks;
  t.banks_per_group = p.banks_per_group;
  t.refresh_enabled = p.refresh_enabled;
  return t;
}

}  // namespace latdiv
