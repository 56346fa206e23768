// GPU physical-address → DRAM-coordinate mapping (paper §II-C).
//
// The paper's policy, reproduced here exactly where it is specified:
//   * consecutive 128B cache lines map to the same row in the same bank;
//   * blocks of consecutive cache lines are interleaved across channels and
//     banks at a granularity of 256 bytes;
//   * the channel index is   {addr[47:11] : (addr[10:8] XOR addr[13:11])} % 6
//     (the XOR prevents "channel camping" by strided access patterns);
//   * the bank index is XOR-permuted with higher-order cache-set-index bits
//     (Zhang et al., MICRO 2000) to prevent bank camping.
//
// Field layout of a byte address (kLineBytes = 128, kRowBytes = 2048):
//   [6:0]    byte within cache line
//   [7]      line within 256B interleave granule
//   [10:8]   granule bits — folded into the channel hash
//   [14:11]  bank bits (XORed with [18:15])
//   [31:15]  row bits
// The column index of a line within its row is bits [10:7].
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace latdiv {

/// Decoded DRAM coordinates for one cache-line request.
struct DramLoc {
  ChannelId channel = 0;
  BankId bank = 0;
  BankGroupId bank_group = 0;
  RowId row = 0;
  std::uint32_t col = 0;

  friend bool operator==(const DramLoc&, const DramLoc&) = default;
};

/// Geometry constants shared by the mapper and the DRAM model.  The
/// Simulator derives the counts from IcntConfig::partitions and the
/// DramParams bank geometry.
struct AddressMapConfig {
  std::uint32_t channels = 6;
  std::uint32_t banks_per_channel = 16;
  std::uint32_t banks_per_group = 4;
  /// Enable the XOR hashes (the paper's anti-camping measures).  Disabling
  /// them is used by tests and by the channel-camping ablation.
  bool xor_channel_hash = true;
  bool xor_bank_permutation = true;
};

/// Stateless mapper; construct once per simulation.
class AddressMap {
 public:
  explicit AddressMap(const AddressMapConfig& cfg);

  [[nodiscard]] DramLoc decode(Addr addr) const noexcept;

  /// Align an address down to its cache-line base.
  [[nodiscard]] Addr line_base(Addr addr) const noexcept {
    return addr & ~(kLineBytes - 1);
  }

  [[nodiscard]] const AddressMapConfig& config() const noexcept { return cfg_; }

 private:
  AddressMapConfig cfg_;
};

}  // namespace latdiv
