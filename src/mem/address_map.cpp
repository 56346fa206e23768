#include "mem/address_map.hpp"

#include "common/log.hpp"

namespace latdiv {

AddressMap::AddressMap(const AddressMapConfig& cfg) : cfg_(cfg) {
  LATDIV_ASSERT(cfg.channels >= 1 && cfg.channels <= 255, "channel count");
  LATDIV_ASSERT(cfg.banks_per_channel > 0 &&
                    cfg.banks_per_channel % cfg.banks_per_group == 0,
                "banks must divide evenly into bank groups");
}

DramLoc AddressMap::decode(Addr addr) const noexcept {
  DramLoc loc;

  // Channel: {addr[47:11] : (addr[10:8] XOR addr[13:11])} % channels.
  if (cfg_.xor_channel_hash) {
    const Addr high = (addr >> 11) & ((Addr{1} << 37) - 1);  // addr[47:11]
    const Addr low3 = ((addr >> 8) & 0x7) ^ ((addr >> 11) & 0x7);
    const Addr hashed = (high << 3) | low3;
    loc.channel = static_cast<ChannelId>(hashed % cfg_.channels);
  } else {
    loc.channel = static_cast<ChannelId>((addr >> 8) % cfg_.channels);
  }

  // Bank: addr[14:11], permuted with higher-order set-index bits.
  std::uint32_t bank = static_cast<std::uint32_t>((addr >> 11) & 0xF);
  if (cfg_.xor_bank_permutation) {
    bank ^= static_cast<std::uint32_t>((addr >> 15) & 0xF);
  }
  bank %= cfg_.banks_per_channel;
  loc.bank = static_cast<BankId>(bank);
  loc.bank_group = static_cast<BankGroupId>(bank / cfg_.banks_per_group);

  loc.row = static_cast<RowId>((addr >> 15) & 0x1FFFF);  // addr[31:15]
  loc.col = static_cast<std::uint32_t>((addr >> 7) & 0xF);
  return loc;
}

}  // namespace latdiv
