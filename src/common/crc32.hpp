// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) for on-disk integrity checks.
//
// Trace format v2 protects every chunk payload and the per-warp index with
// a CRC, and every LDSN snapshot section carries one, so truncation and
// bit rot surface as clean fatal errors instead of silently corrupted
// state.  Slicing-by-8: eight 256-entry tables fold eight input bytes per
// step (table k maps a byte to its CRC contribution k bytes further up
// the stream), with a byte-at-a-time tail.  Words are read with
// get_le32, so the result is the same on any host byte order.  The tables
// are a pure function of the polynomial, built once process-wide and
// const thereafter.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/endian.hpp"

namespace latdiv {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

inline const Crc32Tables& crc32_tables() {
  static const Crc32Tables kTables = [] {
    Crc32Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = t[k - 1][i];
        t[k][i] = t[0][prev & 0xFFu] ^ (prev >> 8);
      }
    }
    return t;
  }();
  return kTables;
}

}  // namespace detail

/// CRC-32 of `n` bytes, continuing from `seed` (pass the previous return
/// value to checksum discontiguous regions as one stream; default starts
/// a fresh checksum).
[[nodiscard]] inline std::uint32_t crc32(const void* data, std::size_t n,
                                         std::uint32_t seed = 0) {
  const detail::Crc32Tables& t = detail::crc32_tables();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = c ^ get_le32(p);
    const std::uint32_t hi = get_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace latdiv
