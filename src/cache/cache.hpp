// Set-associative cache with true-LRU replacement and an MSHR file.
//
// Used for both the 32KB 8-way L1 per SM and the 128KB 16-way L2 slice per
// memory partition (paper Table II; 128B lines in both).  The cache is a
// tag store only — the simulator carries no data — so the interesting
// state is presence, dirtiness and recency.
//
// Write policies follow the GPU norm the paper assumes:
//   L1: write-through, no write-allocate (stores bypass to the partition);
//       loads allocate.
//   L2: write-back, write-allocate.  Coalesced stores write whole 128B
//       lines, so a store miss installs the line dirty without a fill
//       read (the read-modify-write path for partial lines is not
//       modelled; coalesced GPGPU stores are full-line in the common
//       case).
// The policy choice lives in the partition/SM code; this class only
// provides the mechanisms (probe/touch/fill/mark_dirty).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"

namespace latdiv {

/// Geometry of one cache of kLineBytes lines.
struct CacheConfig {
  std::uint32_t size_bytes = 32 * 1024;
  std::uint32_t ways = 8;

  friend bool operator==(const CacheConfig&, const CacheConfig&) = default;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_evictions = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const double total = static_cast<double>(hits + misses);
    return total == 0.0 ? 0.0 : static_cast<double>(hits) / total;
  }

  friend bool operator==(const CacheStats&, const CacheStats&) = default;
};

class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  /// Lookup with LRU update; counts in stats.  `addr` may be any byte in
  /// the line.
  bool touch(Addr addr);

  /// Tag check without side effects (no LRU update, no stats).
  [[nodiscard]] bool probe(Addr addr) const;

  /// Install `addr`'s line (e.g. on fill or full-line store-allocate).
  /// Returns the address of an evicted *dirty* line needing writeback,
  /// if the victim was dirty.
  std::optional<Addr> fill(Addr addr, bool dirty = false);

  /// `n` back-to-back load accesses to `addr`'s line in one set scan:
  /// the same tags, LRU order and stats as `n` touch() calls with a
  /// clean fill() after a miss (sampled-mode functional warming of one
  /// coalesced lane run).  Victim choice matches fill(); the victim must
  /// be clean, as every line of the write-through L1 is.  Returns
  /// whether the first access hit.
  bool warm(Addr addr, std::uint32_t n);

  /// Mark the line dirty (store hit).  The line must be present.
  void mark_dirty(Addr addr);

  /// Drop the line if present (L1 write-evict on stores).  Returns true
  /// if a line was invalidated.  L1 lines are never dirty, so no
  /// writeback results.
  bool invalidate(Addr addr);

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint32_t sets() const noexcept { return sets_; }

  /// Snapshot serialization of tags/LRU/stats (src/ckpt); geometry comes
  /// from construction.
  template <class Ar>
  void ckpt_io(Ar& ar);

  /// Same geometry and the same tags, LRU clocks and stats, way by way.
  friend bool operator==(const Cache&, const Cache&) = default;

 private:
  struct Line {
    Addr tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t last_use = 0;

    friend bool operator==(const Line&, const Line&) = default;
  };

  [[nodiscard]] std::uint32_t set_of(Addr addr) const noexcept;
  [[nodiscard]] Addr tag_of(Addr addr) const noexcept;
  [[nodiscard]] Line* find(Addr addr) noexcept;
  [[nodiscard]] const Line* find(Addr addr) const noexcept;

  CacheConfig cfg_;
  std::uint32_t sets_;
  std::uint64_t use_clock_ = 0;
  std::vector<Line> lines_;  // sets_ * ways, set-major
  CacheStats stats_;
};

}  // namespace latdiv
