// Miss-Status Holding Register file.
//
// Tracks outstanding line fetches and merges secondary misses to the same
// line.  Each entry holds the waiting requests so the owner (SM or L2
// partition) can replay them when the fill returns.  A full MSHR file (or
// a full merge list) back-pressures the requester, exactly like hardware.
//
// Storage is a flat table of `entries` slots, like the hardware CAM: the
// occupied slots are the prefix [0, outstanding()), and a lookup scans
// their line addresses.  Each slot's waiter vector keeps its capacity
// across reuse, so steady-state traffic allocates nothing.  Slot order
// carries no meaning: a release moves the last occupied slot into the
// freed one, and the snapshot writer sorts entries by line address.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"
#include "mem/request.hpp"

namespace latdiv {

struct MshrConfig {
  std::uint32_t entries = 32;
  std::uint32_t max_merged = 8;  ///< waiters per entry, primary included
};

struct MshrStats {
  std::uint64_t allocations = 0;
  std::uint64_t merges = 0;
  std::uint64_t releases = 0;  ///< fills delivered; allocations - releases
                               ///< must equal outstanding() (no leaks)
  std::uint64_t stalls_full = 0;
};

class MshrFile {
 public:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  explicit MshrFile(const MshrConfig& cfg)
      : cfg_(cfg), lines_(cfg.entries), waiters_(cfg.entries) {}

  /// Slot tracking `line`, or kNoSlot.  Callers that go on to merge or
  /// allocate use the slot, so each request costs one scan.
  [[nodiscard]] std::uint32_t find(Addr line) const {
    for (std::uint32_t s = 0; s < used_; ++s) {
      if (lines_[s] == line) return s;
    }
    return kNoSlot;
  }
  [[nodiscard]] bool tracking(Addr line) const {
    return find(line) != kNoSlot;
  }
  [[nodiscard]] bool full() const { return used_ >= cfg_.entries; }
  /// Does occupied `slot` have room for one more waiter?
  [[nodiscard]] bool can_merge(std::uint32_t slot) const {
    return waiters_[slot].size() < cfg_.max_merged;
  }

  /// Can `line` accept a new request (fresh entry or merge slot)?
  [[nodiscard]] bool can_accept(Addr line) const {
    const std::uint32_t slot = find(line);
    return slot != kNoSlot ? can_merge(slot) : !full();
  }

  /// Merge `req` into the outstanding fetch held by `slot` (from find()).
  void merge(std::uint32_t slot, const MemRequest& req) {
    LATDIV_ASSERT(slot < used_ && can_merge(slot),
                  "MSHR merge overflow (check can_merge)");
    waiters_[slot].push_back(req);
    ++stats_.merges;
  }

  /// Open a fresh entry for untracked `line` with `req` as its primary
  /// waiter (the caller sends the fetch downstream).  Occupied slots do
  /// not move, so slots returned by find() stay valid.
  void allocate(Addr line, const MemRequest& req) {
    LATDIV_ASSERT(!full(), "MSHR overflow (check full)");
    LATDIV_DCHECK(!tracking(line), "MSHR allocate for a tracked line");
    lines_[used_] = line;
    waiters_[used_].assign(1, req);  // keeps the slot's capacity
    ++used_;
    ++stats_.allocations;
  }

  /// Register `req` as waiting on `line`.  Returns true if this created a
  /// new entry (i.e. the caller must send a fetch downstream); false if
  /// it merged into an outstanding fetch.
  bool add(Addr line, const MemRequest& req) {
    const std::uint32_t slot = find(line);
    if (slot != kNoSlot) {
      merge(slot, req);
      return false;
    }
    allocate(line, req);
    return true;
  }

  /// The fill for `line` arrived: free its entry and return its waiters
  /// in arrival order.  The view stays valid until the next add or
  /// allocate (the freed slot keeps them until it is reused).
  [[nodiscard]] std::span<const MemRequest> release(Addr line) {
    const std::uint32_t slot = find(line);
    LATDIV_ASSERT(slot != kNoSlot, "fill for untracked line");
    --used_;
    std::swap(lines_[slot], lines_[used_]);
    std::swap(waiters_[slot], waiters_[used_]);
    ++stats_.releases;
    return waiters_[used_];
  }

  void count_stall() { ++stats_.stalls_full; }

  [[nodiscard]] std::size_t outstanding() const { return used_; }
  [[nodiscard]] std::size_t free_entries() const {
    return cfg_.entries - used_;
  }
  [[nodiscard]] const MshrConfig& config() const { return cfg_; }
  [[nodiscard]] const MshrStats& stats() const { return stats_; }

  /// Occupied slot `slot` (< outstanding()): its line and waiters
  /// (invariant audits).
  [[nodiscard]] Addr line(std::uint32_t slot) const { return lines_[slot]; }
  [[nodiscard]] std::span<const MemRequest> waiters(std::uint32_t slot) const {
    return waiters_[slot];
  }

  /// Snapshot serialization of outstanding entries + stats (src/ckpt).
  template <class Ar>
  void ckpt_io(Ar& ar);

 private:
  MshrConfig cfg_;
  std::vector<Addr> lines_;  ///< slot -> line; [0, used_) occupied
  std::vector<std::vector<MemRequest>> waiters_;  ///< slot -> waiters
  std::uint32_t used_ = 0;
  MshrStats stats_;
};

}  // namespace latdiv
