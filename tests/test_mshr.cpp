#include "cache/mshr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "cache/cache.hpp"

namespace latdiv {
namespace {

MemRequest req_for(Addr line, WarpInstrUid uid = 1) {
  MemRequest r;
  r.addr = line;
  r.tag.instr = uid;
  return r;
}

TEST(Mshr, FirstAddAllocates) {
  MshrFile m(MshrConfig{4, 2});
  EXPECT_FALSE(m.tracking(0x100));
  EXPECT_TRUE(m.add(0x100, req_for(0x100)));
  EXPECT_TRUE(m.tracking(0x100));
  EXPECT_EQ(m.outstanding(), 1u);
  EXPECT_EQ(m.stats().allocations, 1u);
}

TEST(Mshr, SecondAddMerges) {
  MshrFile m(MshrConfig{4, 2});
  m.add(0x100, req_for(0x100, 1));
  EXPECT_FALSE(m.add(0x100, req_for(0x100, 2)));
  EXPECT_EQ(m.outstanding(), 1u);
  EXPECT_EQ(m.stats().merges, 1u);
}

TEST(Mshr, MergeLimitEnforced) {
  MshrFile m(MshrConfig{4, 2});
  m.add(0x100, req_for(0x100, 1));
  m.add(0x100, req_for(0x100, 2));
  EXPECT_FALSE(m.can_accept(0x100));
  EXPECT_TRUE(m.can_accept(0x200));  // fresh entries still available
}

TEST(Mshr, EntryLimitEnforced) {
  MshrFile m(MshrConfig{2, 8});
  m.add(0x100, req_for(0x100));
  m.add(0x200, req_for(0x200));
  EXPECT_FALSE(m.can_accept(0x300));
  EXPECT_TRUE(m.can_accept(0x100));  // merging is still fine
  EXPECT_EQ(m.free_entries(), 0u);
}

TEST(Mshr, ReleaseReturnsAllWaitersInOrder) {
  MshrFile m(MshrConfig{4, 4});
  m.add(0x100, req_for(0x100, 11));
  m.add(0x100, req_for(0x100, 22));
  m.add(0x100, req_for(0x100, 33));
  const auto waiters = m.release(0x100);
  ASSERT_EQ(waiters.size(), 3u);
  EXPECT_EQ(waiters[0].tag.instr, 11u);
  EXPECT_EQ(waiters[1].tag.instr, 22u);
  EXPECT_EQ(waiters[2].tag.instr, 33u);
  EXPECT_FALSE(m.tracking(0x100));
  EXPECT_EQ(m.outstanding(), 0u);
}

TEST(Mshr, ReleaseFreesCapacity) {
  MshrFile m(MshrConfig{1, 1});
  m.add(0x100, req_for(0x100));
  EXPECT_FALSE(m.can_accept(0x200));
  (void)m.release(0x100);
  EXPECT_TRUE(m.can_accept(0x200));
}

TEST(Mshr, StallCounter) {
  MshrFile m(MshrConfig{1, 1});
  m.count_stall();
  m.count_stall();
  EXPECT_EQ(m.stats().stalls_full, 2u);
}

// The SM's MSHR-deficit wake (Sm::issue_memory) rests on one property of
// an L1 plus its MSHR file: for a fixed line set, the classify deficit
// (new fetches minus free entries) plus the number of releases never
// decreases.  A release frees one entry and its fill may evict one of the
// set's hits; other requesters' allocations and merges, LRU touches and
// store invalidates never lower the deficit.  Random event streams over a
// small, eviction-heavy cache check it for several line sets at once.
TEST(MshrDeficit, DropsByAtMostOnePerRelease) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    std::uint64_t state = seed;
    auto below = [&state](std::uint64_t n) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return (state >> 33) % n;
    };
    Cache l1(CacheConfig{4 * 2 * kLineBytes, 2});  // 4 sets x 2 ways
    MshrFile mshr(MshrConfig{6, 3});
    std::vector<Addr> pool;
    for (Addr i = 0; i < 24; ++i) pool.push_back(i * kLineBytes);

    // Distinct lines, like a coalesced access.
    std::vector<std::vector<Addr>> sets(4);
    for (auto& set : sets) {
      const std::uint64_t n = 1 + below(6);
      while (set.size() < n) {
        const Addr line = pool[below(24)];
        if (std::find(set.begin(), set.end(), line) == set.end()) {
          set.push_back(line);
        }
      }
    }
    auto deficit = [&](const std::vector<Addr>& set) {
      std::int64_t fresh = 0;
      for (const Addr line : set) {
        if (!l1.probe(line) && !mshr.tracking(line)) ++fresh;
      }
      return fresh - static_cast<std::int64_t>(mshr.free_entries());
    };

    std::vector<Addr> tracked;
    std::int64_t releases = 0;
    std::vector<std::int64_t> floor(sets.size());
    for (std::size_t i = 0; i < sets.size(); ++i) floor[i] = deficit(sets[i]);
    for (int step = 0; step < 4000; ++step) {
      const Addr line = pool[below(24)];
      switch (below(5)) {
        case 0:
        case 1:  // another warp's load: allocate or merge on a miss
          if (!l1.touch(line) && mshr.can_accept(line) &&
              mshr.add(line, req_for(line))) {
            tracked.push_back(line);
          }
          break;
        case 2:  // LRU touch only
          (void)l1.touch(line);
          break;
        case 3:  // a fill: install (maybe evicting), then release
          if (!tracked.empty()) {
            const std::size_t k = below(tracked.size());
            const Addr done = tracked[k];
            tracked.erase(tracked.begin() + static_cast<std::ptrdiff_t>(k));
            (void)l1.fill(done);
            (void)mshr.release(done);
            ++releases;
          }
          break;
        default:  // a store's write-evict
          (void)l1.invalidate(line);
          break;
      }
      for (std::size_t i = 0; i < sets.size(); ++i) {
        const std::int64_t now = deficit(sets[i]) + releases;
        ASSERT_GE(now, floor[i]) << "seed " << seed << " step " << step;
        floor[i] = now;
      }
    }
    EXPECT_GT(releases, 100) << "stream too quiet to exercise evictions";
  }
}

// Differential check of the flat slot table against a std::map reference
// (the file's earlier representation): random add / fold-path merge and
// allocate / release streams, comparing tracking, can_accept, add's
// return value, the waiters and their order at release, free_entries and
// the stats after every step.
TEST(Mshr, MatchesMapReferenceOnRandomStreams) {
  struct Ref {
    std::map<Addr, std::vector<WarpInstrUid>> entries;
    MshrStats stats;
  };
  for (const MshrConfig cfg : {MshrConfig{4, 2}, MshrConfig{32, 8},
                               MshrConfig{64, 8}}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + cfg.entries;
      auto below = [&state](std::uint64_t n) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return (state >> 33) % n;
      };
      MshrFile m(cfg);
      Ref ref;
      // A line pool a little larger than the file keeps it near full.
      const std::uint64_t pool = cfg.entries + cfg.entries / 2 + 1;
      WarpInstrUid uid = 0;
      for (int step = 0; step < 20000; ++step) {
        const Addr line = 0x1000 + 128 * below(pool);
        const auto rit = ref.entries.find(line);
        const bool ref_tracking = rit != ref.entries.end();
        const bool ref_accept = ref_tracking
                                    ? rit->second.size() < cfg.max_merged
                                    : ref.entries.size() < cfg.entries;
        ASSERT_EQ(m.tracking(line), ref_tracking);
        ASSERT_EQ(m.can_accept(line), ref_accept);
        const std::uint64_t op = below(10);
        if (op < 6 && ref_accept) {
          ++uid;
          bool fresh = false;
          if (op < 3) {
            fresh = m.add(line, req_for(line, uid));
          } else {  // the one-lookup path Partition::handle and Sm use
            const std::uint32_t slot = m.find(line);
            fresh = slot == MshrFile::kNoSlot;
            if (fresh) {
              m.allocate(line, req_for(line, uid));
            } else {
              ASSERT_TRUE(m.can_merge(slot));
              m.merge(slot, req_for(line, uid));
            }
          }
          ASSERT_EQ(fresh, !ref_tracking);
          ref.entries[line].push_back(uid);
          ++(fresh ? ref.stats.allocations : ref.stats.merges);
        } else if (op < 9 && !ref.entries.empty()) {
          auto victim = ref.entries.begin();
          std::advance(victim, static_cast<std::ptrdiff_t>(
                                   below(ref.entries.size())));
          const auto waiters = m.release(victim->first);
          ASSERT_EQ(waiters.size(), victim->second.size());
          for (std::size_t i = 0; i < waiters.size(); ++i) {
            EXPECT_EQ(waiters[i].addr, victim->first);
            EXPECT_EQ(waiters[i].tag.instr, victim->second[i]);
          }
          ref.entries.erase(victim);
          ++ref.stats.releases;
        } else {
          m.count_stall();
          ++ref.stats.stalls_full;
        }
        ASSERT_EQ(m.outstanding(), ref.entries.size());
        ASSERT_EQ(m.free_entries(), cfg.entries - ref.entries.size());
        ASSERT_EQ(m.full(), ref.entries.size() == cfg.entries);
        ASSERT_EQ(m.stats().allocations, ref.stats.allocations);
        ASSERT_EQ(m.stats().merges, ref.stats.merges);
        ASSERT_EQ(m.stats().releases, ref.stats.releases);
        ASSERT_EQ(m.stats().stalls_full, ref.stats.stalls_full);
      }
      EXPECT_GT(m.stats().releases, 1000u);
    }
  }
}

TEST(MshrDeath, AddBeyondCapacityAborts) {
  MshrFile m(MshrConfig{1, 1});
  m.add(0x100, req_for(0x100));
  EXPECT_DEATH(m.add(0x200, req_for(0x200)), "overflow");
}

TEST(MshrDeath, ReleaseUntrackedAborts) {
  MshrFile m(MshrConfig{1, 1});
  EXPECT_DEATH((void)m.release(0x500), "untracked");
}

}  // namespace
}  // namespace latdiv
