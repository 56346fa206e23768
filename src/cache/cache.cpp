#include "cache/cache.hpp"

#include <bit>

#include "common/log.hpp"

namespace latdiv {

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg) {
  LATDIV_ASSERT(cfg.ways > 0, "need at least one way");
  LATDIV_ASSERT(cfg.size_bytes % (kLineBytes * cfg.ways) == 0,
                "size must divide into sets evenly");
  sets_ = static_cast<std::uint32_t>(cfg.size_bytes / (kLineBytes * cfg.ways));
  LATDIV_ASSERT(std::has_single_bit(sets_), "set count must be a power of 2");
  lines_.resize(static_cast<std::size_t>(sets_) * cfg.ways);
}

std::uint32_t Cache::set_of(Addr addr) const noexcept {
  return static_cast<std::uint32_t>((addr / kLineBytes) & (sets_ - 1));
}

Addr Cache::tag_of(Addr addr) const noexcept {
  return addr / kLineBytes / sets_;
}

Cache::Line* Cache::find(Addr addr) noexcept {
  const Addr tag = tag_of(addr);
  Line* base = &lines_[static_cast<std::size_t>(set_of(addr)) * cfg_.ways];
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) return &base[w];
  }
  return nullptr;
}

const Cache::Line* Cache::find(Addr addr) const noexcept {
  return const_cast<Cache*>(this)->find(addr);
}

bool Cache::touch(Addr addr) {
  Line* line = find(addr);
  if (line != nullptr) {
    line->last_use = ++use_clock_;
    ++stats_.hits;
    return true;
  }
  ++stats_.misses;
  return false;
}

bool Cache::probe(Addr addr) const { return find(addr) != nullptr; }

std::optional<Addr> Cache::fill(Addr addr, bool dirty) {
  Line* line = find(addr);
  if (line != nullptr) {  // already present (racing fills merge)
    line->dirty = line->dirty || dirty;
    line->last_use = ++use_clock_;
    return std::nullopt;
  }
  Line* base = &lines_[static_cast<std::size_t>(set_of(addr)) * cfg_.ways];
  Line* victim = base;
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    if (!base[w].valid) {
      victim = &base[w];
      break;
    }
    if (base[w].last_use < victim->last_use) victim = &base[w];
  }
  std::optional<Addr> writeback;
  if (victim->valid) {
    ++stats_.evictions;
    if (victim->dirty) {
      ++stats_.dirty_evictions;
      // Reconstruct the victim's line base address from its tag and the
      // set index (shared with the incoming line).
      writeback = (victim->tag * sets_ + set_of(addr)) * kLineBytes;
    }
  }
  victim->tag = tag_of(addr);
  victim->valid = true;
  victim->dirty = dirty;
  victim->last_use = ++use_clock_;
  return writeback;
}

bool Cache::warm(Addr addr, std::uint32_t n) {
  LATDIV_DCHECK(n > 0, "warm needs at least one access");
  // One pass over the set finds the line or, failing that, fill()'s
  // victim.  After the first access the line is present, so the other
  // n-1 are hits that only move the use clock.
  const Addr tag = tag_of(addr);
  Line* base = &lines_[static_cast<std::size_t>(set_of(addr)) * cfg_.ways];
  Line* victim = base;  // fill()'s: the first invalid way, else first LRU
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    Line& l = base[w];
    if (l.valid && l.tag == tag) {
      stats_.hits += n;
      use_clock_ += n;
      l.last_use = use_clock_;
      return true;
    }
    if (victim->valid && (!l.valid || l.last_use < victim->last_use)) {
      victim = &l;
    }
  }
  ++stats_.misses;
  stats_.hits += n - 1;
  if (victim->valid) {
    LATDIV_ASSERT(!victim->dirty, "warm evicts a dirty line");
    ++stats_.evictions;
  }
  victim->tag = tag;
  victim->valid = true;
  victim->dirty = false;
  use_clock_ += n;
  victim->last_use = use_clock_;
  return false;
}

bool Cache::invalidate(Addr addr) {
  Line* line = find(addr);
  if (line == nullptr) return false;
  line->valid = false;
  line->dirty = false;
  return true;
}

void Cache::mark_dirty(Addr addr) {
  Line* line = find(addr);
  LATDIV_ASSERT(line != nullptr, "mark_dirty on absent line");
  line->dirty = true;
}

}  // namespace latdiv
