#include "gpu/sm.hpp"

#include <array>

#include "common/log.hpp"

namespace latdiv {

Sm::Sm(SmId id, const SmConfig& cfg, InstrSource& gen,
       const AddressMap& amap, Crossbar& xbar, InstrTracker& tracker,
       WarpInstrUid uid_base, WarpInstrUid uid_stride)
    : id_(id),
      cfg_(cfg),
      gen_(gen),
      amap_(amap),
      xbar_(xbar),
      tracker_(tracker),
      l1_(kL1),
      mshr_(kL1Mshr),
      coalescer_(cfg.perfect_coalescing),
      warps_(cfg.warps),
      masks_(kIssueMasks, cfg.warps),
      next_uid_(uid_base),
      uid_stride_(uid_stride) {
  LATDIV_ASSERT(cfg.warps > 0, "SM needs warps");
  LATDIV_ASSERT(uid_stride > 0, "uid stride must be positive");
  rebuild_issue_masks();
}

bool Sm::Warp::is_free() const {
  return pending_lines == 0 && !waiting_lsu;
}

bool Sm::Warp::memory_next() const {
  return has_next && next.kind != WarpInstr::Kind::kCompute;
}

void Sm::rebuild_issue_masks() {
  for (std::size_t wid = 0; wid < warps_.size(); ++wid) {
    const Warp& w = warps_[wid];
    masks_.assign(kNeedsGen, wid, !w.has_next);
    masks_.assign(kFree, wid, w.is_free());
    masks_.assign(kMemNext, wid, w.memory_next());
  }
  for (Warp& w : warps_) w.deficit_releases = 0;
}

bool Sm::issue_masks_consistent() const {
  for (std::size_t wid = 0; wid < warps_.size(); ++wid) {
    const Warp& w = warps_[wid];
    if (masks_.test(kNeedsGen, wid) != !w.has_next || masks_.test(kFree, wid) != w.is_free() ||
        masks_.test(kMemNext, wid) != w.memory_next()) {
      return false;
    }
  }
  return true;
}

void Sm::accept_response(Cycle now) {
  auto resp = xbar_.pop_response(id_, now);
  if (!resp) return;
  ++mem_epoch_;
  l1_.fill(resp->addr, /*dirty=*/false);
  for (const MemRequest& waiter : mshr_.release(resp->addr)) {
    Warp& w = warps_[waiter.tag.warp];
    LATDIV_ASSERT(w.pending_lines > 0, "fill for a warp with no loads");
    if (--w.pending_lines == 0) {
      w.ready_at = now + kFillReadyDelay;
      masks_.set(kFree, waiter.tag.warp);
      tracker_.finalize(waiter.tag.instr, now);
    }
  }
}

void Sm::dispatch_lsu(Cycle now) {
  if (!lsu_.active) return;
  for (std::uint32_t i = 0; i < kLsuWidth; ++i) {
    if (lsu_.next >= lsu_.queue.size()) break;
    if (!xbar_.can_inject_request(id_)) {
      xbar_.count_inject_stall();
      break;
    }
    MemRequest req = lsu_.queue[lsu_.next++];
    req.issued_by_sm = now;
    xbar_.inject_request(id_, req, now);
  }
  if (lsu_.next >= lsu_.queue.size()) {
    if (lsu_.is_store) {
      Warp& w = warps_[lsu_.warp];
      w.waiting_lsu = false;
      w.ready_at = now + cfg_.core_clock_ratio;
      masks_.set(kFree, lsu_.warp);
    }
    lsu_.active = false;
    lsu_.queue.clear();
    lsu_.next = 0;
  }
}

bool Sm::issuable(const Warp& w, Cycle now) const {
  if (w.pending_lines > 0 || w.waiting_lsu || w.ready_at > now) return false;
  if (w.has_next && w.next.kind != WarpInstr::Kind::kCompute && lsu_.active) {
    return false;  // one memory instruction dispatches at a time
  }
  return true;
}

void Sm::generate_next(WarpId wid) {
  Warp& w = warps_[wid];
  w.next = gen_.next(id_, wid);
  w.has_next = true;
  w.issue_fail_epoch = 0;
  w.deficit_releases = 0;
  masks_.reset(kNeedsGen, wid);
  const bool mem = w.next.kind != WarpInstr::Kind::kCompute;
  masks_.assign(kMemNext, wid, mem);
  if (mem) coalescer_.coalesce(w.next, w.lines);
}

bool Sm::issue_memory(WarpId wid, Cycle now) {
  Warp& w = warps_[wid];
  // Since the last failed attempt for this very instruction, nothing the
  // classify loop reads has changed: fail again without re-probing (the
  // stall accounting stays cycle-accurate).
  if (w.issue_fail_epoch == mem_epoch_ + 1) {
    ++stats_.issue_stall_mshr;
    return false;
  }
  // MSHR-deficit wake: each release lowers (new fetches - free entries)
  // by at most one — the fill frees an entry and may evict one of our
  // hits — while other warps' allocations, stores and LRU touches never
  // lower it.  Fewer releases than the recorded deficit cannot make the
  // load fit, so fail as the classify loop would, memo refresh included.
  if (w.deficit_releases > mshr_.stats().releases) {
    w.issue_fail_epoch = mem_epoch_ + 1;
    ++stats_.issue_stall_mshr;
    return false;
  }
  const WarpInstr& instr = w.next;
  const std::vector<Addr>& lines = w.lines;
  const WarpInstrUid uid = next_uid_;
  const WarpTag tag{id_, wid, uid};

  if (instr.kind == WarpInstr::Kind::kStore) {
    // Write-through, no-allocate: evict any L1 copy, send every line.
    ++mem_epoch_;
    lsu_.queue.clear();
    for (Addr line : lines) {
      l1_.invalidate(line);
      MemRequest req;
      req.addr = line;
      req.kind = ReqKind::kWrite;
      req.tag = tag;
      req.loc = amap_.decode(line);
      req.reqs_in_instr = static_cast<std::uint16_t>(lines.size());
      lsu_.queue.push_back(req);
    }
    lsu_.active = true;
    lsu_.is_store = true;
    lsu_.warp = wid;
    lsu_.next = 0;
    w.waiting_lsu = true;
    masks_.reset(kFree, wid);
    next_uid_ += uid_stride_;
    ++stats_.stores;
    coalescer_.record(WarpInstr::Kind::kStore, lines.size());
    return true;
  }

  // Load: classify every line first so MSHR space for the whole access
  // can be reserved atomically (a half-issued vector load cannot replay).
  // Each miss's MSHR slot is looked up once here and reused at commit
  // (allocation appends, so earlier slots stay put).
  std::uint32_t new_fetches = 0;
  std::uint32_t merges = 0;
  std::uint32_t hits = 0;
  std::array<std::uint32_t, kWarpLanes> slots{};
  LATDIV_ASSERT(lines.size() <= slots.size(), "more lines than lanes");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Addr line = lines[i];
    if (l1_.probe(line)) {
      ++hits;
      continue;
    }
    slots[i] = mshr_.find(line);
    if (slots[i] != MshrFile::kNoSlot) {
      if (!mshr_.can_merge(slots[i])) {
        w.issue_fail_epoch = mem_epoch_ + 1;
        ++stats_.issue_stall_mshr;
        return false;
      }
      ++merges;
    } else {
      ++new_fetches;
    }
  }
  if (new_fetches > mshr_.free_entries()) {
    w.issue_fail_epoch = mem_epoch_ + 1;
    w.deficit_releases =
        mshr_.stats().releases + (new_fetches - mshr_.free_entries());
    ++stats_.issue_stall_mshr;
    return false;
  }

  // Committed: touch hits (LRU + stats), register waiters, queue fetches.
  ++mem_epoch_;
  lsu_.queue.clear();
  std::uint32_t sent_per_channel[256] = {};
  std::uint32_t seen_per_channel[256] = {};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Addr line = lines[i];
    if (l1_.touch(line)) {  // counts the hit or miss and updates LRU
      continue;
    }
    MemRequest req;
    req.addr = line;
    req.kind = ReqKind::kRead;
    req.tag = tag;
    req.loc = amap_.decode(line);
    req.reqs_in_instr = static_cast<std::uint16_t>(lines.size());
    if (slots[i] != MshrFile::kNoSlot) {
      mshr_.merge(slots[i], req);
    } else {
      mshr_.allocate(line, req);
      lsu_.queue.push_back(req);
      ++sent_per_channel[req.loc.channel];
    }
  }
  // Tag the last injected request per memory partition (§IV-B2).
  for (MemRequest& req : lsu_.queue) {
    if (++seen_per_channel[req.loc.channel] ==
        sent_per_channel[req.loc.channel]) {
      req.last_of_group_at_mc = true;
    }
  }

  w.pending_lines = new_fetches + merges;
  if (w.pending_lines == 0) {
    w.ready_at = now + kL1HitLatency;
  } else {
    masks_.reset(kFree, wid);
    tracker_.on_issue(tag, now);
  }
  if (!lsu_.queue.empty()) {
    lsu_.active = true;
    lsu_.is_store = false;
    lsu_.warp = wid;
    lsu_.next = 0;
  }
  next_uid_ += uid_stride_;
  ++stats_.loads;
  coalescer_.record(WarpInstr::Kind::kLoad, lines.size());
  return true;
}

std::size_t Sm::next_candidate(std::size_t from, std::size_t end,
                               bool mem_open) const {
  // A warp's visit has an effect only if it generates the warp's next
  // instruction or can issue: a blocked warp (outstanding load, store in
  // dispatch) or a memory-next warp while the LSU port is closed would
  // fall straight through attempt().
  const std::uint64_t mem_keep = mem_open ? ~std::uint64_t{0} : 0;
  return BitRows::scan_words(from, end, [&](std::size_t w) {
    return masks_.word(kNeedsGen, w) |
           (masks_.word(kFree, w) & (~masks_.word(kMemNext, w) | mem_keep));
  });
}

void Sm::try_issue(Cycle now) {
  // The SM has one LSU issue port: after a memory instruction fails to
  // issue this cycle (MSHR or LSU pressure), further memory candidates
  // are skipped, but compute instructions may still dual-issue the slot.
  bool mem_tried = false;
  auto attempt = [&](WarpId wid) -> bool {
    Warp& w = warps_[wid];
    if (!w.has_next) generate_next(wid);
    if (!issuable(w, now)) return false;
    if (w.next.kind == WarpInstr::Kind::kCompute) {
      w.ready_at = now + static_cast<Cycle>(w.next.latency) *
                             cfg_.core_clock_ratio;
    } else {
      if (mem_tried) return false;
      mem_tried = true;
      if (!issue_memory(wid, now)) return false;
    }
    w.has_next = false;
    masks_.set(kNeedsGen, wid);
    masks_.reset(kMemNext, wid);
    ++stats_.instructions;
    last_issued_ = wid;
    return true;
  };
  // Visit, in scheduler order, only the warps of [from, end) (minus
  // `skip`) whose visit can have an effect.  The candidate set is
  // recomputed after every visit: a failed memory attempt closes the LSU
  // port for the rest of the scan.
  auto scan = [&](std::size_t from, std::size_t end, std::size_t skip) {
    for (std::size_t wid = from;; ++wid) {
      wid = next_candidate(wid, end, !lsu_.active && !mem_tried);
      if (wid == end) return false;
      if (wid != skip && attempt(static_cast<WarpId>(wid))) return true;
    }
  };

  const std::size_t n = warps_.size();
  if (cfg_.warp_sched == WarpSchedPolicy::kGto) {
    // Greedy-then-oldest: stick with the last issuer, else lowest warp id.
    if (attempt(last_issued_) || scan(0, n, last_issued_)) return;
  } else {
    // Loose round-robin: resume scanning after the last issuer, spreading
    // issue slots (and therefore memory divergence) across all warps.
    const std::size_t first = last_issued_ + std::size_t{1};
    if (scan(first, n, n) || scan(0, first, n)) return;
  }
  ++stats_.no_ready_warp_cycles;
}

void Sm::tick(Cycle now) {
  accept_response(now);
  dispatch_lsu(now);
  try_issue(now);
}

}  // namespace latdiv
