#include "gpu/sm.hpp"

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
      l1_(cfg.l1),
      mshr_(cfg.l1_mshr),
      coalescer_(cfg.l1.line_bytes, cfg.perfect_coalescing),
      warps_(cfg.warps),
      next_uid_(uid_base),
      uid_stride_(uid_stride) {
  LATDIV_ASSERT(cfg.warps > 0, "SM needs warps");
  LATDIV_ASSERT(uid_stride > 0, "uid stride must be positive");
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
      w.ready_at = now + cfg_.fill_ready_delay;
      tracker_.finalize(waiter.tag.instr, now);
    }
  }
}

void Sm::dispatch_lsu(Cycle now) {
  if (!lsu_.active) return;
  for (std::uint32_t i = 0; i < cfg_.lsu_width; ++i) {
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
  if (w.next.kind != WarpInstr::Kind::kCompute) {
    coalescer_.coalesce(w.next, w.lines);
  }
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
    next_uid_ += uid_stride_;
    ++stats_.stores;
    coalescer_.record(WarpInstr::Kind::kStore, lines.size());
    return true;
  }

  // Load: classify every line first so MSHR space for the whole access
  // can be reserved atomically (a half-issued vector load cannot replay).
  std::uint32_t new_fetches = 0;
  std::uint32_t merges = 0;
  std::uint32_t hits = 0;
  for (Addr line : lines) {
    if (l1_.probe(line)) {
      ++hits;
    } else if (mshr_.tracking(line)) {
      if (!mshr_.can_accept(line)) {
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
    ++stats_.issue_stall_mshr;
    return false;
  }

  // Committed: touch hits (LRU + stats), register waiters, queue fetches.
  ++mem_epoch_;
  lsu_.queue.clear();
  std::uint32_t sent_per_channel[256] = {};
  std::uint32_t seen_per_channel[256] = {};
  for (Addr line : lines) {
    if (l1_.touch(line)) {  // counts the hit or miss and updates LRU
      continue;
    }
    MemRequest req;
    req.addr = line;
    req.kind = ReqKind::kRead;
    req.tag = tag;
    req.loc = amap_.decode(line);
    req.reqs_in_instr = static_cast<std::uint16_t>(lines.size());
    const bool fresh = mshr_.add(line, req);
    if (fresh) {
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
    w.ready_at = now + cfg_.l1_hit_latency;
  } else {
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
    ++stats_.instructions;
    last_issued_ = wid;
    return true;
  };

  if (cfg_.warp_sched == WarpSchedPolicy::kGto) {
    // Greedy-then-oldest: stick with the last issuer, else lowest warp id.
    if (attempt(last_issued_)) return;
    for (WarpId wid = 0; wid < warps_.size(); ++wid) {
      if (wid != last_issued_ && attempt(wid)) return;
    }
  } else {
    // Loose round-robin: resume scanning after the last issuer, spreading
    // issue slots (and therefore memory divergence) across all warps.
    const auto n = static_cast<WarpId>(warps_.size());
    for (WarpId off = 1; off <= n; ++off) {
      const auto wid = static_cast<WarpId>((last_issued_ + off) % n);
      if (attempt(wid)) return;
    }
  }
  ++stats_.no_ready_warp_cycles;
}

void Sm::tick(Cycle now) {
  accept_response(now);
  dispatch_lsu(now);
  try_issue(now);
}

}  // namespace latdiv
