#include "gpu/partition.hpp"

#include "common/log.hpp"

namespace latdiv {

Partition::Partition(ChannelId id, const McConfig& mc_cfg,
                     const DramTiming& timing,
                     std::unique_ptr<TransactionScheduler> policy,
                     const AddressMap& amap, Crossbar& xbar,
                     InstrTracker& tracker, obs::ObsHub* obs)
    : id_(id),
      l2_(kL2),
      mshr_(kL2Mshr),
      amap_(amap),
      xbar_(xbar),
      tracker_(tracker),
      pipeline_(2 * kL2Latency),
      fills_(kL2Mshr.entries) {
  mc_ = std::make_unique<MemoryController>(
      id, mc_cfg, timing, std::move(policy),
      [this](const MemRequest& req, Cycle) {
        tracker_.on_dram_complete(req.tag.instr, req.completed);
        fills_.push(req);
      },
      obs);
}

void Partition::process_fills(Cycle now) {
  while (!fills_.empty()) {
    const MemRequest& fill = fills_.front();
    // Installing the line may evict a dirty victim; that writeback needs
    // write-queue space before we commit the fill.
    if (!mc_->can_accept_write()) {
      ++stats_.stall_cycles;
      return;
    }
    if (auto victim = l2_.fill(fill.addr, /*dirty=*/false)) {
      MemRequest wb;
      wb.addr = *victim;
      wb.kind = ReqKind::kWrite;
      wb.loc = amap_.decode(*victim);
      LATDIV_ASSERT(wb.loc.channel == id_, "writeback crossed partitions");
      mc_->push(wb, now);
      ++stats_.writebacks;
    }
    for (const MemRequest& waiter : mshr_.release(fill.addr)) {
      responses_.push_back(MemResponse{waiter.addr, waiter.tag, now,
                                       waiter.reqs_in_instr});
    }
    fills_.pop();
  }
}

bool Partition::handle(const MemRequest& req, Cycle now) {
  if (req.kind == ReqKind::kRead) {
    if (l2_.touch(req.addr)) {
      ++stats_.read_hits;
      responses_.push_back(
          MemResponse{req.addr, req.tag, now, req.reqs_in_instr});
    } else if (const std::uint32_t slot = mshr_.find(req.addr);
               slot != MshrFile::kNoSlot) {
      if (!mshr_.can_merge(slot)) {
        mshr_.count_stall();
        return false;
      }
      mshr_.merge(slot, req);  // merge into the outstanding fetch
      ++stats_.mshr_merges;
      ++stats_.read_misses;
    } else {
      if (mshr_.full()) {
        mshr_.count_stall();
        return false;
      }
      if (!mc_->can_accept_read()) return false;
      mshr_.allocate(req.addr, req);
      ++stats_.read_misses;
      tracker_.on_dram_request(req.tag.instr, req.loc);
      mc_->push(req, now);
    }
    // The warp-group tag must reach the controller whether or not the
    // tagged request itself needed DRAM.
    if (req.last_of_group_at_mc) mc_->notify_group_complete(req.tag, now);
    return true;
  }

  // Store: write-back write-allocate L2; coalesced stores write whole
  // lines, so a miss installs the line dirty without a fill read.
  if (l2_.probe(req.addr)) {
    l2_.touch(req.addr);  // recency update
    l2_.mark_dirty(req.addr);
    ++stats_.write_hits;
    return true;
  }
  if (!mc_->can_accept_write()) return false;  // eviction might need space
  ++stats_.write_misses;
  if (auto victim = l2_.fill(req.addr, /*dirty=*/true)) {
    MemRequest wb;
    wb.addr = *victim;
    wb.kind = ReqKind::kWrite;
    wb.loc = amap_.decode(*victim);
    mc_->push(wb, now);
    ++stats_.writebacks;
  }
  return true;
}

void Partition::process_requests(Cycle now) {
  // Accept new arrivals into the L2 pipeline.
  for (std::uint32_t n = 0; n < kL2LookupsPerCycle; ++n) {
    if (pipeline_.full()) break;  // pipeline depth
    const MemRequest* head = xbar_.peek_request(id_, now);
    if (head == nullptr) break;
    pipeline_.push(Delayed{now + kL2Latency, xbar_.pop_request(id_, now)});
  }
  // Retire lookups whose latency elapsed.
  for (std::uint32_t n = 0; n < kL2LookupsPerCycle; ++n) {
    if (pipeline_.empty() || pipeline_.front().ready_at > now) break;
    if (!handle(pipeline_.front().req, now)) {
      ++stats_.stall_cycles;
      break;  // head retries next cycle; order is preserved
    }
    pipeline_.pop();
  }
}

void Partition::drain_responses(Cycle now) {
  while (!responses_.empty() && xbar_.can_inject_response(id_)) {
    xbar_.inject_response(id_, responses_.front(), now);
    responses_.pop_front();
  }
}

void Partition::tick_core(Cycle now) {
  process_fills(now);
  process_requests(now);
  drain_responses(now);
}

}  // namespace latdiv
