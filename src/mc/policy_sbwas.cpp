#include "mc/policy_sbwas.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace latdiv {

namespace {

constexpr auto instr_less = [](const std::pair<WarpInstrUid,
                                               std::uint32_t>& entry,
                                WarpInstrUid instr) {
  return entry.first < instr;
};

}  // namespace

void SbwasPolicy::on_push(MemoryController& mc, const MemRequest& req,
                          Cycle) {
  if (req.kind != ReqKind::kRead) return;
  // One allocation for the policy's lifetime: the table never holds more
  // entries than the read queue.
  remaining_.reserve(mc.read_queue().capacity());
  const auto it = std::lower_bound(remaining_.begin(), remaining_.end(),
                                   req.tag.instr, instr_less);
  if (it != remaining_.end() && it->first == req.tag.instr) {
    ++it->second;
  } else {
    remaining_.insert(it, {req.tag.instr, 1});
  }
}

void SbwasPolicy::on_load(MemoryController& mc) {
  remaining_.clear();
  for (const MemRequest& req : mc.read_queue()) on_push(mc, req, 0);
}

SbwasPolicy::Counts::iterator SbwasPolicy::find_count(WarpInstrUid instr) {
  const auto it = std::lower_bound(remaining_.begin(), remaining_.end(),
                                   instr, instr_less);
  LATDIV_ASSERT(it != remaining_.end() && it->first == instr,
                "SBWAS count missing for a queued read");
  return it;
}

bool SbwasPolicy::try_schedule_write(MemoryController& mc, Cycle now,
                                     bool force) {
  // The oldest row-hit write; with `force`, else the oldest schedulable.
  return send_oldest_hit_first(
      mc, mc.write_queue(),
      [&mc](BankId bank) { return mc.bank_queue_has_space(bank); }, force,
      now);
}

void SbwasPolicy::schedule_reads(MemoryController& mc, Cycle now) {
  if (idle_.holds(mc)) return;
  // Interleaved-write model: under write pressure, or with no read
  // queued, a write goes first; otherwise writes only piggyback as row
  // hits when no read candidate exists (handled at the end).
  auto& rq = mc.read_queue();
  if ((rq.empty() || mc.write_queue().size() >= cfg_.write_pressure) &&
      try_schedule_write(mc, now, /*force=*/true)) {
    return;
  }
  if (rq.empty()) {
    idle_.arm(mc);
    return;
  }

  // Candidate (a): oldest schedulable row-hit.
  // Candidate (b): schedulable request from the warp with the fewest
  // requests remaining in this controller (oldest among ties).
  auto hit = rq.end();
  auto shortest = rq.end();
  std::uint32_t shortest_remaining = 0;
  for (auto it = rq.begin(); it != rq.end(); ++it) {
    const BankId bank = it->loc.bank;
    if (mc.bank_queue_size(bank) >= 2) continue;  // decide near issue time
    if (hit == rq.end() && mc.predicted_row(bank) == it->loc.row) hit = it;
    const std::uint32_t rem = find_count(it->tag.instr)->second;
    if (shortest == rq.end() || rem < shortest_remaining) {
      shortest = it;
      shortest_remaining = rem;
    }
  }
  if (shortest == rq.end()) {
    // Nothing schedulable (all target banks full); let writes use the slot.
    if (!try_schedule_write(mc, now, /*force=*/false)) idle_.arm(mc);
    return;
  }

  auto pick = shortest;
  if (hit != rq.end()) {
    const double pot_hit = 1.0 - cfg_.alpha;
    const double pot_short =
        cfg_.alpha / static_cast<double>(shortest_remaining);
    if (pot_hit >= pot_short) pick = hit;
  }
  const auto count = find_count(pick->tag.instr);
  if (--count->second == 0) remaining_.erase(count);
  MemRequest req = *pick;
  rq.erase(pick);
  mc.send_to_bank(req, now);
}

}  // namespace latdiv
