// Full-simulator snapshot serialization (see snapshot.hpp for the file
// format and the determinism contract).
//
// All component ckpt_io member-template definitions live in this single
// translation unit: each is declared in its component's header (so private
// members stay reachable) and defined here, next to the framing and the
// helpers, so the field walk for every class can be reviewed in one place.
// The explicit instantiations of Simulator::ckpt_io at the bottom pull in
// every component instantiation this file defines.

#include "ckpt/snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "cache/mshr.hpp"
#include "check/invariant_checker.hpp"
#include "check/protocol_checker.hpp"
#include "ckpt/archive.hpp"
#include "common/crc32.hpp"
#include "common/endian.hpp"
#include "core/coordination.hpp"
#include "core/ideal.hpp"
#include "core/policy_wg.hpp"
#include "dram/channel.hpp"
#include "gpu/coalescer.hpp"
#include "gpu/partition.hpp"
#include "gpu/sm.hpp"
#include "gpu/tracker.hpp"
#include "icnt/crossbar.hpp"
#include "mc/controller.hpp"
#include "obs/hub.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "sim/config.hpp"
#include "sim/simulator.hpp"
#include "workload/instr.hpp"

namespace latdiv {
namespace {

// --- field helpers ---------------------------------------------------
// All take mutating references like the archive primitives, so one call
// site serves both directions; `if constexpr (Ar::kIsWriter)` branches
// the rare asymmetric step.

template <class Ar, class E>
void io_enum8(Ar& ar, E& e) {
  std::uint8_t v = static_cast<std::uint8_t>(e);
  ar.u8(v);
  if constexpr (!Ar::kIsWriter) e = static_cast<E>(v);
}

template <class Ar>
void io_size(Ar& ar, std::size_t& v) {
  std::uint64_t wide = v;
  ar.u64(wide);
  if constexpr (!Ar::kIsWriter) v = static_cast<std::size_t>(wide);
}

/// Serialize a count that load may not change: geometry fixed at
/// construction (bank arrays, warp arrays, cache lines).  A mismatch
/// means the snapshot disagrees with the constructed simulator in a way
/// the config fingerprint failed to capture.
template <class Ar>
void io_check_count(Ar& ar, std::size_t expect, const char* what) {
  std::uint64_t n = expect;
  ar.u64(n);
  if (n != expect) {
    throw ckpt::CkptError(std::string("snapshot geometry mismatch: ") + what);
  }
}

/// Resizable sequence (vector / deque): count, then one callback per
/// element.  Load resizes in place.
template <class Ar, class Seq, class Fn>
void io_seq(Ar& ar, Seq& seq, Fn&& fn) {
  std::uint64_t n = seq.size();
  ar.u64(n);
  if constexpr (!Ar::kIsWriter) seq.resize(static_cast<std::size_t>(n));
  for (auto& item : seq) fn(item);
}

template <class Ar>
void io_tag(Ar& ar, WarpTag& tag) {
  ar.u16(tag.sm);
  ar.u16(tag.warp);
  ar.u64(tag.instr);
}

template <class Ar>
void io_loc(Ar& ar, DramLoc& loc) {
  ar.u8(loc.channel);
  ar.u8(loc.bank);
  ar.u8(loc.bank_group);
  ar.u32(loc.row);
  ar.u32(loc.col);
}

template <class Ar>
void io_req(Ar& ar, MemRequest& req) {
  ar.u64(req.addr);
  io_enum8(ar, req.kind);
  io_tag(ar, req.tag);
  io_loc(ar, req.loc);
  ar.u16(req.reqs_in_instr);
  ar.b(req.last_of_group_at_mc);
  io_enum8(ar, req.row_outcome);
  ar.u64(req.issued_by_sm);
  ar.u64(req.arrived_at_mc);
  ar.u64(req.cas_issued);
  ar.u64(req.completed);
}

template <class Ar>
void io_resp(Ar& ar, MemResponse& resp) {
  ar.u64(resp.addr);
  io_tag(ar, resp.tag);
  ar.u64(resp.completed);
  ar.u16(resp.reqs_in_instr);
}

template <class Ar>
void io_instr(Ar& ar, WarpInstr& instr) {
  io_enum8(ar, instr.kind);
  ar.u32(instr.latency);
  ar.u8(instr.active_lanes);
  if constexpr (!Ar::kIsWriter) {
    if (instr.active_lanes > kWarpLanes) {
      throw ckpt::CkptError(
          "snapshot corrupt: warp instruction lane count out of range");
    }
    instr.lane_addr.fill(0);
  }
  for (std::uint8_t i = 0; i < instr.active_lanes; ++i) {
    ar.u64(instr.lane_addr[i]);
  }
}

template <class Ar>
void io_coordmsg(Ar& ar, CoordMsg& msg) {
  ar.u8(msg.source);
  io_tag(ar, msg.tag);
  ar.u32(msg.score);
}

template <class Ar>
void io_dram_cmd(Ar& ar, DramCommand& cmd) {
  io_enum8(ar, cmd.cmd);
  ar.u8(cmd.bank);
  ar.u32(cmd.row);
}

/// BoundedQueue<MemRequest, ...> through its public pop/push interface
/// (capacities are construction-time geometry, so load only refills).
template <class Ar, class Q>
void io_request_queue(Ar& ar, Q& q, const char* what) {
  if constexpr (Ar::kIsWriter) {
    std::uint64_t n = q.size();
    ar.u64(n);
    for (auto& req : q) io_req(ar, req);
  } else {
    while (!q.empty()) (void)q.pop();
    std::uint64_t n = 0;
    ar.u64(n);
    if (n > q.capacity()) {
      throw ckpt::CkptError(std::string("snapshot geometry mismatch: ") +
                            what);
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      MemRequest req;
      io_req(ar, req);
      q.push(std::move(req));
    }
  }
}

/// std::priority_queue exposes no container access; the standard-blessed
/// workaround reaches the protected member through a derived class.  The
/// heap vector is serialized verbatim — both sides build it through the
/// same push sequence, so the layout is deterministic.
template <class PQ>
struct HeapAccess : PQ {
  static typename PQ::container_type& container(PQ& q) {
    return q.*(&HeapAccess::c);
  }
};

template <class Ar>
void io_wg_meta(Ar& ar, WgGroupMeta& meta) {
  io_tag(ar, meta.tag);
  ar.u64(meta.first_arrival);
  ar.u32(meta.seen);
  ar.u32(meta.pushed);
  ar.u32(meta.coord_bonus);
  ar.b(meta.complete);
  io_seq(ar, meta.slots, [&ar](WgGroupMeta::BankSlot& slot) {
    ar.u8(slot.bank);
    io_seq(ar, slot.items, [&ar](WgGroupMeta::QueuedReq& qr) {
      ar.u64(qr.seq);
      ar.u64(qr.arrival);
      ar.u32(qr.row);
    });
    ar.u64(slot.score_epoch);
  });
  ar.u64(meta.version);
  ar.b(meta.in_active);
  ar.u64(meta.score_version);
  ar.u32(meta.score_completion);
  ar.u32(meta.score_row_hits);
}

}  // namespace

// --- cache ------------------------------------------------------------

template <class Ar>
void Cache::ckpt_io(Ar& ar) {
  ar.u64(use_clock_);
  io_check_count(ar, lines_.size(), "cache line count");
  for (auto& line : lines_) {
    ar.u64(line.tag);
    ar.b(line.valid);
    ar.b(line.dirty);
    ar.u64(line.last_use);
  }
  ar.u64(stats_.hits);
  ar.u64(stats_.misses);
  ar.u64(stats_.evictions);
  ar.u64(stats_.dirty_evictions);
}

template <class Ar>
void MshrFile::ckpt_io(Ar& ar) {
  // entries_ is a std::map: iteration is address-ordered on both sides,
  // so it round-trips without a sort step.
  if constexpr (Ar::kIsWriter) {
    std::uint64_t n = entries_.size();
    ar.u64(n);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      ar.u64(it->first);
      io_seq(ar, it->second, [&ar](MemRequest& req) { io_req(ar, req); });
    }
  } else {
    entries_.clear();
    std::uint64_t n = 0;
    ar.u64(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      Addr line = 0;
      ar.u64(line);
      io_seq(ar, entries_[line], [&ar](MemRequest& req) { io_req(ar, req); });
    }
  }
  ar.u64(stats_.allocations);
  ar.u64(stats_.merges);
  ar.u64(stats_.releases);
  ar.u64(stats_.stalls_full);
}

// --- GPU core ---------------------------------------------------------

template <class Ar>
void Coalescer::ckpt_io(Ar& ar) {
  ar.u64(stats_.loads);
  ar.u64(stats_.divergent_loads);
  ar.u64(stats_.load_requests);
  ar.u64(stats_.stores);
  ar.u64(stats_.store_requests);
}

template <class Ar>
void Sm::ckpt_io(Ar& ar) {
  l1_.ckpt_io(ar);
  mshr_.ckpt_io(ar);
  coalescer_.ckpt_io(ar);
  io_check_count(ar, warps_.size(), "warp count");
  for (auto& w : warps_) {
    ar.u64(w.ready_at);
    ar.u32(w.pending_lines);
    ar.b(w.waiting_lsu);
    ar.b(w.has_next);
    io_instr(ar, w.next);
    ar.u64(w.issue_fail_epoch);
    io_seq(ar, w.lines, [&ar](Addr& line) { ar.u64(line); });
  }
  ar.b(lsu_.active);
  ar.b(lsu_.is_store);
  ar.u16(lsu_.warp);
  io_seq(ar, lsu_.queue, [&ar](MemRequest& req) { io_req(ar, req); });
  io_size(ar, lsu_.next);
  ar.u64(mem_epoch_);
  ar.u64(idle_until_);
  ar.u16(last_issued_);
  ar.u64(next_uid_);
  ar.u64(stats_.instructions);
  ar.u64(stats_.loads);
  ar.u64(stats_.stores);
  ar.u64(stats_.issue_stall_mshr);
  ar.u64(stats_.no_ready_warp_cycles);
}

template <class Ar>
void InstrTracker::ckpt_io(Ar& ar) {
  if constexpr (Ar::kIsWriter) {
    // Collect-then-sort: records_ is unordered, the byte stream must not
    // be (classic iterator loop; the sorted key walk below is the only
    // iteration order the archive sees).
    std::vector<WarpInstrUid> keys;
    keys.reserve(records_.size());
    for (auto it = records_.begin(); it != records_.end(); ++it) {
      keys.push_back(it->first);
    }
    std::sort(keys.begin(), keys.end());
    std::uint64_t n = keys.size();
    ar.u64(n);
    for (WarpInstrUid uid : keys) {
      ar.u64(uid);
      Record& rec = records_.at(uid);
      ar.u64(rec.issued);
      ar.u64(rec.first_done);
      ar.u64(rec.last_done);
      ar.u16(rec.sm);
      ar.u16(rec.warp);
      io_seq(ar, rec.locs, [&ar](DramLoc& loc) { io_loc(ar, loc); });
    }
  } else {
    records_.clear();
    std::uint64_t n = 0;
    ar.u64(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      WarpInstrUid uid = 0;
      ar.u64(uid);
      Record& rec = records_[uid];
      ar.u64(rec.issued);
      ar.u64(rec.first_done);
      ar.u64(rec.last_done);
      ar.u16(rec.sm);
      ar.u16(rec.warp);
      io_seq(ar, rec.locs, [&ar](DramLoc& loc) { io_loc(ar, loc); });
    }
  }
  ar.u64(summary_.loads_finalized);
  ar.u64(summary_.loads_touching_dram);
  summary_.dram_reqs_per_load.ckpt_io(ar);
  summary_.channels_per_load.ckpt_io(ar);
  summary_.banks_per_load.ckpt_io(ar);
  summary_.same_row_frac.ckpt_io(ar);
  summary_.first_req_latency.ckpt_io(ar);
  summary_.last_req_latency.ckpt_io(ar);
  summary_.last_to_first_ratio.ckpt_io(ar);
  summary_.divergence_gap.ckpt_io(ar);
}

// --- interconnect -----------------------------------------------------

template <class Ar>
void Crossbar::ckpt_io(Ar& ar) {
  io_check_count(ar, sm_queues_.size(), "crossbar SM count");
  for (auto& q : sm_queues_) {
    io_seq(ar, q, [&ar](MemRequest& req) { io_req(ar, req); });
  }
  io_check_count(ar, part_in_.size(), "crossbar partition count");
  for (auto& q : part_in_) {
    io_seq(ar, q, [&ar](Timed<MemRequest>& t) {
      ar.u64(t.ready_at);
      io_req(ar, t.payload);
    });
  }
  for (auto& q : part_out_) {
    io_seq(ar, q, [&ar](MemResponse& resp) { io_resp(ar, resp); });
  }
  for (auto& q : sm_in_) {
    io_seq(ar, q, [&ar](Timed<MemResponse>& t) {
      ar.u64(t.ready_at);
      io_resp(ar, t.payload);
    });
  }
  for (auto& rr : part_rr_) ar.u32(rr);
  for (auto& rr : part_sticky_) ar.u32(rr);
  for (auto& rr : sm_rr_) ar.u32(rr);
  ar.u64(stats_.requests_moved);
  ar.u64(stats_.responses_moved);
  ar.u64(stats_.inject_stalls);
}

template <class Ar>
void CoordinationNetwork::ckpt_io(Ar& ar) {
  io_seq(ar, in_flight_, [&ar](Pending& p) {
    ar.u64(p.due);
    io_coordmsg(ar, p.msg);
  });
  ar.u64(sent_);
}

// --- DRAM channel -----------------------------------------------------

template <class Ar>
void Channel::ckpt_io(Ar& ar) {
  io_check_count(ar, bank_row_.size(), "DRAM bank count");
  for (auto& row : bank_row_) ar.u32(row);
  for (auto& at : bank_earliest_act_) ar.u64(at);
  for (auto& at : bank_earliest_cas_) ar.u64(at);
  for (auto& at : bank_earliest_pre_) ar.u64(at);
  ar.u64(last_act_);
  for (auto& at : act_window_) ar.u64(at);
  io_size(ar, act_window_pos_);
  ar.u64(last_rd_cmd_);
  ar.u64(last_wr_cmd_);
  ar.u8(last_rd_group_);
  ar.u8(last_wr_group_);
  ar.u64(last_cmd_cycle_);
  ar.u64(data_bus_free_at_);
  ar.u64(next_refresh_at_);
  ar.u64(stats_.activates);
  ar.u64(stats_.precharges);
  ar.u64(stats_.reads);
  ar.u64(stats_.writes);
  ar.u64(stats_.refreshes);
  ar.u64(stats_.data_bus_busy_cycles);
  ar.u64(stats_.all_banks_idle_cycles);
  for (auto& n : stats_.per_bank_activates) ar.u64(n);
  for (auto& n : stats_.per_bank_precharges) ar.u64(n);
}

// --- memory controller ------------------------------------------------

template <class Ar>
void MemoryController::ckpt_io(Ar& ar) {
  io_size(ar, wq_at_drain_start_);
  ar.u64(writes_arrived_in_drain_);
  io_request_queue(ar, read_q_, "read queue exceeds its capacity");
  io_request_queue(ar, write_q_, "write queue exceeds its capacity");
  io_check_count(ar, bank_q_.size(), "controller bank count");
  for (auto& q : bank_q_) {
    io_seq(ar, q, [&ar](MemRequest& req) { io_req(ar, req); });
  }
  for (auto& row : bank_tail_row_) ar.u32(row);
  for (auto& streak : bank_tail_streak_) ar.u32(streak);
  io_size(ar, cmdq_total_);
  ar.u32(nonempty_banks_);
  for (auto& epoch : bank_epoch_) ar.u64(epoch);
  ar.u64(mutation_epoch_);
  ar.b(write_mode_);
  ar.b(opportunistic_mode_);
  ar.u32(rr_group_);
  for (auto& rr : rr_bank_in_group_) ar.u32(rr);
  auto& heap =
      HeapAccess<std::priority_queue<Inflight>>::container(inflight_reads_);
  io_seq(ar, heap, [&ar](Inflight& f) {
    ar.u64(f.done);
    io_req(ar, f.req);
  });
  io_seq(ar, outbox_, [&ar](CoordMsg& msg) { io_coordmsg(ar, msg); });
  ar.u64(stats_.reads_accepted);
  ar.u64(stats_.writes_accepted);
  ar.u64(stats_.reads_served);
  ar.u64(stats_.writes_served);
  ar.u64(stats_.drains_started);
  stats_.read_queueing_cycles.ckpt_io(ar);
  stats_.read_service_cycles.ckpt_io(ar);
  ar.u64(stats_.drain_stalled_groups);
  ar.u64(stats_.drain_stalled_small_groups);
  for (auto& n : stats_.bank_row_hits) ar.u64(n);
  for (auto& n : stats_.bank_row_misses) ar.u64(n);
  for (auto& n : stats_.bank_row_conflicts) ar.u64(n);
  channel_.ckpt_io(ar);
  if constexpr (Ar::kIsWriter) {
    policy_->ckpt_save(ar);
  } else {
    policy_->ckpt_load(ar);
  }
}

// --- memory partition -------------------------------------------------

template <class Ar>
void Partition::ckpt_io(Ar& ar) {
  l2_.ckpt_io(ar);
  mshr_.ckpt_io(ar);
  io_seq(ar, pipeline_, [&ar](Delayed& d) {
    ar.u64(d.ready_at);
    io_req(ar, d.req);
  });
  io_seq(ar, fills_, [&ar](MemRequest& req) { io_req(ar, req); });
  io_seq(ar, responses_, [&ar](MemResponse& resp) { io_resp(ar, resp); });
  ar.u64(stats_.read_hits);
  ar.u64(stats_.read_misses);
  ar.u64(stats_.write_hits);
  ar.u64(stats_.write_misses);
  ar.u64(stats_.writebacks);
  ar.u64(stats_.mshr_merges);
  ar.u64(stats_.stall_cycles);
  mc_->ckpt_io(ar);
}

// --- scheduling policies ----------------------------------------------

template <class Ar>
void ZldCoordinator::ckpt_io(Ar& ar) {
  if constexpr (Ar::kIsWriter) {
    std::vector<WarpInstrUid> keys(started_.begin(), started_.end());
    std::sort(keys.begin(), keys.end());
    io_seq(ar, keys, [&ar](WarpInstrUid& uid) { ar.u64(uid); });
  } else {
    started_.clear();
    std::uint64_t n = 0;
    ar.u64(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      WarpInstrUid uid = 0;
      ar.u64(uid);
      started_.insert(uid);
    }
  }
}

template <class Ar>
void WgPolicy::ckpt_io(Ar& ar) {
  if constexpr (Ar::kIsWriter) {
    // Collect-then-sort (classic iterator loop over the unordered map;
    // the archive only sees the sorted walk).
    std::vector<WarpInstrUid> keys;
    keys.reserve(groups_.size());
    for (auto it = groups_.begin(); it != groups_.end(); ++it) {
      keys.push_back(it->first);
    }
    std::sort(keys.begin(), keys.end());
    std::uint64_t n = keys.size();
    ar.u64(n);
    for (WarpInstrUid uid : keys) {
      ar.u64(uid);
      io_wg_meta(ar, groups_.at(uid));
    }
  } else {
    groups_.clear();
    std::uint64_t n = 0;
    ar.u64(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      WarpInstrUid uid = 0;
      ar.u64(uid);
      io_wg_meta(ar, groups_[uid]);
    }
  }
  if constexpr (Ar::kIsWriter) {
    bool has = current_.has_value();
    ar.b(has);
    if (has) ar.u64(*current_);
  } else {
    bool has = false;
    ar.b(has);
    if (has) {
      WarpInstrUid uid = 0;
      ar.u64(uid);
      current_ = uid;
    } else {
      current_.reset();
    }
  }
  // active_ travels as a uid list in vector order; the meta pointers are
  // rebuilt against the freshly loaded group table.
  if constexpr (Ar::kIsWriter) {
    std::uint64_t n = active_.size();
    ar.u64(n);
    for (auto& entry : active_) ar.u64(entry.first);
  } else {
    active_.clear();
    std::uint64_t n = 0;
    ar.u64(n);
    active_.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      WarpInstrUid uid = 0;
      ar.u64(uid);
      auto it = groups_.find(uid);
      if (it == groups_.end()) {
        throw ckpt::CkptError(
            "snapshot corrupt: active warp-group not in the group table");
      }
      active_.emplace_back(uid, &it->second);
    }
  }
  ar.u64(next_seq_);
  ar.u64(skip_epoch_);
  ar.u64(skip_until_);
  io_seq(ar, bqs_cache_, [&ar](std::pair<std::uint64_t, std::uint32_t>& e) {
    ar.u64(e.first);
    ar.u32(e.second);
  });
  // row_counts_ / census_ (WG-Bw / shared-boost indexes): sorted-key walk
  // like groups_ above.
  if constexpr (Ar::kIsWriter) {
    std::vector<std::uint64_t> keys;
    keys.reserve(row_counts_.size());
    for (auto it = row_counts_.begin(); it != row_counts_.end(); ++it) {
      keys.push_back(it->first);
    }
    std::sort(keys.begin(), keys.end());
    std::uint64_t n = keys.size();
    ar.u64(n);
    for (std::uint64_t key : keys) {
      ar.u64(key);
      ar.u32(row_counts_.at(key));
    }
  } else {
    row_counts_.clear();
    std::uint64_t n = 0;
    ar.u64(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint64_t key = 0;
      ar.u64(key);
      ar.u32(row_counts_[key]);
    }
  }
  if constexpr (Ar::kIsWriter) {
    std::vector<std::uint32_t> keys;
    keys.reserve(census_.size());
    for (auto it = census_.begin(); it != census_.end(); ++it) {
      keys.push_back(it->first);
    }
    std::sort(keys.begin(), keys.end());
    std::uint64_t n = keys.size();
    ar.u64(n);
    for (std::uint32_t key : keys) {
      ar.u32(key);
      io_seq(ar, census_.at(key),
             [&ar](std::pair<WarpInstrUid, std::uint32_t>& e) {
               ar.u64(e.first);
               ar.u32(e.second);
             });
    }
  } else {
    census_.clear();
    std::uint64_t n = 0;
    ar.u64(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint32_t key = 0;
      ar.u32(key);
      io_seq(ar, census_[key],
             [&ar](std::pair<WarpInstrUid, std::uint32_t>& e) {
               ar.u64(e.first);
               ar.u32(e.second);
             });
    }
  }
  io_seq(ar, recent_msgs_, [&ar](RecentMsg& m) {
    ar.u64(m.instr);
    ar.u32(m.score);
    ar.u64(m.at);
  });
  ar.u64(stats_.groups_completed);
  ar.u64(stats_.groups_selected);
  ar.u64(stats_.fallback_selections);
  ar.u64(stats_.merb_deferrals);
  ar.u64(stats_.orphan_topups);
  ar.u64(stats_.coord_msgs_applied);
  ar.u64(stats_.writeaware_selections);
  ar.u64(stats_.shared_boosts);
  stats_.group_size.ckpt_io(ar);
}

void WgPolicy::ckpt_save(ckpt::CkptWriter& ar) const {
  // ckpt_io mutates nothing with a writer archive; the shared body needs
  // a non-const *this only for the reader direction.
  const_cast<WgPolicy*>(this)->ckpt_io(ar);
}

void WgPolicy::ckpt_load(ckpt::CkptReader& ar) { ckpt_io(ar); }

// --- checkers ---------------------------------------------------------

template <class Ar>
void ProtocolChecker::ckpt_io(Ar& ar) {
  io_check_count(ar, banks_.size(), "checker bank count");
  for (auto& sb : banks_) {
    ar.u32(sb.row);
    ar.u64(sb.last_act);
    ar.u64(sb.last_pre);
    ar.u64(sb.last_rd);
    ar.u64(sb.last_wr);
  }
  io_seq(ar, recent_acts_, [&ar](Cycle& at) { ar.u64(at); });
  ar.u64(last_rd_any_);
  ar.u64(last_wr_any_);
  ar.u8(last_rd_group_);
  ar.u8(last_wr_group_);
  ar.u64(last_ref_);
  ar.u64(last_cmd_);
  ar.u64(data_busy_until_);
  ar.u64(refresh_due_);
  ar.b(overdue_reported_);
  io_seq(ar, history_, [&ar](std::pair<Cycle, DramCommand>& h) {
    ar.u64(h.first);
    io_dram_cmd(ar, h.second);
  });
  ar.u64(commands_checked_);
  io_seq(ar, violations_, [&ar](ProtocolViolation& v) {
    ar.u64(v.cycle);
    io_dram_cmd(ar, v.cmd);
    ar.str(v.rule);
    ar.str(v.detail);
  });
}

template <class Ar>
void InvariantChecker::ckpt_io(Ar& ar) {
  ar.u64(audits_run_);
  io_seq(ar, violations_, [&ar](InvariantViolation& v) {
    ar.u64(v.cycle);
    ar.str(v.invariant);
    ar.str(v.detail);
  });
}

}  // namespace latdiv

// --- observability ----------------------------------------------------

namespace latdiv::obs {

template <class Ar>
void Counter::ckpt_io(Ar& ar) {
  ar.u64(value_);
}

template <class Ar>
void Gauge::ckpt_io(Ar& ar) {
  ar.u64(value_);
}

template <class Ar>
void Log2Histogram::ckpt_io(Ar& ar) {
  for (auto& count : counts_) ar.u64(count);
  ar.u64(total_);
  ar.u64(sum_);
  ar.u64(min_);
  ar.u64(max_);
}

template <class Ar>
void MetricRegistry::ckpt_io(Ar& ar) {
  // Saved in creation order; loading find-or-creates by name, so
  // instruments registered by the hub's constructor keep their hot-path
  // pointers and export order is reproduced exactly.
  if constexpr (Ar::kIsWriter) {
    std::uint64_t n = counters_.size();
    ar.u64(n);
    for (auto& named : counters_) {
      ar.str(named.name);
      named.instrument->ckpt_io(ar);
    }
    n = gauges_.size();
    ar.u64(n);
    for (auto& named : gauges_) {
      ar.str(named.name);
      named.instrument->ckpt_io(ar);
    }
    n = histograms_.size();
    ar.u64(n);
    for (auto& named : histograms_) {
      ar.str(named.name);
      named.instrument->ckpt_io(ar);
    }
  } else {
    std::uint64_t n = 0;
    ar.u64(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      std::string name;
      ar.str(name);
      counter(name).ckpt_io(ar);
    }
    ar.u64(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      std::string name;
      ar.str(name);
      gauge(name).ckpt_io(ar);
    }
    ar.u64(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      std::string name;
      ar.str(name);
      histogram(name).ckpt_io(ar);
    }
  }
}

template <class Ar>
void ChromeTraceSink::ckpt_io(Ar& ar) {
  ar.str(out_);
  ar.u64(events_);
  ar.b(finished_);
}

template <class Ar>
void AttributionProfiler::ckpt_io(Ar& ar) {
  // Registry instruments (hists/counters) ride in the hub's
  // MetricRegistry section; this serializes only the join state.
  io_seq(ar, drains_, [&ar](DrainWin& w) {
    ar.u64(w.cum);
    ar.u64(w.open);
  });
  const auto io_state = [&ar](ReqState& st) {
    ar.u64(st.t0);
    ar.u64(st.t1);
    ar.u64(st.t2);
    ar.u64(st.t3);
    ar.u64(st.drain_at_t1);
    ar.u64(st.drain_at_t2);
    io_enum8(ar, st.outcome);
  };
  const auto io_acc = [&ar](Acc& a) {
    ar.u32(a.n);
    ar.b(a.poisoned);
    ar.u64(a.sum_t0);
    ar.u64(a.sum_xbar);
    ar.u64(a.sum_queue);
    ar.u64(a.sum_drain);
    ar.u64(a.sum_bus);
    for (auto& b : a.sum_bank) ar.u64(b);
    ar.u64(a.sl_completed);
    ar.u64(a.sl_t0);
    ar.u64(a.sl_xbar);
    ar.u64(a.sl_queue);
    ar.u64(a.sl_drain);
    ar.u64(a.sl_bank);
    ar.u64(a.sl_bus);
    io_enum8(ar, a.sl_outcome);
  };
  if constexpr (Ar::kIsWriter) {
    std::uint64_t n = inflight_.size();
    ar.u64(n);
    for (auto& [key, st] : inflight_) {
      std::uint64_t uid = key.first;
      std::uint64_t addr = key.second;
      ar.u64(uid);
      ar.u64(addr);
      io_state(st);
    }
    n = accs_.size();
    ar.u64(n);
    for (auto& [uid, acc] : accs_) {
      std::uint64_t u = uid;
      ar.u64(u);
      io_acc(acc);
    }
  } else {
    inflight_.clear();
    std::uint64_t n = 0;
    ar.u64(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint64_t uid = 0;
      std::uint64_t addr = 0;
      ar.u64(uid);
      ar.u64(addr);
      ReqState st;
      io_state(st);
      inflight_.emplace(std::make_pair(uid, addr), st);
    }
    accs_.clear();
    ar.u64(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint64_t uid = 0;
      ar.u64(uid);
      Acc acc;
      io_acc(acc);
      accs_.emplace(uid, acc);
    }
  }
}

template <class Ar>
void ObsHub::ckpt_io(Ar& ar) {
  chrome_.ckpt_io(ar);
  registry_.ckpt_io(ar);
  if constexpr (Ar::kIsWriter) {
    std::vector<std::uint64_t> tracks(named_tracks_.begin(),
                                      named_tracks_.end());
    std::sort(tracks.begin(), tracks.end());
    io_seq(ar, tracks, [&ar](std::uint64_t& key) { ar.u64(key); });
    std::vector<std::uint32_t> pids(named_pids_.begin(), named_pids_.end());
    std::sort(pids.begin(), pids.end());
    io_seq(ar, pids, [&ar](std::uint32_t& pid) { ar.u32(pid); });
  } else {
    named_tracks_.clear();
    std::uint64_t n = 0;
    ar.u64(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint64_t key = 0;
      ar.u64(key);
      named_tracks_.insert(key);
    }
    named_pids_.clear();
    ar.u64(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint32_t pid = 0;
      ar.u32(pid);
      named_pids_.insert(pid);
    }
  }
  io_seq(ar, drain_start_, [&ar](Cycle& at) { ar.u64(at); });
  ar.str(series_);
  ar.b(finalized_);
  bool have_attrib = attrib_ != nullptr;
  ar.b(have_attrib);
  if (have_attrib != (attrib_ != nullptr)) {
    throw ckpt::CkptError(
        "snapshot attribution configuration does not match");
  }
  if (attrib_) attrib_->ckpt_io(ar);
}

}  // namespace latdiv::obs

// --- simulator section walk -------------------------------------------

namespace latdiv {

template <class Ar>
void Simulator::ckpt_io(Ar& ar) {
  ar.section("CORE");
  ar.u64(now_);
  ar.u64(warmup_instructions_);
  ar.u64(warmup_done_at_);
  ar.u64(series_prev_instr_);
  io_check_count(ar, series_prev_.size(), "time-series channel count");
  for (auto& prev : series_prev_) {
    ar.u64(prev.reads);
    ar.u64(prev.writes);
    ar.u64(prev.activates);
    ar.u64(prev.row_hits);
    ar.u64(prev.row_misses);
    ar.u64(prev.row_conflicts);
    ar.u64(prev.merb_deferrals);
  }
  zld_->ckpt_io(ar);

  ar.section("SRCE");
  {
    // The source chain is rebuilt from the config at construction; the
    // archive pins which link is active and then defers to its virtual
    // save/load hooks (cursors, RNG streams).
    const std::uint8_t kind = replayer_ ? 2 : (custom_source_ ? 1 : 0);
    if constexpr (Ar::kIsWriter) {
      ar.u8(kind);
      source_->ckpt_save(ar);
    } else {
      std::uint8_t stored = 0;
      ar.u8(stored);
      if (stored != kind) {
        throw ckpt::CkptError(
            "snapshot instruction-source kind does not match the "
            "configuration");
      }
      source_->ckpt_load(ar);
    }
  }

  ar.section("GPUS");
  tracker_.ckpt_io(ar);
  io_check_count(ar, sms_.size(), "SM count");
  for (auto& core : sms_) core->ckpt_io(ar);

  ar.section("ICNT");
  xbar_.ckpt_io(ar);
  coord_->ckpt_io(ar);

  ar.section("MCTL");
  io_check_count(ar, partitions_.size(), "partition count");
  for (auto& part : partitions_) part->ckpt_io(ar);

  ar.section("CHKR");
  {
    std::uint64_t n = protocol_checkers_.size();
    ar.u64(n);
    if (n != protocol_checkers_.size()) {
      throw ckpt::CkptError("snapshot checker configuration does not match");
    }
    for (auto& checker : protocol_checkers_) checker->ckpt_io(ar);
    bool have_inv = invariant_checker_ != nullptr;
    ar.b(have_inv);
    if (have_inv != (invariant_checker_ != nullptr)) {
      throw ckpt::CkptError("snapshot checker configuration does not match");
    }
    if (invariant_checker_) invariant_checker_->ckpt_io(ar);
  }

  ar.section("OBSV");
  {
    bool have_obs = obs_hub_ != nullptr;
    ar.b(have_obs);
    if (have_obs != (obs_hub_ != nullptr)) {
      throw ckpt::CkptError(
          "snapshot observability configuration does not match");
    }
    if (obs_hub_) obs_hub_->ckpt_io(ar);
  }
}

}  // namespace latdiv

// --- free functions ---------------------------------------------------

namespace latdiv::ckpt {

std::uint32_t config_fingerprint(const SimConfig& cfg) {
  std::vector<unsigned char> buf;
  buf.reserve(64 + cfg.workload.name.size() + cfg.replay_trace_path.size());
  const auto add32 = [&buf](std::uint32_t v) {
    unsigned char le[4];
    put_le32(le, v);
    buf.insert(buf.end(), le, le + 4);
  };
  const auto add64 = [&buf](std::uint64_t v) {
    unsigned char le[8];
    put_le64(le, v);
    buf.insert(buf.end(), le, le + 8);
  };
  const auto add_str = [&](const std::string& s) {
    add32(static_cast<std::uint32_t>(s.size()));
    buf.insert(buf.end(), s.begin(), s.end());
  };
  add32(cfg.num_sms);
  add32(cfg.sm.warps);
  add32(cfg.sm.core_clock_ratio);
  add32(cfg.icnt.partitions);
  add32(cfg.dram.banks);
  add32(cfg.dram.banks_per_group);
  buf.push_back(static_cast<unsigned char>(cfg.scheduler));
  add64(cfg.seed);
  add64(cfg.warmup_cycles);
  add_str(cfg.workload.name);
  add_str(cfg.replay_trace_path);
  return crc32(buf.data(), buf.size());
}

namespace {

/// Shared save/load refusals: state the snapshot cannot capture (custom
/// policies hold arbitrary private state behind a type-erased factory)
/// or must not capture (an open trace-capture file).
void check_snapshotable(const SimConfig& cfg) {
  if (cfg.custom_policy) {
    throw CkptError("cannot snapshot a run with a custom scheduling policy");
  }
  if (!cfg.record_trace_path.empty()) {
    throw CkptError("cannot snapshot a trace-recording run");
  }
}

}  // namespace

std::vector<unsigned char> save_snapshot(const Simulator& sim) {
  check_snapshotable(sim.config());
  CkptWriter writer;
  // The writer archive only reads simulator state; ckpt_io takes a
  // mutable *this solely so the reader direction can overwrite in place.
  const_cast<Simulator&>(sim).ckpt_io(writer);
  const std::vector<unsigned char> body = writer.finish();

  std::vector<unsigned char> out(kSnapshotHeaderBytes);
  out[0] = 'L';
  out[1] = 'D';
  out[2] = 'S';
  out[3] = 'N';
  put_le32(out.data() + 4, kSnapshotVersion);
  put_le32(out.data() + 8, config_fingerprint(sim.config()));
  put_le64(out.data() + 12, sim.now());
  put_le32(out.data() + 20, crc32(out.data(), 20));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

namespace {

struct SnapshotHeader {
  std::uint32_t version = 0;
  std::uint32_t fingerprint = 0;
  Cycle cycle = 0;
};

SnapshotHeader parse_header(const unsigned char* data, std::size_t size) {
  if (size < kSnapshotHeaderBytes) {
    throw CkptError("snapshot truncated: missing header");
  }
  if (std::memcmp(data, "LDSN", 4) != 0) {
    throw CkptError("not a latdiv snapshot (bad magic)");
  }
  if (crc32(data, 20) != get_le32(data + 20)) {
    throw CkptError("snapshot corrupt: header CRC mismatch");
  }
  SnapshotHeader h;
  h.version = get_le32(data + 4);
  h.fingerprint = get_le32(data + 8);
  h.cycle = get_le64(data + 12);
  return h;
}

}  // namespace

void load_snapshot(Simulator& sim, const unsigned char* data,
                   std::size_t size) {
  check_snapshotable(sim.config());
  const SnapshotHeader h = parse_header(data, size);
  if (h.version != kSnapshotVersion) {
    throw CkptError("unsupported snapshot version " +
                    std::to_string(h.version) + " (expected " +
                    std::to_string(kSnapshotVersion) + ")");
  }
  if (h.fingerprint != config_fingerprint(sim.config())) {
    throw CkptError(
        "snapshot configuration fingerprint mismatch: the snapshot was "
        "taken under a different simulation configuration");
  }
  CkptReader reader(data + kSnapshotHeaderBytes, size - kSnapshotHeaderBytes);
  sim.ckpt_io(reader);
  reader.finish();
  if (sim.now() != h.cycle) {
    throw CkptError(
        "snapshot corrupt: header cycle does not match the serialized state");
  }
}

SnapshotInfo inspect_snapshot(const unsigned char* data, std::size_t size) {
  const SnapshotHeader h = parse_header(data, size);
  SnapshotInfo info;
  info.version = h.version;
  info.fingerprint = h.fingerprint;
  info.cycle = h.cycle;
  info.file_bytes = size;
  std::size_t pos = kSnapshotHeaderBytes;
  while (pos < size) {
    if (pos + kSectionHeaderBytes > size) {
      throw CkptError("snapshot truncated: partial section header");
    }
    const std::string tag(reinterpret_cast<const char*>(data + pos), 4);
    const std::uint32_t len = get_le32(data + pos + 4);
    pos += kSectionHeaderBytes;
    if (pos + len + kSectionTrailerBytes > size) {
      throw CkptError("snapshot truncated: section '" + tag +
                      "' overruns the file");
    }
    if (crc32(data + pos, len) != get_le32(data + pos + len)) {
      throw CkptError("snapshot corrupt: CRC mismatch in section '" + tag +
                      "'");
    }
    info.sections.push_back(SnapshotSectionInfo{tag, len});
    pos += len + kSectionTrailerBytes;
  }
  return info;
}

void save_snapshot_file(const Simulator& sim, const std::string& path) {
  const std::vector<unsigned char> bytes = save_snapshot(sim);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw CkptError("cannot write snapshot file: " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) throw CkptError("cannot write snapshot file: " + path);
}

namespace {

std::vector<unsigned char> read_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw CkptError("cannot read snapshot file: " + path);
  std::vector<unsigned char> bytes{std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>()};
  if (in.bad()) throw CkptError("cannot read snapshot file: " + path);
  return bytes;
}

}  // namespace

void load_snapshot_file(Simulator& sim, const std::string& path) {
  const std::vector<unsigned char> bytes = read_snapshot_file(path);
  load_snapshot(sim, bytes.data(), bytes.size());
}

SnapshotInfo inspect_snapshot_file(const std::string& path) {
  const std::vector<unsigned char> bytes = read_snapshot_file(path);
  return inspect_snapshot(bytes.data(), bytes.size());
}

}  // namespace latdiv::ckpt

// Instantiate the full component tree for both archive directions; every
// other ckpt_io in this file is reached from these two.
namespace latdiv {
template void Simulator::ckpt_io(ckpt::CkptWriter&);
template void Simulator::ckpt_io(ckpt::CkptReader&);
}  // namespace latdiv
