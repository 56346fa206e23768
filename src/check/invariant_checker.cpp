#include "check/invariant_checker.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "cache/mshr.hpp"
#include "gpu/partition.hpp"
#include "gpu/sm.hpp"
#include "gpu/tracker.hpp"
#include "icnt/crossbar.hpp"
#include "mc/controller.hpp"
#include "obs/attrib.hpp"

namespace latdiv {

InvariantChecker::InvariantChecker(bool abort_on_violation)
    : abort_on_violation_(abort_on_violation) {}

void InvariantChecker::report(Cycle now, const char* invariant,
                              const std::string& detail) {
  if (abort_on_violation_) {
    std::fprintf(stderr,
                 "latdiv: invariant violation [%s] at cycle %" PRIu64 ": %s\n",
                 invariant, now, detail.c_str());
    std::abort();
  }
  violations_.push_back(InvariantViolation{now, invariant, detail});
}

void InvariantChecker::expect_eq(std::uint64_t lhs, std::uint64_t rhs,
                                 Cycle now, const char* invariant,
                                 const char* equation) {
  if (lhs == rhs) return;
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%s: %" PRIu64 " != %" PRIu64, equation, lhs,
                rhs);
  report(now, invariant, buf);
}

void InvariantChecker::expect_le(std::uint64_t lhs, std::uint64_t rhs,
                                 Cycle now, const char* invariant,
                                 const char* equation) {
  if (lhs <= rhs) return;
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%s: %" PRIu64 " > %" PRIu64, equation, lhs,
                rhs);
  report(now, invariant, buf);
}

void InvariantChecker::audit_controller(const MemoryController& mc,
                                        Cycle now) {
  ++audits_run_;
  const McStats& s = mc.stats();
  const DramTiming& t = mc.channel().timing();

  // Walk the bank command queues once, counting composition and depth.
  std::uint64_t bankq_total = 0;
  std::uint64_t bankq_reads = 0;
  std::uint64_t bankq_writes = 0;
  std::uint64_t nonempty_banks = 0;
  for (BankId b = 0; b < static_cast<BankId>(t.banks); ++b) {
    const auto& q = mc.bank_queue(b);
    expect_le(q.size(), mc.config().bank_queue_depth, now, "bankq-bound",
              "bank queue depth within configured bound");
    bankq_total += q.size();
    if (!q.empty()) ++nonempty_banks;
    for (const MemRequest& req : q) {
      if (req.kind == ReqKind::kRead) {
        ++bankq_reads;
      } else {
        ++bankq_writes;
      }
    }
  }
  expect_eq(mc.commands_pending(), bankq_total, now, "cmdq-count",
            "commands_pending() == sum of bank queue sizes");
  expect_eq(mc.banks_with_work(), nonempty_banks, now, "mc-nonempty-banks",
            "banks_with_work() == number of non-empty bank queues");
  expect_eq(mc.command_state_consistent(now), 1, now, "mc-command-bounds",
            "busy-bank mask == non-empty bank queues, and no bank bound or "
            "command wake past a head's earliest legal cycle");
  expect_le(mc.read_queue().size(), mc.read_queue().capacity(), now,
            "readq-bound", "read queue within capacity");
  expect_le(mc.write_queue().size(), mc.write_queue().capacity(), now,
            "writeq-bound", "write queue within capacity");

  // Read conservation: everything accepted is in a queue, in flight on the
  // data bus, or served — nothing lost, nothing duplicated.
  expect_eq(s.reads_accepted,
            mc.read_queue().size() + bankq_reads + mc.inflight_reads() +
                s.reads_served,
            now, "mc-read-conservation",
            "reads_accepted == read_q + bankq reads + inflight + served");
  expect_eq(s.writes_accepted,
            mc.write_queue().size() + bankq_writes + s.writes_served, now,
            "mc-write-conservation",
            "writes_accepted == write_q + bankq writes + served");

  // Channel cross-check: every RD burst completes exactly once, every WR
  // command was counted as served exactly once.
  const ChannelStats& cs = mc.channel().stats();
  expect_eq(cs.reads, s.reads_served + mc.inflight_reads(), now,
            "channel-read-conservation",
            "channel RD commands == reads_served + inflight");
  expect_eq(cs.writes, s.writes_served, now, "channel-write-conservation",
            "channel WR commands == writes_served");
}

void InvariantChecker::audit_partition(const Partition& part, Cycle now) {
  audit_controller(part.mc(), now);

  // MSHR ledger: allocations leave only through release().
  const MshrStats& ms = part.l2_mshr().stats();
  expect_eq(ms.allocations, ms.releases + part.l2_mshr().outstanding(), now,
            "mshr-ledger", "MSHR allocations == releases + outstanding");

  // Every outstanding L2 MSHR line is either a read the controller still
  // owes or a completed fill waiting to install; fills and misses cannot
  // leak between the two structures.
  const McStats& s = part.mc().stats();
  expect_eq(part.l2_mshr().outstanding(),
            (s.reads_accepted - s.reads_served) + part.fills_pending(), now,
            "mshr-mc-conservation",
            "MSHR outstanding == MC reads outstanding + fills pending");
}

void InvariantChecker::audit_tracker(const InstrTracker& tracker,
                                     std::size_t blocked_warps, Cycle now) {
  ++audits_run_;
  expect_eq(tracker.inflight(), blocked_warps, now, "tracker-liveness",
            "live tracker records == warps blocked on loads");
}

void InvariantChecker::audit_hot_path(const Sm& sm, Cycle now) {
  ++audits_run_;
  expect_eq(sm.issue_masks_consistent(), 1, now, "sm-issue-masks",
            "SM issue masks == recomputation from the warp table");
}

void InvariantChecker::audit_hot_path(const Crossbar& xbar, Cycle now) {
  ++audits_run_;
  expect_eq(xbar.heads_consistent(), 1, now, "icnt-head-masks",
            "crossbar head masks and counters == recomputation from queues");
}

void InvariantChecker::audit_hot_path(const Channel& channel, Cycle now) {
  ++audits_run_;
  expect_eq(channel.open_banks_consistent(), 1, now, "dram-open-banks",
            "channel open-bank count == banks with an open row");
}

void InvariantChecker::audit_mshr(const MshrFile& mshr, Cycle now) {
  ++audits_run_;
  const auto used = static_cast<std::uint32_t>(mshr.outstanding());
  std::uint64_t occupied = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t overfull = 0;
  for (std::uint32_t s = 0; s < used; ++s) {
    const std::size_t waiters = mshr.waiters(s).size();
    if (waiters > 0) ++occupied;
    if (waiters > mshr.config().max_merged) ++overfull;
    for (std::uint32_t t = 0; t < s; ++t) {
      if (mshr.line(t) == mshr.line(s)) ++duplicates;
    }
  }
  expect_eq(mshr.outstanding(), occupied, now, "mshr-slots",
            "MSHR outstanding() == slots holding a waiter");
  expect_eq(duplicates, 0, now, "mshr-slots",
            "MSHR lines tracked by more than one slot == 0");
  expect_eq(overfull, 0, now, "mshr-slots",
            "MSHR waiter lists longer than max_merged == 0");
}

void InvariantChecker::audit_attribution(const obs::AttributionProfiler& prof,
                                         Cycle now) {
  ++audits_run_;
  const obs::AttribSummary s = prof.summary();
  // Sum exactness holds per load by construction; a mismatch means a
  // load's components did not telescope to its end-to-end latency.
  expect_eq(s.mismatches, 0, now, "attrib-sum-exact",
            "loads with non-telescoping components == 0");
  // Every finalized DRAM-touching load must join all its request records.
  expect_eq(s.unmatched, 0, now, "attrib-join",
            "warp loads without matching request records == 0");
  expect_eq(s.dropped, 0, now, "attrib-ingest",
            "read requests declined at attribution ingest == 0");
  // Aggregate conservation: per-cause histogram mass == end-to-end mass.
  std::uint64_t cause_sum = 0;
  for (std::size_t i = 0; i < obs::kAttribCauseCount; ++i) {
    cause_sum += s.cause_cycles[i];
  }
  expect_eq(cause_sum, s.total_cycles, now, "attrib-conservation",
            "sum of per-cause cycles == total attributed cycles");
}

}  // namespace latdiv
