#include "icnt/crossbar.hpp"

#include <algorithm>

namespace latdiv {

Crossbar::Crossbar(const IcntConfig& cfg)
    : cfg_(cfg),
      sm_queues_(cfg.sms),
      part_in_(cfg.partitions),
      part_out_(cfg.partitions),
      sm_in_(cfg.sms),
      part_rr_(cfg.partitions, 0),
      part_sticky_(cfg.partitions, cfg.sms),  // sms = "no sticky grant yet"
      sm_rr_(cfg.sms, 0) {
  LATDIV_ASSERT(cfg.sms > 0 && cfg.partitions > 0, "empty crossbar");
}

bool Crossbar::can_inject_request(SmId sm) const {
  LATDIV_ASSERT(sm < sm_queues_.size(), "sm out of range");
  return sm_queues_[sm].size() < cfg_.sm_queue_depth;
}

void Crossbar::inject_request(SmId sm, MemRequest req, Cycle now) {
  LATDIV_ASSERT(can_inject_request(sm), "SM injection queue overflow");
  (void)now;
  sm_queues_[sm].push_back(req);
}

const MemRequest* Crossbar::peek_request(ChannelId part, Cycle now) const {
  LATDIV_ASSERT(part < part_in_.size(), "partition out of range");
  const auto& q = part_in_[part];
  if (q.empty() || q.front().ready_at > now) return nullptr;
  return &q.front().payload;
}

MemRequest Crossbar::pop_request(ChannelId part, Cycle now) {
  LATDIV_ASSERT(peek_request(part, now) != nullptr, "pop without peek");
  MemRequest req = part_in_[part].front().payload;
  part_in_[part].pop_front();
  return req;
}

bool Crossbar::can_inject_response(ChannelId part) const {
  LATDIV_ASSERT(part < part_out_.size(), "partition out of range");
  return part_out_[part].size() < cfg_.partition_out_depth;
}

void Crossbar::inject_response(ChannelId part, MemResponse resp, Cycle now) {
  LATDIV_ASSERT(can_inject_response(part), "partition response overflow");
  (void)now;
  part_out_[part].push_back(resp);
}

std::optional<MemResponse> Crossbar::pop_response(SmId sm, Cycle now) {
  LATDIV_ASSERT(sm < sm_in_.size(), "sm out of range");
  auto& q = sm_in_[sm];
  if (q.empty() || q.front().ready_at > now) return std::nullopt;
  MemResponse resp = q.front().payload;
  q.pop_front();
  return resp;
}

void Crossbar::tick(Cycle now) {
  // Request crossbar: each partition grants one SM whose head targets it.
  // With no queued injections no grant is possible and the arbitration
  // pointers cannot move — skip the whole grant scan.  Occupancy is
  // recounted here (main thread) rather than kept as shared counters the
  // partition-side injectors would race on.
  std::size_t sm_queued = requests_queued();
  for (std::uint32_t p = 0; sm_queued != 0 && p < cfg_.partitions; ++p) {
    if (part_in_[p].size() >= cfg_.partition_in_depth) continue;

    auto head_targets_p = [&](std::uint32_t sm) {
      return !sm_queues_[sm].empty() &&
             sm_queues_[sm].front().loc.channel == p;
    };

    std::uint32_t granted = cfg_.sms;  // sentinel: none
    if (cfg_.sticky_arbitration && part_sticky_[p] < cfg_.sms &&
        head_targets_p(part_sticky_[p])) {
      granted = part_sticky_[p];
    } else {
      for (std::uint32_t off = 0; off < cfg_.sms; ++off) {
        const std::uint32_t sm = (part_rr_[p] + off) % cfg_.sms;
        if (head_targets_p(sm)) {
          granted = sm;
          part_rr_[p] = (sm + 1) % cfg_.sms;
          break;
        }
      }
    }
    if (granted == cfg_.sms) continue;
    part_sticky_[p] = granted;
    part_in_[p].push_back(
        {now + cfg_.request_latency, sm_queues_[granted].front()});
    sm_queues_[granted].pop_front();
    --sm_queued;
    ++stats_.requests_moved;
  }

  // Response crossbar: each SM accepts one response per cycle.
  std::size_t part_out_queued = responses_queued();
  for (std::uint32_t sm = 0; part_out_queued != 0 && sm < cfg_.sms; ++sm) {
    for (std::uint32_t off = 0; off < cfg_.partitions; ++off) {
      const std::uint32_t p = (sm_rr_[sm] + off) % cfg_.partitions;
      if (part_out_[p].empty() || part_out_[p].front().tag.sm != sm) continue;
      sm_in_[sm].push_back(
          {now + cfg_.response_latency, part_out_[p].front()});
      part_out_[p].pop_front();
      --part_out_queued;
      sm_rr_[sm] = (p + 1) % cfg_.partitions;
      ++stats_.responses_moved;
      break;
    }
  }
}

}  // namespace latdiv
