#include "icnt/crossbar.hpp"

namespace latdiv {

Crossbar::Crossbar(const IcntConfig& cfg, std::uint32_t sms, bool sticky)
    : cfg_(cfg),
      sms_(sms),
      sticky_(sticky),
      sm_queues_(sms, BoundedQueue<MemRequest>(cfg.sm_queue_depth)),
      part_in_(cfg.partitions,
               BoundedQueue<Timed<MemRequest>>(cfg.partition_in_depth)),
      part_out_(cfg.partitions, BoundedQueue<MemResponse>(kPartitionOutDepth)),
      sm_in_(sms, BoundedQueue<Timed<MemResponse>>(cfg.response_latency + 1)),
      part_rr_(cfg.partitions, 0),
      part_sticky_(cfg.partitions, sms),  // sms = "no sticky grant yet"
      sm_rr_(sms, 0),
      req_heads_(cfg.partitions, sms),
      resp_heads_(sms, cfg.partitions) {
  LATDIV_ASSERT(sms > 0 && cfg.partitions > 0, "empty crossbar");
}

void Crossbar::rebuild_heads() {
  requests_queued_ = 0;
  responses_queued_ = 0;
  req_heads_.clear();
  resp_heads_.clear();
  for (std::uint32_t sm = 0; sm < sms_; ++sm) {
    const auto& q = sm_queues_[sm];
    requests_queued_ += q.size();
    if (!q.empty()) req_heads_.set(q.front().loc.channel, sm);
  }
  for (std::uint32_t p = 0; p < cfg_.partitions; ++p) {
    const auto& q = part_out_[p];
    responses_queued_ += q.size();
    if (!q.empty()) resp_heads_.set(q.front().tag.sm, p);
  }
}

bool Crossbar::heads_consistent() const {
  Crossbar rebuilt(cfg_, sms_, sticky_);
  rebuilt.sm_queues_ = sm_queues_;
  rebuilt.part_out_ = part_out_;
  rebuilt.rebuild_heads();
  return rebuilt.req_heads_ == req_heads_ &&
         rebuilt.resp_heads_ == resp_heads_ &&
         rebuilt.requests_queued_ == requests_queued_ &&
         rebuilt.responses_queued_ == responses_queued_;
}

MemRequest Crossbar::pop_sm_queue(std::uint32_t sm) {
  auto& q = sm_queues_[sm];
  MemRequest req = q.pop();
  --requests_queued_;
  req_heads_.reset(req.loc.channel, sm);
  if (!q.empty()) req_heads_.set(q.front().loc.channel, sm);
  return req;
}

MemResponse Crossbar::pop_part_out(std::uint32_t part) {
  auto& q = part_out_[part];
  MemResponse resp = q.pop();
  --responses_queued_;
  resp_heads_.reset(resp.tag.sm, part);
  if (!q.empty()) resp_heads_.set(q.front().tag.sm, part);
  return resp;
}

bool Crossbar::can_inject_request(SmId sm) const {
  LATDIV_ASSERT(sm < sm_queues_.size(), "sm out of range");
  return !sm_queues_[sm].full();
}

void Crossbar::inject_request(SmId sm, MemRequest req, Cycle now) {
  LATDIV_ASSERT(can_inject_request(sm), "SM injection queue overflow");
  LATDIV_ASSERT(req.loc.channel < cfg_.partitions, "partition out of range");
  (void)now;
  if (sm_queues_[sm].empty()) req_heads_.set(req.loc.channel, sm);
  sm_queues_[sm].push(req);
  ++requests_queued_;
}

const MemRequest* Crossbar::peek_request(ChannelId part, Cycle now) const {
  LATDIV_ASSERT(part < part_in_.size(), "partition out of range");
  const auto& q = part_in_[part];
  if (q.empty() || q.front().ready_at > now) return nullptr;
  return &q.front().payload;
}

MemRequest Crossbar::pop_request(ChannelId part, Cycle now) {
  LATDIV_ASSERT(peek_request(part, now) != nullptr, "pop without peek");
  return part_in_[part].pop().payload;
}

bool Crossbar::can_inject_response(ChannelId part) const {
  LATDIV_ASSERT(part < part_out_.size(), "partition out of range");
  return !part_out_[part].full();
}

void Crossbar::inject_response(ChannelId part, MemResponse resp, Cycle now) {
  LATDIV_ASSERT(can_inject_response(part), "partition response overflow");
  LATDIV_ASSERT(resp.tag.sm < sms_, "response for an unknown SM");
  (void)now;
  if (part_out_[part].empty()) resp_heads_.set(resp.tag.sm, part);
  part_out_[part].push(resp);
  ++responses_queued_;
}

std::optional<MemResponse> Crossbar::pop_response(SmId sm, Cycle now) {
  LATDIV_ASSERT(sm < sm_in_.size(), "sm out of range");
  auto& q = sm_in_[sm];
  if (q.empty() || q.front().ready_at > now) return std::nullopt;
  return q.pop().payload;
}

void Crossbar::tick(Cycle now) {
  // Request crossbar: each partition grants one SM whose head targets it.
  // A pop moves the granted SM's head bit at once, so its next request
  // may still win a later partition this same tick.
  for (std::uint32_t p = 0; requests_queued_ != 0 && p < cfg_.partitions;
       ++p) {
    if (part_in_[p].full()) continue;
    std::uint32_t granted = sms_;  // sentinel: none
    if (sticky_ && part_sticky_[p] < sms_ &&
        req_heads_.test(p, part_sticky_[p])) {
      granted = part_sticky_[p];
    } else {
      granted =
          static_cast<std::uint32_t>(req_heads_.find_cyclic(p, part_rr_[p]));
      if (granted != sms_) part_rr_[p] = (granted + 1) % sms_;
    }
    if (granted == sms_) continue;
    part_sticky_[p] = granted;
    part_in_[p].push({now + cfg_.request_latency, pop_sm_queue(granted)});
    ++stats_.requests_moved;
  }

  // Response crossbar: each SM accepts one response per cycle.
  for (std::uint32_t sm = 0; responses_queued_ != 0 && sm < sms_; ++sm) {
    const auto p =
        static_cast<std::uint32_t>(resp_heads_.find_cyclic(sm, sm_rr_[sm]));
    if (p == cfg_.partitions) continue;
    sm_in_[sm].push({now + cfg_.response_latency, pop_part_out(p)});
    sm_rr_[sm] = (p + 1) % cfg_.partitions;
    ++stats_.responses_moved;
  }
}

}  // namespace latdiv
