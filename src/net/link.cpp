#include "net/link.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace clicsim::net {

FaultInjector::Outcome FaultInjector::judge() {
  const std::uint64_t index = count_++;
  if (drop_list_.erase(index) > 0) {
    ++dropped_;
    return {Verdict::kDrop};
  }
  // Loss: Gilbert–Elliott burst model when enabled, Bernoulli coin
  // otherwise. The draw order is fixed so configurations that leave a
  // feature disabled consume exactly the same RNG stream as before the
  // feature existed.
  if (ge_enabled_) {
    ge_bad_ = ge_bad_ ? !rng_.bernoulli(ge_bad_to_good_)
                      : rng_.bernoulli(ge_good_to_bad_);
    const double loss = ge_bad_ ? ge_loss_bad_ : ge_loss_good_;
    if (loss > 0.0 && rng_.bernoulli(loss)) {
      ++dropped_;
      if (ge_bad_) ++burst_drops_;
      return {Verdict::kDrop};
    }
  } else if (drop_prob_ > 0.0 && rng_.bernoulli(drop_prob_)) {
    ++dropped_;
    return {Verdict::kDrop};
  }
  if (corrupt_prob_ > 0.0 && rng_.bernoulli(corrupt_prob_)) {
    return {Verdict::kCorrupt};
  }
  if (dup_prob_ > 0.0 && rng_.bernoulli(dup_prob_)) {
    ++duplicated_;
    return {Verdict::kDuplicate};
  }
  if (delay_prob_ > 0.0 && rng_.bernoulli(delay_prob_)) {
    ++delayed_;
    const sim::SimTime jitter =
        delay_jitter_ > 0 ? rng_.uniform_int(0, delay_jitter_ - 1) : 0;
    return {Verdict::kDelay, jitter};
  }
  return {Verdict::kDeliver};
}

Link::Link(sim::Simulator& sim, LinkParams params, std::string name)
    : params_(params),
      name_(std::move(name)),
      end_sims_{&sim, &sim},
      directions_{Direction(sim, name_ + ".d0"), Direction(sim, name_ + ".d1")} {}

Link::Link(sim::ShardGroup& group, int shard0, int shard1, LinkParams params,
           std::string name)
    : params_(params),
      name_(std::move(name)),
      group_(&group),
      end_sims_{&group.shard(shard0), &group.shard(shard1)},
      end_shards_{shard0, shard1},
      directions_{Direction(*end_sims_[0], name_ + ".d0"),
                  Direction(*end_sims_[1], name_ + ".d1")} {
  if (shard0 != shard1) {
    // Both directions are conservative-PDES channels; the lookahead is the
    // guaranteed minimum sender-to-receiver latency (see send()). The
    // group rejects non-positive lookahead with the link named.
    const sim::SimTime lookahead = kDeliveryFloor + params_.propagation;
    group.declare_channel(shard0, shard1, lookahead, "link " + name_);
    group.declare_channel(shard1, shard0, lookahead, "link " + name_);
  }
}

int Link::check_end(int end) {
  if (end != 0 && end != 1) throw std::invalid_argument("Link: end must be 0/1");
  return end;
}

void Link::attach(int end, FrameSink* sink) { sinks_[check_end(end)] = sink; }

void Link::deliver_at(int to_end, sim::SimTime when, Frame frame) {
  FrameSink* dest = sinks_[to_end];
  const int from_end = 1 - to_end;
  if (group_ != nullptr && end_shards_[to_end] != end_shards_[from_end]) {
    // Shard boundary: confine the frame's storage to the receiving thread,
    // then hand it over through the group mailbox.
    frame.detach();
    group_->post(end_shards_[from_end], end_shards_[to_end], when,
                 [dest, frame = std::move(frame)]() mutable {
                   dest->frame_arrived(std::move(frame));
                 });
    return;
  }
  end_sims_[to_end]->at(when, [dest, frame = std::move(frame)]() mutable {
    dest->frame_arrived(std::move(frame));
  });
}

void Link::send(int end, Frame frame, sim::Action on_serialized,
                sim::SimTime delivery_credit) {
  check_end(end);
  Direction& dir = directions_[end];
  FrameSink* dest = sinks_[1 - end];

  ++dir.frames;
  dir.bytes += frame.frame_bytes();

  // A dropped frame still occupies the wire for its transmission time; it
  // just never reaches the far end. Corrupted frames arrive with a bad FCS
  // and are discarded by the receiving NIC. A downed carrier black-holes
  // the frame before the injector even sees it (and consumes no RNG, so
  // flap-free runs replay identically).
  bool deliver = true;
  bool duplicate = false;
  sim::SimTime extra_delay = 0;
  if (!carrier_up_[end]) {
    ++carrier_drops_[end];
    deliver = false;
  } else {
    const FaultInjector::Outcome out = dir.faults.judge();
    switch (out.verdict) {
      case FaultInjector::Verdict::kDrop:
        deliver = false;
        break;
      case FaultInjector::Verdict::kCorrupt:
        frame.fcs_ok = false;
        break;
      case FaultInjector::Verdict::kDuplicate:
        duplicate = true;
        break;
      case FaultInjector::Verdict::kDelay:
        extra_delay = out.delay;
        break;
      case FaultInjector::Verdict::kDeliver:
        break;
    }
  }

  const sim::SimTime tx_time =
      sim::transmission_time(frame.wire_bytes(), params_.bits_per_s);

  const sim::SimTime serialized = dir.wire.submit(
      tx_time, std::move(on_serialized));
  if (!deliver || dest == nullptr) return;

  // `serialized >= now + tx_time`, so even with full cut-through credit the
  // arrival is never earlier than now + kDeliveryFloor + propagation — the
  // lookahead the shard engine relies on (jitter and duplication only add).
  const sim::SimTime floor = end_sims_[end]->now() + kDeliveryFloor;
  const sim::SimTime arrive =
      std::max(floor, serialized - delivery_credit) + params_.propagation +
      extra_delay;
  if (duplicate) {
    // The copy trails the original by one serialization time, as if the
    // frame had been put on the wire twice back to back.
    deliver_at(1 - end, arrive + tx_time, frame);
  }
  deliver_at(1 - end, arrive, std::move(frame));
}

}  // namespace clicsim::net
