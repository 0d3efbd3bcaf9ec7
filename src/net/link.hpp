// Full-duplex point-to-point Ethernet link.
//
// Each direction serializes frames at line rate (including preamble/IFG),
// then delivers to the far-end FrameSink after the propagation delay.
// A per-direction FaultInjector supports probabilistic drop/corruption,
// deterministic drop lists (nth-frame), Gilbert–Elliott two-state bursty
// loss, frame duplication and bounded-jitter delay (reordering). The link
// itself models carrier: while the carrier is down (a cable pull / port
// flap) frames still occupy the wire but never reach the far end.
#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "net/frame.hpp"
#include "sim/inline_function.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"

namespace clicsim::net {

struct LinkParams {
  double bits_per_s = 1e9;                    // Gigabit Ethernet
  sim::SimTime propagation = sim::nanoseconds(150);  // ~30 m of copper
};

// Minimum sender-to-receiver latency on any link, independent of length or
// rate: delivery never precedes now + kDeliveryFloor + propagation (see
// Link::send). This floor is also what makes every cross-shard link a
// positive-lookahead channel for the conservative PDES engine.
inline constexpr sim::SimTime kDeliveryFloor = sim::nanoseconds(500);

class FaultInjector {
 public:
  enum class Verdict { kDeliver, kDrop, kCorrupt, kDuplicate, kDelay };

  // A per-frame fault decision. `delay` is only meaningful for kDelay: the
  // extra time the frame spends "in the weeds" before arriving (causing
  // reordering against later frames).
  struct Outcome {
    Verdict verdict = Verdict::kDeliver;
    sim::SimTime delay = 0;
  };

  explicit FaultInjector(std::uint64_t seed = 1) : rng_(seed, "link-fault") {}

  void set_drop_probability(double p) { drop_prob_ = p; }
  void set_corrupt_probability(double p) { corrupt_prob_ = p; }
  void set_seed(std::uint64_t seed) { rng_ = sim::Rng(seed, "link-fault"); }

  // Gilbert–Elliott two-state bursty loss: per-frame transitions between a
  // good state (loss `loss_good`) and a bad state (loss `loss_bad`), with
  // transition probabilities `good_to_bad` / `bad_to_good`. Replaces the
  // Bernoulli drop coin while enabled; the mean burst length is
  // 1 / bad_to_good frames.
  void set_gilbert_elliott(double good_to_bad, double bad_to_good,
                           double loss_good, double loss_bad) {
    ge_enabled_ = good_to_bad > 0.0 || loss_bad > 0.0;
    ge_good_to_bad_ = good_to_bad;
    ge_bad_to_good_ = bad_to_good;
    ge_loss_good_ = loss_good;
    ge_loss_bad_ = loss_bad;
    ge_bad_ = false;
  }
  void clear_gilbert_elliott() { ge_enabled_ = false; }

  // Frame duplication: the frame arrives twice (second copy right behind
  // the first).
  void set_duplicate_probability(double p) { dup_prob_ = p; }

  // Bounded-jitter delay: with probability `p` a frame is held back an
  // extra uniform [0, max_jitter) before delivery, reordering it against
  // frames sent after it.
  void set_delay(double p, sim::SimTime max_jitter) {
    delay_prob_ = p;
    delay_jitter_ = max_jitter;
  }

  // Drop exactly the frame with this 0-based send index (repeatable tests).
  void drop_frame_index(std::uint64_t index) { drop_list_.insert(index); }

  Outcome judge();

  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t duplicated() const { return duplicated_; }
  [[nodiscard]] std::uint64_t delayed() const { return delayed_; }
  [[nodiscard]] std::uint64_t burst_drops() const { return burst_drops_; }

 private:
  double drop_prob_ = 0.0;
  double corrupt_prob_ = 0.0;
  double dup_prob_ = 0.0;
  double delay_prob_ = 0.0;
  sim::SimTime delay_jitter_ = 0;
  bool ge_enabled_ = false;
  bool ge_bad_ = false;
  double ge_good_to_bad_ = 0.0;
  double ge_bad_to_good_ = 0.0;
  double ge_loss_good_ = 0.0;
  double ge_loss_bad_ = 0.0;
  sim::Rng rng_;
  std::set<std::uint64_t> drop_list_;
  std::uint64_t count_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t delayed_ = 0;
  std::uint64_t burst_drops_ = 0;
};

class Link {
 public:
  Link(sim::Simulator& sim, LinkParams params, std::string name);

  // Shard-aware link: end 0 lives on `shard0`, end 1 on `shard1` of
  // `group`. When the ends differ, each direction's serialization resource
  // and fault injector live on the *sending* shard, deliveries cross via
  // the group's mailboxes (the frame is detached first), and the
  // constructor declares both directions as PDES channels with lookahead
  // kDeliveryFloor + propagation — throwing if that is not positive.
  Link(sim::ShardGroup& group, int shard0, int shard1, LinkParams params,
       std::string name);

  // Attaches the receiver for frames arriving at `end` (0 or 1).
  void attach(int end, FrameSink* sink);

  // The sink currently attached at `end` (taps interpose through this).
  [[nodiscard]] FrameSink* sink(int end) const {
    return sinks_[check_end(end)];
  }

  // Transmits `frame` from `end` toward the other end. `on_serialized`
  // (optional) fires when the frame has left the sender (used by the switch
  // to bound its output queues).
  //
  // `delivery_credit` models cut-through forwarding: the wire stays
  // occupied for the full serialization time, but delivery to the far end
  // is advanced by up to the credit (never before the send could have
  // started).
  void send(int end, Frame frame, sim::Action on_serialized = {},
            sim::SimTime delivery_credit = 0);

  // Serialization time of `frame` at this link's line rate.
  [[nodiscard]] sim::SimTime transmission_time(const Frame& frame) const {
    return sim::transmission_time(frame.wire_bytes(), params_.bits_per_s);
  }

  // Carrier state (link flaps): while down, transmissions in both
  // directions still occupy the wire (the sender's PHY keeps clocking) but
  // nothing reaches the far end. Carrier is tracked per sending end so a
  // sharded fault plan can flip each half from the shard that owns it;
  // set_carrier_up() flips both halves (the single-shard/legacy form) and
  // carrier_up() reports the cable as up only when both halves are.
  void set_carrier_up(bool up) { carrier_up_[0] = carrier_up_[1] = up; }
  void set_carrier_up_from(int end, bool up) {
    carrier_up_[check_end(end)] = up;
  }
  [[nodiscard]] bool carrier_up() const {
    return carrier_up_[0] && carrier_up_[1];
  }
  [[nodiscard]] std::uint64_t carrier_drops() const {
    return carrier_drops_[0] + carrier_drops_[1];
  }

  // The simulator driving `end` (the home simulator for non-sharded links).
  [[nodiscard]] sim::Simulator& end_sim(int end) {
    return *end_sims_[check_end(end)];
  }

  // True when the two ends live on different PDES shards: deliveries pay a
  // mailbox hop plus Frame::detach. The switch flood path uses this to
  // decide whether converting the payload to shared-immutable storage buys
  // anything.
  [[nodiscard]] bool crosses_shards() const {
    return group_ != nullptr && end_shards_[0] != end_shards_[1];
  }

  [[nodiscard]] FaultInjector& faults(int from_end) {
    return directions_[check_end(from_end)].faults;
  }

  [[nodiscard]] std::uint64_t frames_sent(int from_end) const {
    return directions_[from_end].frames;
  }
  [[nodiscard]] std::int64_t bytes_sent(int from_end) const {
    return directions_[from_end].bytes;
  }
  [[nodiscard]] double utilization(int from_end) const {
    return directions_[from_end].wire.utilization();
  }
  [[nodiscard]] const LinkParams& params() const { return params_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  static int check_end(int end);

  struct Direction {
    Direction(sim::Simulator& sim, const std::string& name)
        : wire(sim, name), faults() {}
    sim::FifoResource wire;   // serialization at line rate
    FaultInjector faults;
    std::uint64_t frames = 0;
    std::int64_t bytes = 0;
  };

  // Schedules arrival at `to_end`; crosses the shard boundary through the
  // group mailbox (detaching the frame) when the ends live on different
  // shards.
  void deliver_at(int to_end, sim::SimTime when, Frame frame);

  LinkParams params_;
  std::string name_;
  sim::ShardGroup* group_ = nullptr;   // null for single-simulator links
  sim::Simulator* end_sims_[2];
  int end_shards_[2] = {0, 0};
  Direction directions_[2];
  FrameSink* sinks_[2] = {nullptr, nullptr};
  bool carrier_up_[2] = {true, true};
  std::uint64_t carrier_drops_[2] = {0, 0};
};

}  // namespace clicsim::net
