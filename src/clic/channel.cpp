#include "clic/channel.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace clicsim::clic {

Channel::Channel(const Config& config, ChannelOps& ops, int peer)
    : config_(&config),
      ops_(&ops),
      peer_(peer),
      rto_rng_(config.seed ^ (static_cast<std::uint64_t>(
                                  static_cast<std::uint32_t>(peer)) *
                              0x9e3779b97f4a7c15ULL),
               "clic-rto") {
  if (config.adaptive) {
    cwnd_pkts_ = static_cast<double>(std::max(1, config.cwnd_init));
    ssthresh_ = config.window_packets;
    window_min_ = window_max_ = cwnd();
  }
}

int Channel::cwnd() const {
  if (!config_->adaptive) return config_->window_packets;
  return std::clamp(static_cast<int>(cwnd_pkts_), 1, config_->window_packets);
}

void Channel::send(Packet packet, SendCallback on_result) {
  packet.header.seq = next_seq_++;
  if (pending_reset_) {
    // First data after a give-up: tell the peer to skip the abandoned gap.
    packet.header.flags |= flags::kReset;
    pending_reset_ = false;
  }
  // Every send goes through the release loop, so the window (and in
  // adaptive mode the pacing gap) applies uniformly.
  pending_.push_back(Unacked{std::move(packet), std::move(on_result)});
  pump();
}

void Channel::pump() {
  const sim::SimTime now = ops_->kernel().sim().now();
  // Congestion-window validation (RFC 2861): a window that was opened by a
  // previous burst says nothing about the path *now*. After an idle gap
  // longer than the RTO, restart from cwnd_init and let slow start re-probe
  // — under periodic incast this is what stops every wave from blasting the
  // stale window of the previous one into the same shallow queue.
  if (config_->adaptive && unacked_.empty() && !pending_.empty() &&
      last_activity_ > 0 && now - last_activity_ > current_rto() &&
      cwnd_pkts_ > static_cast<double>(config_->cwnd_init)) {
    cwnd_pkts_ = static_cast<double>(std::max(1, config_->cwnd_init));
  }
  while (!pending_.empty() && in_flight() < cwnd()) {
    if (now < pace_next_) {
      // Too soon after the previous release: wake up exactly at the pace
      // boundary. One timer at a time — the wake re-enters this pump.
      pace_timer_.arm(pace_next_ - now, [this] { pump(); });
      break;
    }
    Unacked entry = std::move(pending_.front());
    pending_.pop_front();
    entry.sent_at = now;
    last_activity_ = now;
    transmit(entry.packet);
    const std::uint32_t seq = entry.packet.header.seq;
    unacked_.emplace(seq, std::move(entry));
    if (config_->adaptive) pace_next_ = now + config_->pacing_gap;
  }
  if (!unacked_.empty()) arm_rto();  // a no-op if it already was non-empty
}

void Channel::grow_window() {
  const int limit = config_->window_packets;
  if (cwnd_pkts_ >= static_cast<double>(limit)) return;
  if (static_cast<int>(cwnd_pkts_) < ssthresh_) {
    cwnd_pkts_ += 1.0;  // slow start: one packet per acked packet
  } else {
    cwnd_pkts_ += 1.0 / cwnd_pkts_;  // congestion avoidance: ~+1 per RTT
  }
  cwnd_pkts_ = std::min(cwnd_pkts_, static_cast<double>(limit));
  window_max_ = std::max(window_max_, cwnd());
}

void Channel::collapse_window() {
  ++window_collapses_;
  ssthresh_ = std::max(cwnd() / 2, 2);
  cwnd_pkts_ = static_cast<double>(std::max(1, config_->cwnd_init));
  window_min_ = std::min(window_min_, cwnd());
}

void Channel::retransmit(int budget) {
  // The fixed clock resends the oldest packet alone; the peer's reorder
  // buffer keeps later arrivals. Adaptive mode goes back N inside the send
  // window: when a burst drops a run of consecutive packets, resending only
  // the head heals one sequence number per RTO. A window per round (and
  // another on every partial ack) heals the whole run in ~one RTO.
  for (auto& [seq, entry] : unacked_) {
    if (budget-- <= 0) break;
    entry.retransmitted = true;  // Karn: its ack yields no sample
    // Retransmission must not re-trigger the caller's descriptor callback.
    entry.packet.on_descriptor_done = {};
    ++retransmits_;
    transmit(entry.packet);
  }
}

void Channel::transmit(Packet& packet) {
  packet.header.ack = take_piggyback_ack();
  ops_->emit_data(peer_, packet);
}

std::uint32_t Channel::take_piggyback_ack() {
  acks_owed_ = 0;
  ack_timer_.cancel();  // this packet carries the delayed pure ack
  return rx_next_;
}

void Channel::process_ack(std::uint32_t ack) {
  bool advanced = false;
  bool sampled = false;
  while (!unacked_.empty() && unacked_.begin()->first < ack) {
    auto node = unacked_.extract(unacked_.begin());
    if (config_->adaptive) {
      // Karn's rule: only packets transmitted exactly once yield samples —
      // a retransmitted packet's ack is ambiguous about which copy it acks.
      // Packets that waited in the peer's reorder buffer still sample:
      // their ack delay includes loss-recovery wait, which overestimates —
      // raising the RTO exactly when the path is struggling.
      if (!node.mapped().retransmitted) {
        rtt_.sample(ops_->kernel().sim().now() - node.mapped().sent_at);
        sampled = true;
      }
      grow_window();
    }
    if (node.mapped().on_result) node.mapped().on_result(true);
    advanced = true;
  }
  if (!advanced) return;
  tx_base_ = ack;
  last_activity_ = ops_->kernel().sim().now();
  // Fresh progress restarts the retransmission clock. The second half of
  // Karn's algorithm governs the backoff: in adaptive mode the backed-off
  // RTO is RETAINED until a never-retransmitted packet is acked (a valid
  // sample). During heavy recovery every ack covers retransmitted packets,
  // so resetting on mere progress would pin the RTO below the true
  // (queue-inflated) RTT and every window would time out spuriously
  // forever; retaining the backoff lets the RTO double past the real RTT,
  // after which a clean exchange samples it and re-bases the estimator.
  if (!config_->adaptive || sampled) backoff_level_ = 0;
  rto_timer_.cancel();
  if (in_recovery_) {  // adaptive mode only
    if (ack >= recover_point_) {
      in_recovery_ = false;  // the whole loss episode is acknowledged
    } else {
      // NewReno-style partial ack: the cumulative ack advanced but stopped
      // short of the recovery point, so the next packets in the run are
      // also missing. Resend the next window now instead of idling until
      // another RTO expires.
      retransmit(cwnd());
    }
  }
  if (!unacked_.empty()) arm_rto();
  pump();
}

sim::SimTime Channel::current_rto() const {
  // In adaptive mode the estimator replaces the fixed clock as the
  // ladder's base once it has a sample (the configured rto seeds it until
  // then), and consecutive expiries double the deadline (classic RFC 6298
  // backoff) regardless of rto_backoff, which shapes the fixed-clock
  // ladder; an rto_backoff of 1.0 keeps that clock level-independent.
  const bool estimated = config_->adaptive && rtt_.primed();
  const double factor = config_->adaptive ? 2.0 : config_->rto_backoff;
  double rto = static_cast<double>(
      estimated ? rtt_.rto(config_->rto_min, config_->rto_max)
                : config_->rto);
  if (factor > 1.0) {
    for (int i = 0; i < backoff_level_; ++i) {
      rto *= factor;
      if (rto >= static_cast<double>(config_->rto_max)) break;
    }
  }
  return std::min<sim::SimTime>(static_cast<sim::SimTime>(rto),
                                config_->rto_max);
}

void Channel::arm_rto() {
  if (rto_timer_.armed()) return;
  sim::SimTime rto = current_rto();
  if (config_->rto_jitter > 0.0) {
    // Deterministic jitter in ±rto_jitter, from the per-channel stream.
    const double spread =
        config_->rto_jitter * (2.0 * rto_rng_.uniform() - 1.0);
    rto = std::max<sim::SimTime>(
        1, static_cast<sim::SimTime>(static_cast<double>(rto) *
                                     (1.0 + spread)));
  }
  rto_timer_.arm(rto, [this] { rto_expired(); });
}

void Channel::rto_expired() {
  if (unacked_.empty()) {
    backoff_level_ = 0;
    return;
  }
  ++timeouts_;
  if (backoff_level_ >= config_->max_retries) {
    give_up();
    return;
  }
  ++backoff_level_;
  if (config_->adaptive) {
    // Timeout response: halve ssthresh, collapse the window, and enter
    // loss recovery — everything up to next_seq_ is suspect, so resend a
    // window of it and let partial acks clock out the rest.
    collapse_window();
    in_recovery_ = true;
    recover_point_ = next_seq_;
  }
  retransmit(config_->adaptive ? cwnd() : 1);
  arm_rto();
}

void Channel::give_up() {
  // Retry budget exhausted with zero ack progress: resolve every
  // outstanding send as failed rather than retrying forever. The sequence
  // space moves past the abandoned packets; the next data packet carries
  // kReset so a peer that comes back resynchronizes.
  ++gave_up_;
  backoff_level_ = 0;
  pending_reset_ = true;
  tx_base_ = next_seq_;
  if (config_->adaptive) {
    // Channel resync point: the path (and peer state) that produced the
    // samples may be gone. Forget the estimator, restart from cwnd_init,
    // and drop any scheduled paced release — there is nothing left to pace.
    rtt_.reset();
    cwnd_pkts_ = static_cast<double>(std::max(1, config_->cwnd_init));
    ssthresh_ = config_->window_packets;
    in_recovery_ = false;
    recover_point_ = 0;
    pace_next_ = 0;
    last_activity_ = 0;
    pace_timer_.cancel();
  }
  auto unacked = std::move(unacked_);
  auto pending = std::move(pending_);
  unacked_.clear();
  pending_.clear();
  // Containers are detached first: a callback may immediately send() again.
  for (auto& [seq, entry] : unacked) {
    if (entry.on_result) entry.on_result(false);
  }
  for (auto& entry : pending) {
    // Window-blocked packets were never handed to the driver; release any
    // sync sender waiting on their DMA so it does not block forever on a
    // descriptor that will never be posted.
    if (entry.packet.on_descriptor_done) entry.packet.on_descriptor_done();
    if (entry.on_result) entry.on_result(false);
  }
}

void Channel::packet_in(const ClicHeader& header, net::HeaderBlob upper,
                        net::Buffer payload) {
  process_ack(header.ack);
  if (header.flags & flags::kPureAck) return;

  if ((header.flags & flags::kReset) && header.seq > rx_next_) {
    // The sender abandoned [rx_next_, seq) during an outage; adopt its new
    // base (forward only — a duplicated or reordered reset must not rewind).
    ++resets_accepted_;
    rx_next_ = header.seq;
    while (!reorder_.empty() && reorder_.begin()->first < rx_next_) {
      reorder_.erase(reorder_.begin());
    }
  }

  const bool wants_immediate_ack = (header.flags & flags::kAckRequested) != 0;

  if (header.seq < rx_next_) {
    // Duplicate (our ack was lost): re-ack right away so the sender stops.
    ++duplicates_;
    note_ack_owed(/*immediate=*/true);
    return;
  }

  if (header.seq > rx_next_) {
    ++out_of_order_;
    Packet p;
    p.header = header;
    p.upper = std::move(upper);
    p.payload = std::move(payload);
    reorder_.emplace(header.seq, std::move(p));
    // Adaptive mode acks a gap immediately: during loss recovery the
    // sender's retransmissions are clocked by arriving acks (each partial
    // ack releases the next window), so a promptly reported gap-fill is
    // what keeps recovery at RTT timescale instead of ack-delay timescale.
    note_ack_owed(wants_immediate_ack || config_->adaptive);
    return;
  }

  // In-order: deliver, then drain any consecutive buffered packets.
  Packet p;
  p.header = header;
  p.upper = std::move(upper);
  p.payload = std::move(payload);
  ++rx_next_;
  ops_->deliver(peer_, std::move(p));
  while (!reorder_.empty() && reorder_.begin()->first == rx_next_) {
    auto node = reorder_.extract(reorder_.begin());
    ++rx_next_;
    ops_->deliver(peer_, std::move(node.mapped()));
  }
  note_ack_owed(wants_immediate_ack);
}

void Channel::note_ack_owed(bool immediate) {
  ++acks_owed_;
  if (immediate || acks_owed_ >= config_->ack_every) {
    send_pure_ack();
    return;
  }
  ack_timer_.arm(config_->ack_delay, [this] {
    if (acks_owed_ > 0) send_pure_ack();
  });
}

void Channel::send_pure_ack() {
  acks_owed_ = 0;
  ack_timer_.cancel();
  ++acks_sent_;
  ClicHeader h;
  h.type = PacketType::kInternal;
  h.flags = flags::kPureAck;
  h.ack = rx_next_;
  ops_->emit_ack(peer_, h);
}

}  // namespace clicsim::clic
