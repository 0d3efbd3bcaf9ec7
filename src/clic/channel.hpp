// The per-node-pair reliable channel: sliding window, cumulative
// acknowledgements with piggybacking, retransmission on timeout, in-order
// delivery with an out-of-order reorder buffer (needed under channel
// bonding, which stripes packets across NICs).
//
// Bounded-failure semantics: consecutive retransmission timeouts back off
// geometrically (with deterministic jitter) and are budgeted — after
// `Config::max_retries` expiries with no ack progress the channel gives up,
// resolving every outstanding send as failed instead of retrying forever.
// The next data packet then carries a reset flag so a peer that recovers
// later resynchronizes its receive sequence past the abandoned gap.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>

#include "clic/config.hpp"
#include "clic/header.hpp"
#include "clic/rtt.hpp"
#include "net/buffer.hpp"
#include "os/kernel.hpp"
#include "sim/random.hpp"

namespace clicsim::clic {

// One CLIC packet plus its simulation-side bookkeeping.
struct Packet {
  ClicHeader header;
  net::HeaderBlob upper;  // upper-layer header (first fragment only)
  net::Buffer payload;
  bool user_memory = false;  // payload still references user pages (0-copy)
  bool pio = false;          // Figure 1 path 1: CPU pushes the bytes itself
  int sg_fragments = 1;
  // Fires once, when the packet's first DMA descriptor completes.
  std::function<void()> on_descriptor_done;
};

// How the channel reaches the module's transmit machinery and delivery path.
class ChannelOps {
 public:
  virtual ~ChannelOps() = default;

  // Hands a data packet to the driver of the right NIC (charges driver
  // cost; sets the piggybacked ack before building the frame).
  virtual void emit_data(int peer, Packet& packet) = 0;

  // Emits a pure acknowledgement (minimum-size internal packet).
  virtual void emit_ack(int peer, const ClicHeader& header) = 0;

  // In-order data arrival.
  virtual void deliver(int peer, Packet packet) = 0;

  virtual os::Kernel& kernel() = 0;
};

class Channel {
 public:
  Channel(const Config& config, ChannelOps& ops, int peer);

  // --- Transmit side --------------------------------------------------------

  // Fires with true when the packet is cumulatively acknowledged, with
  // false when the channel exhausts its retry budget and abandons it.
  using SendCallback = std::function<void(bool acked)>;

  // Queues `packet` (sequence number assigned here); transmits immediately
  // when the window allows.
  void send(Packet packet, SendCallback on_result = {});

  // Current cumulative ack to piggyback on outgoing data; marks owed acks
  // as satisfied.
  std::uint32_t take_piggyback_ack();

  // --- Receive side ---------------------------------------------------------

  // Processes any incoming packet for this peer (data, dup, out-of-order,
  // or pure ack).
  void packet_in(const ClicHeader& header, net::HeaderBlob upper,
                 net::Buffer payload);

  // --- Introspection ----------------------------------------------------------
  [[nodiscard]] int in_flight() const {
    return static_cast<int>(unacked_.size());
  }
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  [[nodiscard]] std::uint64_t retransmits() const { return retransmits_; }
  [[nodiscard]] std::uint64_t duplicates() const { return duplicates_; }
  [[nodiscard]] std::uint64_t out_of_order() const { return out_of_order_; }
  [[nodiscard]] std::uint64_t acks_sent() const { return acks_sent_; }
  [[nodiscard]] std::uint32_t rx_next() const { return rx_next_; }

  // Degradation counters (fault telemetry).
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }
  [[nodiscard]] int backoff_level() const { return backoff_level_; }
  [[nodiscard]] std::uint64_t gave_up() const { return gave_up_; }
  [[nodiscard]] std::uint64_t resets_accepted() const {
    return resets_accepted_;
  }
  // The RTO the next expiry would be armed with (before jitter).
  [[nodiscard]] sim::SimTime current_rto() const;

  // Adaptive-mode telemetry (all zero/defaults unless Config::adaptive).
  [[nodiscard]] const RttEstimator& rtt() const { return rtt_; }
  [[nodiscard]] int cwnd() const;  // current effective in-flight limit
  [[nodiscard]] int window_min() const { return window_min_; }
  [[nodiscard]] int window_max() const { return window_max_; }
  [[nodiscard]] std::uint64_t window_collapses() const {
    return window_collapses_;
  }

 private:
  struct Unacked {
    Packet packet;
    SendCallback on_result;
    sim::SimTime sent_at = 0;     // adaptive: RTT-sample timestamp
    bool retransmitted = false;   // adaptive: Karn's rule — never sample
  };

  void transmit(Packet& packet);
  void pump();  // window-limited (adaptive: paced) release of pending_
  void retransmit(int budget);  // resend the `budget` oldest unacked
  void process_ack(std::uint32_t ack);
  void arm_rto();
  void rto_expired();
  void give_up();
  void note_ack_owed(bool immediate);
  void send_pure_ack();

  // Adaptive mode only.
  void grow_window();     // slow start below ssthresh, +1/cwnd above
  void collapse_window();  // timeout response: ssthresh = inflight/2

  const Config* config_;
  ChannelOps* ops_;
  int peer_;

  // TX state. Fresh ack progress cancels and re-arms the retransmit timer.
  std::uint32_t next_seq_ = 0;
  std::uint32_t tx_base_ = 0;  // oldest unacknowledged sequence
  std::map<std::uint32_t, Unacked> unacked_;
  std::deque<Unacked> pending_;  // waiting for window space
  os::Kernel::Timer rto_timer_{ops_->kernel()};
  int backoff_level_ = 0;       // consecutive expiries with no progress
  bool pending_reset_ = false;  // next data packet carries flags::kReset
  sim::Rng rto_rng_;            // deterministic jitter stream

  // Adaptive-mode TX state (DESIGN.md §4k). cwnd_pkts_ is fractional so
  // congestion avoidance can add 1/cwnd per ack; the effective window is
  // its integer part clamped to [1, window_packets].
  RttEstimator rtt_;
  double cwnd_pkts_ = 0.0;
  int ssthresh_ = 0;
  // Loss recovery (NewReno-style): an RTO enters recovery and resends a
  // window of the oldest unacked packets; each partial ack (progress short
  // of recover_point_) immediately resends the next window instead of
  // waiting out another full RTO — a burst of consecutive losses heals in
  // ~one RTO plus a few RTTs rather than one RTO *per packet*. No RTT
  // samples are taken during recovery: cumulative acks that fill a gap
  // report ack-delay, not path RTT, and would poison the estimator.
  bool in_recovery_ = false;
  std::uint32_t recover_point_ = 0;
  sim::SimTime last_activity_ = 0;  // last transmit or ack progress
                                    // (feeds RFC 2861 idle restart)
  sim::SimTime pace_next_ = 0;  // earliest next paced transmission
  os::Kernel::Timer pace_timer_{ops_->kernel()};
  int window_min_ = 0;
  int window_max_ = 0;
  std::uint64_t window_collapses_ = 0;

  // RX state.
  std::uint32_t rx_next_ = 0;
  std::map<std::uint32_t, Packet> reorder_;
  int acks_owed_ = 0;
  os::Kernel::Timer ack_timer_{ops_->kernel()};

  std::uint64_t retransmits_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t out_of_order_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t gave_up_ = 0;
  std::uint64_t resets_accepted_ = 0;
};

}  // namespace clicsim::clic
