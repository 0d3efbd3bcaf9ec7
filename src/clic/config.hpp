// CLIC protocol configuration.
//
// Processing costs the paper measures directly (Figure 7: CLIC_MODULE
// 0.7 us on send, ~2 us on receive; driver ~4 us on send) are defaults
// here; everything else (window, ack policy, retransmission) is sized for
// a Gigabit LAN.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace clicsim::clic {

// The four data paths of Figure 1.
enum class TxPath {
  kDirectPio = 1,  // path 1: CPU writes user data straight to the card (PIO)
  kZeroCopy = 2,   // path 2: S/G DMA from user memory (Gigabit CLIC default)
  kOneCopy = 3,    // path 3: copy to a kernel buffer, DMA from there
  kTwoCopy = 4,    // path 4: kernel buffer + staging copy (Fast Ethernet CLIC)
};

struct Config {
  TxPath tx_path = TxPath::kZeroCopy;

  // Fig. 8b receiver improvement: the driver calls CLIC_MODULE directly
  // from the ISR (no sk_buff, no bottom half). Requires a driver change,
  // which is why the paper leaves it as a projection.
  bool direct_dispatch = false;

  // Reliable-channel sizing.
  int window_packets = 64;          // per node-pair sliding window
  sim::SimTime rto = sim::milliseconds(3.0);
  int ack_every = 4;                // pure ack after N unacked data packets
  sim::SimTime ack_delay = sim::microseconds(50.0);

  // Retransmission policy (bounded-failure semantics): consecutive RTO
  // expiries back off geometrically from `rto` by `rto_backoff` up to
  // `rto_max`, each armed deadline optionally scaled by a deterministic
  // jitter of up to ±`rto_jitter` drawn from a per-channel stream of
  // `seed` (so two channels that black-hole together do not retransmit in
  // lockstep, and every run replays byte-identically). Jitter defaults
  // off: the paper-reproduction figures pin the exact seed retransmission
  // schedule; chaos campaigns turn it on. After `max_retries` consecutive
  // expiries with no ack progress the channel gives up: every outstanding
  // send resolves with ok=false instead of retrying forever, and the next
  // transmission carries a reset so a recovered peer resynchronizes.
  double rto_backoff = 2.0;
  sim::SimTime rto_max = sim::milliseconds(200.0);
  double rto_jitter = 0.0;
  int max_retries = 12;
  std::uint64_t seed = 1;           // RTO-jitter stream seed

  // Adaptive reliability mode (DESIGN.md §4k). Off by default: the paper
  // fixes its retransmission clock, and every figure reproduction pins the
  // fixed-clock schedule byte-for-byte. When on:
  //  - an RFC 6298 SRTT/RTTVAR estimator replaces `rto` as the base of the
  //    backoff ladder (the ladder then doubles per consecutive expiry
  //    regardless of `rto_backoff`). Karn's rule in both halves:
  //    retransmitted packets never sample, and a backed-off RTO is retained
  //    until a never-retransmitted packet is acked;
  //  - a slow-start/AIMD congestion window bounds in-flight packets below
  //    `window_packets`: a timeout collapses it to `cwnd_init` (ssthresh =
  //    half) and enters go-back-N loss recovery — the cwnd oldest unacked
  //    packets are resent at once, and each partial ack resends the next
  //    window, so a burst of consecutive losses heals in ~one RTO;
  //  - a window idle for more than one RTO restarts from `cwnd_init`
  //    (RFC 2861): yesterday's window says nothing about today's queue;
  //  - transmissions are paced `pacing_gap` apart, and receivers ack
  //    out-of-order arrivals immediately so recovery is clocked by fresh
  //    information rather than the delayed-ack timer.
  bool adaptive = false;
  sim::SimTime rto_min = sim::microseconds(200.0);  // estimator RTO floor
  int cwnd_init = 2;                // post-collapse / initial window
  sim::SimTime pacing_gap = sim::microseconds(8.0);  // per-packet spacing

  // Kernel processing costs (Figure 7 measurements).
  sim::SimTime module_tx_cost = sim::microseconds(0.7);
  sim::SimTime module_rx_cost = sim::microseconds(2.0);
  sim::SimTime driver_tx_cost = sim::microseconds(4.0);
  sim::SimTime ack_tx_cost = sim::microseconds(1.5);

  // Use every NIC on the node round-robin (channel bonding, section 5).
  bool channel_bonding = false;

  // Hand packets larger than the wire MTU to the card and let firmware
  // fragment (requires a NicProfile with on_nic_fragmentation).
  bool use_nic_fragmentation = false;
  std::int64_t nic_frag_super_bytes = 65536;  // host-side packet size then
};

}  // namespace clicsim::clic
