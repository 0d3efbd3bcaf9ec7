// TCP/IP stack configuration: protocol processing costs and transport
// sizing. Fixed per-packet costs model header processing, demux, socket
// locking and skb queue management of a period (Linux 2.4-class) stack;
// per-byte costs beyond copy+checksum model the additional data touching
// (skb bookkeeping, segmentation accounting) that made TCP/IP the paper's
// expensive baseline.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace clicsim::tcpip {

struct Config {
  // --- IP layer -------------------------------------------------------------
  sim::SimTime ip_tx_cost = sim::microseconds(2.5);
  sim::SimTime ip_rx_cost = sim::microseconds(3.0);

  // --- TCP ------------------------------------------------------------------
  // Per-byte costs are calibrated so the TCP asymptotes land near the
  // paper's measurements (~270 Mb/s at MTU 9000, ~200 at 1500): the period
  // stack touches each byte several times beyond the copy and checksum
  // (skb management, segmentation bookkeeping, socket accounting).
  sim::SimTime tcp_tx_cost = sim::microseconds(7.0);
  sim::SimTime tcp_rx_cost = sim::microseconds(9.0);
  double tcp_tx_per_byte_ns = 12.0;
  double tcp_rx_per_byte_ns = 23.0;

  std::int64_t sndbuf = 256 * 1024;
  std::int64_t rcvbuf = 256 * 1024;
  std::int64_t init_cwnd_segments = 2;
  // Nagle's algorithm (on by default, as in an untuned period stack: the
  // paper's TCP baseline is the stock configuration).
  bool nodelay = false;
  int delack_segments = 2;
  sim::SimTime delack_timeout = sim::microseconds(500.0);
  sim::SimTime rto_initial = sim::milliseconds(20.0);
  sim::SimTime rto_min = sim::milliseconds(5.0);
  int dupack_threshold = 3;
};

inline constexpr std::int64_t kIpHeaderBytes = 20;
inline constexpr std::int64_t kTcpHeaderBytes = 20;

// Static single-subnet addressing: node i owns 10.0.0.i (the cluster runs
// one LAN; ARP is a static table, see os::AddressMap).
using IpAddr = std::uint32_t;
constexpr IpAddr ip_of_node(int node) {
  return 0x0A000000u | static_cast<std::uint32_t>(node);
}
constexpr int node_of_ip(IpAddr ip) { return static_cast<int>(ip & 0xFFFFFF); }

}  // namespace clicsim::tcpip
