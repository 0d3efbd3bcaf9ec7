// The CLIC packet header: 12 bytes riding directly on a level-1 Ethernet
// header (6 dst + 6 src + 2 ethertype) — no LLC, no IP (section 3.1: in a
// single-LAN cluster the IP layer is unnecessary).
//
// The paper specifies the header size (12 bytes) and that it encodes the
// packet class ("an MPI packet, an internal packet, a kernel function
// packet, etc."); the exact field layout is ours:
//
//   type(1) flags(1) src_port(1) dst_port(1) seq(4) ack(4)  = 12 bytes
//
// seq/ack run per node-pair channel (cumulative acknowledgement with
// piggybacking); message framing uses the first/last-fragment flag bits on
// the in-order reliable channel. Broadcast/multicast datagrams bypass the
// channel: their seq counts the sender's datagram frames, so a receiver
// sees a lost frame as a hole.
#pragma once

#include <cstdint>

#include "net/frame.hpp"

namespace clicsim::clic {

enum class PacketType : std::uint8_t {
  kUser = 0,         // application message
  kMpi = 1,          // MPI layer message (tagged matching done above CLIC)
  kInternal = 2,     // protocol-internal (pure acknowledgements)
  kKernelFn = 3,     // kernel-function invocation packets
  kRemoteWrite = 4,  // asynchronous remote write into a registered region
  kBroadcast = 5,    // Ethernet broadcast/multicast datagram (unreliable)
};

namespace flags {
inline constexpr std::uint8_t kFirstFragment = 0x01;
inline constexpr std::uint8_t kLastFragment = 0x02;
inline constexpr std::uint8_t kAckRequested = 0x04;  // confirmation of reception
inline constexpr std::uint8_t kPureAck = 0x08;       // carries no data
// Sender abandoned every sequence before this packet's (a retry budget was
// exhausted during an outage): the receiver adopts this packet's sequence
// as its new expected base instead of waiting forever for the gap.
inline constexpr std::uint8_t kReset = 0x10;
}  // namespace flags

struct ClicHeader {
  PacketType type = PacketType::kUser;
  std::uint8_t flags = 0;
  std::uint8_t src_port = 0;
  std::uint8_t dst_port = 0;
  std::uint32_t seq = 0;  // packet sequence on the (src,dst) node channel
                          // (datagrams: the sender's datagram frame count)
  std::uint32_t ack = 0;  // cumulative: all packets < ack received
};

inline constexpr std::int64_t kClicHeaderBytes = 12;

// What actually rides in a CLIC frame: the 12-byte protocol header plus an
// optional upper-layer header (e.g. the MPI envelope) on a message's first
// fragment. The upper header's wire bytes count against the fragment's
// payload budget.
struct WireHeader {
  ClicHeader clic;
  net::HeaderBlob upper;

  // Cross-shard confinement hook (see net::Frame::detach): the nested
  // upper blob must be deep-copied along with the wire header.
  void detach_shared() { upper = upper.detached(); }
};

}  // namespace clicsim::clic
