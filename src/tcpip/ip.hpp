// IPv4 layer: 20-byte header, software fragmentation/reassembly to the
// link MTU, header checksum cost, and protocol demultiplexing to the
// transports. This is the layer CLIC argues is pure overhead inside a
// single-LAN cluster — here it is implemented fully so the comparison is
// honest.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>

#include "net/buffer.hpp"
#include "os/address.hpp"
#include "os/driver.hpp"
#include "os/node.hpp"
#include "tcpip/config.hpp"

namespace clicsim::tcpip {

inline constexpr std::uint8_t kProtoTcp = 6;
inline constexpr std::uint8_t kProtoUdp = 17;

struct Ipv4Header {
  IpAddr src = 0;
  IpAddr dst = 0;
  std::uint8_t protocol = 0;
  std::uint16_t id = 0;           // datagram id for reassembly
  std::uint16_t frag_offset = 0;  // in bytes (model; real IP uses 8B units)
  bool more_fragments = false;
  std::int64_t total_len = 0;     // L4 header + data bytes of the datagram
  net::HeaderBlob l4;             // transport header (first fragment only)

  // Cross-shard confinement hook (see net::Frame::detach).
  void detach_shared() { l4 = l4.detached(); }
};

// A transport protocol sitting on IP (TCP, UDP).
class IpTransport {
 public:
  virtual ~IpTransport() = default;
  virtual void datagram_received(int src_node, net::HeaderBlob l4,
                                 net::Buffer payload,
                                 sim::CpuPriority prio) = 0;
};

class IpLayer : public os::ProtocolHandler {
 public:
  IpLayer(os::Node& node, Config config, const os::AddressMap& addresses);

  void register_transport(std::uint8_t protocol, IpTransport* transport);

  // Sends one L4 datagram (header + payload), fragmenting to the MTU.
  // `on_done` fires when the last fragment's DMA descriptor completes.
  // `prio`/`front` locate the IP-layer processing in the caller's CPU
  // context: an ack emitted from softirq segment processing must not queue
  // behind the softirq backlog at kernel priority.
  void send(int dst_node, std::uint8_t protocol, net::HeaderBlob l4,
            std::int64_t l4_header_bytes, net::Buffer payload,
            std::function<void()> on_done = {},
            sim::CpuPriority prio = sim::CpuPriority::kKernel,
            bool front = false);

  // os::ProtocolHandler
  void packet_received(net::Frame frame, bool from_isr) override;

  [[nodiscard]] std::uint64_t datagrams_sent() const { return tx_; }
  [[nodiscard]] std::uint64_t datagrams_received() const { return rx_; }
  [[nodiscard]] std::uint64_t fragments_sent() const { return tx_frags_; }
  [[nodiscard]] std::uint64_t reassembly_timeouts() const {
    return reassembly_timeouts_;
  }
  [[nodiscard]] os::Node& node() { return *node_; }
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  struct Reassembly {
    std::map<std::int64_t, net::Buffer> fragments;  // offset -> data
    net::HeaderBlob l4;
    std::int64_t total_len = -1;  // unknown until the last fragment
    os::Kernel::TimerId timeout = os::Kernel::kInvalidTimer;
  };

  void handle_fragment(const Ipv4Header& header, net::Buffer payload,
                       sim::CpuPriority prio);

  os::Node* node_;
  Config config_;
  const os::AddressMap* addresses_;
  std::unordered_map<std::uint8_t, IpTransport*> transports_;
  std::unordered_map<std::uint64_t, Reassembly> reassembly_;
  std::uint16_t next_id_ = 1;
  std::uint64_t tx_ = 0;
  std::uint64_t rx_ = 0;
  std::uint64_t tx_frags_ = 0;
  std::uint64_t reassembly_timeouts_ = 0;
};

}  // namespace clicsim::tcpip
