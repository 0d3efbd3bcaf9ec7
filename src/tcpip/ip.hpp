// IPv4 layer: 20-byte header, header checksum cost, and protocol
// demultiplexing to the transports. This is the layer CLIC argues is pure
// overhead inside a single-LAN cluster. TCP sizes every segment to the MSS,
// so a datagram always fits one frame: the layer never fragments, and a
// datagram larger than the MTU is a caller error.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "net/buffer.hpp"
#include "os/address.hpp"
#include "os/driver.hpp"
#include "os/node.hpp"
#include "tcpip/config.hpp"

namespace clicsim::tcpip {

inline constexpr std::uint8_t kProtoTcp = 6;

struct Ipv4Header {
  IpAddr src = 0;
  IpAddr dst = 0;
  std::uint8_t protocol = 0;
  net::HeaderBlob l4;  // transport header

  // Cross-shard confinement hook (see net::Frame::detach).
  void detach_shared() { l4 = l4.detached(); }
};

// A transport protocol sitting on IP (TCP).
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

  // Sends one L4 datagram (header + payload) in one frame; throws
  // std::invalid_argument when it does not fit the MTU. `on_done` fires
  // when the frame's DMA descriptor completes.
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

  // Datagrams sent, each in one frame: IP never fragments.
  [[nodiscard]] std::uint64_t fragments_sent() const { return tx_; }
  [[nodiscard]] os::Node& node() { return *node_; }
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  os::Node* node_;
  Config config_;
  const os::AddressMap* addresses_;
  std::unordered_map<std::uint8_t, IpTransport*> transports_;
  std::uint64_t tx_ = 0;
};

}  // namespace clicsim::tcpip
