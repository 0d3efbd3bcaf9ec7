#include "tcpip/ip.hpp"

#include <stdexcept>
#include <utility>

#include "os/skbuff.hpp"

namespace clicsim::tcpip {

IpLayer::IpLayer(os::Node& node, Config config,
                 const os::AddressMap& addresses)
    : node_(&node), config_(config), addresses_(&addresses) {
  for (int i = 0; i < node_->nic_count(); ++i) {
    node_->driver(i).add_protocol(net::kEtherTypeIp, this);
  }
}

void IpLayer::register_transport(std::uint8_t protocol,
                                 IpTransport* transport) {
  transports_[protocol] = transport;
}

void IpLayer::send(int dst_node, std::uint8_t protocol, net::HeaderBlob l4,
                   std::int64_t l4_header_bytes, net::Buffer payload,
                   std::function<void()> on_done, sim::CpuPriority prio,
                   bool front) {
  if (kIpHeaderBytes + l4_header_bytes + payload.size() >
      node_->nic(0).mtu()) {
    throw std::invalid_argument("IpLayer::send: datagram exceeds the MTU");
  }
  ++tx_;

  Ipv4Header h;
  h.src = ip_of_node(node_->id());
  h.dst = ip_of_node(dst_node);
  h.protocol = protocol;
  h.l4 = std::move(l4);

  os::SkBuff skb;
  skb.dst = addresses_->macs_of(dst_node)[0];
  skb.src = node_->mac(0);
  skb.ethertype = net::kEtherTypeIp;
  skb.header =
      net::HeaderBlob::of(std::move(h), kIpHeaderBytes + l4_header_bytes);
  skb.payload = std::move(payload);
  skb.sg_fragments = 1;  // the stock stack sends from kernel memory

  // IP header build + checksum (cheap, header-only).
  auto work = [this, skb = std::move(skb),
               done = std::move(on_done)]() mutable {
    node_->driver(0).xmit_or_queue(std::move(skb), std::move(done));
  };
  if (front) {
    node_->cpu().run_next(prio, config_.ip_tx_cost, std::move(work));
  } else {
    node_->cpu().run(prio, config_.ip_tx_cost, std::move(work));
  }
}

void IpLayer::packet_received(net::Frame frame, bool from_isr) {
  const auto prio =
      from_isr ? sim::CpuPriority::kInterrupt : sim::CpuPriority::kSoftirq;
  const auto* header = frame.header.get<Ipv4Header>();
  if (header == nullptr) return;
  if (header->dst != ip_of_node(node_->id())) return;

  node_->cpu().run(prio, config_.ip_rx_cost,
                   [this, h = *header, payload = std::move(frame.payload),
                    prio]() mutable {
                     auto it = transports_.find(h.protocol);
                     if (it == transports_.end()) return;
                     it->second->datagram_received(node_of_ip(h.src),
                                                   std::move(h.l4),
                                                   std::move(payload), prio);
                   });
}

}  // namespace clicsim::tcpip
