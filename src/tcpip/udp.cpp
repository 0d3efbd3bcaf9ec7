#include "tcpip/udp.hpp"

#include <utility>

namespace clicsim::tcpip {

UdpStack::UdpStack(IpLayer& ip, Config config) : ip_(&ip), config_(config) {
  ip_->register_transport(kProtoUdp, this);
}

void UdpStack::bind(int port) { ports_[port]; }

sim::Future<bool> UdpStack::sendto(int src_port, int dst_node, int dst_port,
                                   net::Buffer data) {
  sim::Future<bool> result(node().sim());
  ++tx_;
  node().kernel().syscall([this, src_port, dst_node, dst_port,
                           data = std::move(data), result]() mutable {
    UdpHeader h;
    h.src_port = static_cast<std::uint16_t>(src_port);
    h.dst_port = static_cast<std::uint16_t>(dst_port);
    h.length = kUdpHeaderBytes + data.size();

    // One copy user -> kernel, checksum, then hand to IP.
    auto& n = node();
    const std::int64_t bytes = data.size();
    n.mem().copy_pressure(bytes);
    n.mem().checksum_pressure(bytes);
    n.cpu().run(
        sim::CpuPriority::kKernel,
        config_.udp_tx_cost + n.cpu().copy_cost(bytes) +
            n.cpu().checksum_cost(bytes),
        [this, h, dst_node, data = std::move(data), result]() mutable {
          ip_->send(dst_node, kProtoUdp,
                    net::HeaderBlob::of(h, kUdpHeaderBytes),
                    kUdpHeaderBytes, std::move(data),
                    [this, result]() mutable {
                      node().kernel().syscall_return(
                          [result]() mutable { result.set(true); });
                    });
        });
  });
  return result;
}

void UdpStack::datagram_received(int src_node, net::HeaderBlob l4,
                                 net::Buffer payload,
                                 sim::CpuPriority prio) {
  const auto* h = l4.get<UdpHeader>();
  if (h == nullptr) return;
  ++rx_;

  auto& n = node();
  const std::int64_t bytes = payload.size();
  n.mem().checksum_pressure(bytes);
  n.cpu().run(prio,
              config_.udp_rx_cost + n.cpu().checksum_cost(bytes),
              [this, src_node, header = *h,
               payload = std::move(payload), prio]() mutable {
                auto it = ports_.find(header.dst_port);
                if (it == ports_.end()) {
                  ++dropped_unbound_;
                  return;
                }
                UdpDatagram d;
                d.src_node = src_node;
                d.src_port = header.src_port;
                d.data = std::move(payload);

                PortState& ps = it->second;
                if (!ps.waiting.empty()) {
                  auto future = ps.waiting.front();
                  ps.waiting.pop_front();
                  // Copy to user memory + wake.
                  auto& nn = node();
                  nn.mem().copy_pressure(d.data.size());
                  nn.cpu().run(
                      prio, nn.cpu().copy_cost(d.data.size()),
                      [this, future, d = std::move(d)]() mutable {
                        node().kernel().wake(
                            [future, d = std::move(d)]() mutable {
                              future.set(std::move(d));
                            });
                      });
                } else {
                  ps.ready.push_back(std::move(d));
                }
              });
}

sim::Future<UdpDatagram> UdpStack::recvfrom(int port) {
  sim::Future<UdpDatagram> result(node().sim());
  node().kernel().syscall([this, port, result]() mutable {
    auto it = ports_.find(port);
    if (it == ports_.end()) {
      ports_[port];
      it = ports_.find(port);
    }
    PortState& ps = it->second;
    if (!ps.ready.empty()) {
      UdpDatagram d = std::move(ps.ready.front());
      ps.ready.pop_front();
      auto& n = node();
      n.mem().copy_pressure(d.data.size());
      n.cpu().run(sim::CpuPriority::kKernel,
                  n.cpu().copy_cost(d.data.size()),
                  [this, result, d = std::move(d)]() mutable {
                    node().kernel().syscall_return(
                        [result, d = std::move(d)]() mutable {
                          result.set(std::move(d));
                        });
                  });
      return;
    }
    ps.waiting.push_back(result);
  });
  return result;
}

}  // namespace clicsim::tcpip
