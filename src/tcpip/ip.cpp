#include "tcpip/ip.hpp"

#include <algorithm>
#include <utility>

#include "os/skbuff.hpp"

namespace clicsim::tcpip {

namespace {
std::uint64_t reassembly_key(IpAddr src, std::uint16_t id) {
  return (static_cast<std::uint64_t>(src) << 16) | id;
}
}  // namespace

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
  ++tx_;
  const std::uint16_t id = next_id_++;
  const std::int64_t mtu = node_->nic(0).mtu();
  const std::int64_t room = mtu - kIpHeaderBytes;  // per-fragment L4 bytes
  const std::int64_t total = l4_header_bytes + payload.size();

  // Fragment boundaries are computed over the L4 datagram (header + data);
  // only the first fragment carries the transport header, as in real IP.
  struct Frag {
    std::int64_t offset;  // within the L4 datagram
    std::int64_t data_off;
    std::int64_t data_len;
    bool first;
    bool last;
  };
  std::vector<Frag> frags;
  std::int64_t off = 0;
  while (off < total || frags.empty()) {
    const std::int64_t len = std::min(room, total - off);
    Frag f;
    f.offset = off;
    f.first = off == 0;
    f.data_off = f.first ? 0 : off - l4_header_bytes;
    f.data_len = f.first ? len - l4_header_bytes : len;
    f.last = off + len >= total;
    frags.push_back(f);
    off += len;
    if (len <= 0) break;  // zero-length datagram: single fragment
  }
  tx_frags_ += frags.size();

  const std::size_t n = frags.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Frag& f = frags[i];
    Ipv4Header h;
    h.src = ip_of_node(node_->id());
    h.dst = ip_of_node(dst_node);
    h.protocol = protocol;
    h.id = id;
    h.frag_offset = static_cast<std::uint16_t>(f.offset);
    h.more_fragments = !f.last;
    h.total_len = total;
    if (f.first) h.l4 = l4;

    os::SkBuff skb;
    skb.dst = addresses_->macs_of(dst_node)[0];
    skb.src = node_->mac(0);
    skb.ethertype = net::kEtherTypeIp;
    const std::int64_t hdr_bytes =
        kIpHeaderBytes + (f.first ? l4_header_bytes : 0);
    skb.header = net::HeaderBlob::of(h, hdr_bytes);
    skb.payload = f.data_len > 0 ? payload.slice(f.data_off, f.data_len)
                                 : net::Buffer::zeros(0);
    skb.sg_fragments = 1;  // the stock stack sends from kernel memory

    // IP header build + checksum (cheap, header-only).
    auto work = [this, skb = std::move(skb),
                 done = f.last ? std::move(on_done)
                               : std::function<void()>{}]() mutable {
      node_->driver(0).xmit_or_queue(std::move(skb), std::move(done));
    };
    if (front) {
      node_->cpu().run_next(prio, config_.ip_tx_cost, std::move(work));
    } else {
      node_->cpu().run(prio, config_.ip_tx_cost, std::move(work));
    }
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
                     handle_fragment(h, std::move(payload), prio);
                   });
}

void IpLayer::handle_fragment(const Ipv4Header& header, net::Buffer payload,
                              sim::CpuPriority prio) {
  auto deliver = [this, prio](std::uint8_t protocol, int src_node,
                              net::HeaderBlob l4, net::Buffer data) {
    ++rx_;
    auto it = transports_.find(protocol);
    if (it == transports_.end()) return;
    it->second->datagram_received(src_node, std::move(l4), std::move(data),
                                  prio);
  };

  const int src_node = node_of_ip(header.src);

  // Unfragmented fast path.
  if (header.frag_offset == 0 && !header.more_fragments) {
    deliver(header.protocol, src_node, header.l4, std::move(payload));
    return;
  }

  const std::uint64_t key = reassembly_key(header.src, header.id);
  auto& re = reassembly_[key];
  if (header.frag_offset == 0) re.l4 = header.l4;
  if (!header.more_fragments) re.total_len = header.total_len;

  re.fragments.emplace(header.frag_offset, std::move(payload));

  // Arm/refresh the reassembly timeout.
  os::Kernel& kernel = node_->kernel();
  kernel.cancel_timer(re.timeout);
  re.timeout = kernel.add_timer(config_.reassembly_timeout, [this, key] {
    ++reassembly_timeouts_;
    reassembly_.erase(key);
  });

  // Complete when the last fragment arrived (total_len known), fragment 0
  // arrived (it carries the L4 header, whose bytes count towards
  // total_len), and the data bytes fill the rest. Offsets are unique, so a
  // sum check suffices.
  if (re.total_len < 0 || re.fragments.count(0) == 0) return;
  const std::int64_t l4_bytes = re.l4.wire_bytes();
  std::int64_t have = 0;
  for (auto& [o, b] : re.fragments) have += b.size();
  if (l4_bytes + have < re.total_len) return;

  net::BufferChain chain;
  for (auto& [o, b] : re.fragments) chain.append(std::move(b));
  auto l4 = re.l4;
  const std::uint8_t protocol = header.protocol;
  kernel.cancel_timer(re.timeout);
  reassembly_.erase(key);
  deliver(protocol, src_node, std::move(l4), chain.flatten());
}

}  // namespace clicsim::tcpip
