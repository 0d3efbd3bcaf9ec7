#include "gamma/gamma.hpp"

#include <utility>
#include <vector>

#include "os/skbuff.hpp"

namespace clicsim::gamma {

namespace {
constexpr std::uint8_t kFirst = 0x1;
constexpr std::uint8_t kLast = 0x2;
}  // namespace

GammaModule::GammaModule(os::Node& node, Config config,
                         const os::AddressMap& addresses)
    : node_(&node), config_(config), addresses_(&addresses) {
  for (int i = 0; i < node_->nic_count(); ++i) {
    node_->driver(i).add_protocol(net::kEtherTypeGamma, this);
    // GAMMA's whole point: the protocol runs from the ISR.
    node_->driver(i).set_direct_dispatch(true);
  }
}

GammaModule::PortState& GammaModule::port_state(int port) {
  return ports_.try_emplace(port, node_->sim()).first->second;
}

void GammaModule::register_port(int port,
                                std::function<void(Message)> handler) {
  port_state(port).handler = std::move(handler);
}

void GammaModule::open_mailbox_port(int port) { port_state(port); }

sim::Mailbox<Message>::PopAwaiter GammaModule::recv(int port) {
  return port_state(port).mailbox.pop();
}

sim::Future<bool> GammaModule::send(int dst_node, int port,
                                    net::Buffer data) {
  sim::Future<bool> result(node_->sim());
  ++tx_msgs_;

  // Lightweight system call: reduced trap, no scheduler on return.
  node_->kernel().light_syscall([this, dst_node, port, data = std::move(data),
                                 result]() mutable {
    const std::vector<net::Fragment> frags =
        net::fragments(data.size(), node_->nic(0).mtu() - kGammaHeaderBytes);
    const auto done = sim::make_join(static_cast<int>(frags.size()),
                                     [result]() mutable { result.set(true); });
    for (std::size_t i = 0; i < frags.size(); ++i) {
      const auto [offset, len] = frags[i];
      GammaHeader h;
      h.port = static_cast<std::uint8_t>(port);
      h.src_node = static_cast<std::uint16_t>(node_->id());
      if (i == 0) h.flags |= kFirst;
      if (i + 1 == frags.size()) h.flags |= kLast;
      h.seq = tx_next_[dst_node]++;
      emit(dst_node, h,
           len > 0 ? data.slice(offset, len) : net::Buffer::zeros(0), done);
    }
  });
  return result;
}

void GammaModule::emit(int dst_node, GammaHeader header, net::Buffer payload,
                       std::function<void()> on_done) {
  os::SkBuff skb;
  skb.dst = addresses_->macs_of(dst_node)[0];
  skb.src = node_->mac(0);
  skb.ethertype = net::kEtherTypeGamma;
  skb.header = net::HeaderBlob::of(header, kGammaHeaderBytes);
  skb.payload = std::move(payload);
  skb.sg_fragments = node_->nic(0).profile().scatter_gather ? 2 : 1;
  skb.references_user_memory = true;  // GAMMA sends from user pages

  // Short-message fast path: programmed I/O straight into the card FIFO —
  // the CPU pays the (small) PCI transfer itself and no DMA setup occurs.
  // Only whole (single-fragment) messages qualify: a PIO'd tail fragment
  // would overtake its DMA'd predecessors and tear the message.
  const bool single_fragment =
      (header.flags & kFirst) && (header.flags & kLast);
  if (config_.pio_threshold > 0 && single_fragment &&
      skb.payload.size() <= config_.pio_threshold) {
    net::Frame frame = skb.to_frame();
    const sim::SimTime pio = node_->pci().transaction_time(
        frame.frame_bytes(), /*efficiency=*/0.25);
    node_->pci().transfer(pio);
    node_->cpu().run(sim::CpuPriority::kKernel, config_.tx_cost + pio,
                     [this, frame = std::move(frame),
                      on_done = std::move(on_done)]() mutable {
                       node_->nic(0).post_tx_pio(std::move(frame));
                       if (on_done) on_done();
                     });
    return;
  }

  node_->cpu().run(sim::CpuPriority::kKernel, config_.tx_cost,
                   [this, skb = std::move(skb),
                    on_done = std::move(on_done)]() mutable {
                     node_->driver(0).xmit_or_queue(std::move(skb),
                                                    std::move(on_done));
                   });
}

void GammaModule::packet_received(net::Frame frame, bool from_isr) {
  const auto prio =
      from_isr ? sim::CpuPriority::kInterrupt : sim::CpuPriority::kSoftirq;
  const auto* h = frame.header.get<GammaHeader>();
  if (h == nullptr) return;
  const int src = h->src_node;

  // A sequence gap inside a message tears it: nothing is retransmitted, so
  // the source's message on this port is aborted.
  auto& next = rx_next_[src];
  const bool gap = h->seq != next && !(h->flags & kFirst);
  next = h->seq + 1;
  auto it = ports_.find(h->port);
  if (gap || it == ports_.end()) {
    if (it != ports_.end()) it->second.from[src].abort();
    ++dropped_;
    return;
  }
  PortState& ps = it->second;
  net::MessageAssembler& re = ps.from[src];

  // The active-port handler runs straight from the ISR: it moves the data
  // to user memory (charged at interrupt priority) and, on the last
  // fragment, invokes the user handler. No bottom half, no scheduler.
  const std::int64_t bytes = frame.payload.size();
  node_->mem().copy_pressure(bytes);
  node_->cpu().run(
      prio, config_.handler_cost + node_->cpu().copy_cost(bytes),
      [this, &ps, &re, src, header = *h,
       payload = std::move(frame.payload)]() mutable {
        if (!re.add(std::move(payload), (header.flags & kFirst) != 0)) {
          return;  // tail fragments of a torn message
        }
        if (!(header.flags & kLast)) return;
        ++rx_msgs_;
        Message m{src, header.port, re.finish()};
        if (ps.handler) {
          ps.handler(std::move(m));
        } else {
          ps.mailbox.push(std::move(m));
        }
      });
}

}  // namespace clicsim::gamma
