#include "gamma/gamma.hpp"

#include <algorithm>
#include <memory>
#include <utility>

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

void GammaModule::register_port(int port,
                                std::function<void(Message)> handler) {
  ports_[port].handler = std::move(handler);
}

void GammaModule::open_mailbox_port(int port) { ports_[port]; }

sim::Future<Message> GammaModule::recv(int port) {
  sim::Future<Message> future(node_->sim());
  auto& ps = ports_[port];
  if (!ps.queue.empty()) {
    future.set(std::move(ps.queue.front()));
    ps.queue.pop_front();
  } else {
    ps.waiting.push_back(future);
  }
  return future;
}

sim::Future<bool> GammaModule::send(int dst_node, int port,
                                    net::Buffer data) {
  sim::Future<bool> result(node_->sim());
  ++tx_msgs_;

  // Lightweight system call: reduced trap, no scheduler on return.
  node_->kernel().light_syscall([this, dst_node, port, data = std::move(data),
                                 result]() mutable {
    const std::int64_t chunk = node_->nic(0).mtu() - kGammaHeaderBytes;
    const std::int64_t total = std::max<std::int64_t>(data.size(), 1);
    const int count = static_cast<int>((total + chunk - 1) / chunk);
    auto remaining = std::make_shared<int>(count);

    std::int64_t offset = 0;
    bool first = true;
    do {
      const std::int64_t len = std::min(chunk, data.size() - offset);
      GammaHeader h;
      h.port = static_cast<std::uint8_t>(port);
      h.src_node = static_cast<std::uint16_t>(node_->id());
      if (first) h.flags |= kFirst;
      if (offset + len >= data.size()) h.flags |= kLast;
      h.seq = tx_next_[dst_node]++;

      emit(dst_node, h,
           len > 0 ? data.slice(offset, len) : net::Buffer::zeros(0),
           [remaining, result]() mutable {
             if (--*remaining == 0) result.set(true);
           });
      offset += len;
      first = false;
    } while (offset < data.size());
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
  // the whole message is aborted.
  auto& next = rx_next_[src];
  const bool gap = h->seq != next && !(h->flags & kFirst);
  next = h->seq + 1;
  if (gap) {
    auto pit = ports_.find(h->port);
    if (pit != ports_.end()) {
      pit->second.assembling.clear();
      pit->second.assembling_src = -1;
    }
    ++dropped_;
    return;
  }

  auto it = ports_.find(h->port);
  if (it == ports_.end()) {
    ++dropped_;
    return;
  }
  PortState& ps = it->second;

  // The active-port handler runs straight from the ISR: it moves the data
  // to user memory (charged at interrupt priority) and, on the last
  // fragment, invokes the user handler. No bottom half, no scheduler.
  const std::int64_t bytes = frame.payload.size();
  node_->mem().copy_pressure(bytes);
  node_->cpu().run(
      prio, config_.handler_cost + node_->cpu().copy_cost(bytes),
      [this, &ps, src, header = *h,
       payload = std::move(frame.payload)]() mutable {
        if (header.flags & kFirst) {
          ps.assembling.clear();
          ps.assembling_src = src;
        } else if (ps.assembling_src < 0) {
          return;  // tail fragments of a torn message
        }
        ps.assembling.append(std::move(payload));
        if (!(header.flags & kLast)) return;

        Message m;
        m.src_node = ps.assembling_src;
        m.port = header.port;
        m.data = ps.assembling.flatten();
        ps.assembling.clear();
        ps.assembling_src = -1;
        ++rx_msgs_;
        deliver(ps, std::move(m));
      });
}

void GammaModule::deliver(PortState& port, Message message) {
  if (port.handler) {
    port.handler(std::move(message));
    return;
  }
  if (!port.waiting.empty()) {
    auto future = std::move(port.waiting.front());
    port.waiting.pop_front();
    future.set(std::move(message));
    return;
  }
  port.queue.push_back(std::move(message));
}

}  // namespace clicsim::gamma
