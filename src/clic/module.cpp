#include "clic/module.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace clicsim::clic {

namespace {

// Reassembly key: one in-flight message per (peer, src_port, dst_port) —
// the module serializes each port pair's fragments on the in-order channel.
std::uint64_t reassembly_key(int peer, std::uint8_t src_port,
                             std::uint8_t dst_port, bool broadcast) {
  return (static_cast<std::uint64_t>(broadcast) << 40) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(peer))
          << 16) |
         (static_cast<std::uint64_t>(src_port) << 8) | dst_port;
}

}  // namespace

ClicModule::ClicModule(os::Node& node, Config config,
                       const os::AddressMap& addresses)
    : node_(&node), config_(config), addresses_(&addresses) {
  for (int i = 0; i < node_->nic_count(); ++i) {
    node_->driver(i).add_protocol(net::kEtherTypeClic, this);
    node_->driver(i).set_direct_dispatch(config_.direct_dispatch);
  }
}

ClicModule::~ClicModule() = default;

void ClicModule::bind_port(int port) { ports_[port]; }

void ClicModule::unbind_port(int port) {
  auto it = ports_.find(port);
  if (it == ports_.end()) return;
  auto waiting = std::move(it->second.waiting);
  ports_.erase(it);
  for (auto& future : waiting) {
    Message closed;
    closed.src_node = -1;
    future.set(std::move(closed));
  }
}

bool ClicModule::poll(int port) const {
  auto it = ports_.find(port);
  return it != ports_.end() && !it->second.ready.empty();
}

ClicModule::PortState& ClicModule::port_state(int port) {
  auto it = ports_.find(port);
  if (it == ports_.end()) {
    throw std::logic_error("ClicModule: port not bound");
  }
  return it->second;
}

Channel& ClicModule::channel(int peer) {
  auto it = channels_.find(peer);
  if (it == channels_.end()) {
    // The ChannelOps base is private; the upcast is only accessible here.
    ChannelOps& ops = *this;
    it = channels_.emplace(peer, std::make_unique<Channel>(config_, ops, peer))
             .first;
  }
  return *it->second;
}

Channel* ClicModule::channel_to(int peer) {
  auto it = channels_.find(peer);
  return it == channels_.end() ? nullptr : it->second.get();
}

void ClicModule::AdaptiveStats::merge(const AdaptiveStats& other) {
  rtt_samples += other.rtt_samples;
  window_collapses += other.window_collapses;
  srtt_max = std::max(srtt_max, other.srtt_max);
  rttvar_max = std::max(rttvar_max, other.rttvar_max);
  if (other.window_max == 0) return;  // opened no window
  window_min = window_max == 0 ? other.window_min
                               : std::min(window_min, other.window_min);
  window_max = std::max(window_max, other.window_max);
}

ClicModule::AdaptiveStats ClicModule::adaptive_stats() const {
  AdaptiveStats stats;
  for (const auto& [peer, ch] : channels_) {
    stats.merge({ch->rtt().samples(), ch->window_collapses(),
                 ch->rtt().srtt(), ch->rtt().rttvar(), ch->window_min(),
                 ch->window_max()});
  }
  return stats;
}

std::int64_t ClicModule::chunk_bytes() const {
  if (config_.use_nic_fragmentation &&
      node_->nic(0).profile().on_nic_fragmentation) {
    return config_.nic_frag_super_bytes - kClicHeaderBytes;
  }
  return node_->nic(0).mtu() - kClicHeaderBytes;
}

// --- Send path ---------------------------------------------------------------

sim::Future<SendStatus> ClicModule::send(int src_port, int dst_node,
                                         int dst_port, net::Buffer data,
                                         SendMode mode, PacketType type,
                                         net::HeaderBlob meta) {
  sim::Future<SendStatus> result(sim());
  ++messages_sent_;
  bytes_sent_ += data.size();

  if (dst_node == node_->id()) {
    send_intra_node(src_port, dst_port, std::move(data), type,
                    std::move(meta), result);
    return result;
  }

  kernel().syscall([this, src_port, dst_node, dst_port,
                    data = std::move(data), mode, type,
                    meta = std::move(meta), result]() mutable {
    const std::vector<net::Fragment> frags =
        net::fragments(data.size(), chunk_bytes(), meta.wire_bytes());
    std::deque<Packet> packets;
    for (std::size_t i = 0; i < frags.size(); ++i) {
      const auto [offset, len] = frags[i];
      Packet p;
      p.header.type = type;
      if (i == 0) p.upper = meta;
      p.header.src_port = static_cast<std::uint8_t>(src_port);
      p.header.dst_port = static_cast<std::uint8_t>(dst_port);
      if (i == 0) p.header.flags |= flags::kFirstFragment;
      if (i + 1 == frags.size()) {
        p.header.flags |= flags::kLastFragment;
        if (mode == SendMode::kConfirmed) {
          p.header.flags |= flags::kAckRequested;
        }
      }
      p.payload = len > 0 ? data.slice(offset, len) : net::Buffer::zeros(0);
      packets.push_back(std::move(p));
    }
    send_packets(dst_node, std::move(packets), mode, result);
  });
  return result;
}

// A message's packets on their way into the reliable channel. Each is
// charged the module's per-packet cost and its TX-path preparation in turn,
// so emission overlaps DMA of earlier packets. A channel give-up after the
// first packet went in may have abandoned some of them, and the peer would
// append the rest to its open reassembly: a torn message. So a changed
// give-up count stops the message and fails the send.
struct ClicModule::Outgoing : std::enable_shared_from_this<Outgoing> {
  Outgoing(ClicModule* m, int dst, SendMode md, sim::Future<SendStatus> r,
           std::deque<Packet> p)
      : module(m), dst_node(dst), mode(md), result(std::move(r)),
        packets(std::move(p)) {}

  ClicModule* module;
  int dst_node;
  SendMode mode;
  sim::Future<SendStatus> result;
  std::deque<Packet> packets;
  Packet current;  // the packet being prepared
  // The channel's gave_up() when the first packet entered it.
  std::optional<std::uint64_t> gave_up_at;
  bool finished = false;  // result future already resolved
  // kSync: the descriptor join's failure flag (the join cannot hold the
  // Outgoing, whose packets hold the join).
  std::shared_ptr<bool> abandoned;

  void next();
  void enter_channel(bool last);
  void finish(bool ok);
};

void ClicModule::send_packets(int dst_node, std::deque<Packet> packets,
                              SendMode mode,
                              sim::Future<SendStatus> result) {
  auto out = std::make_shared<Outgoing>(this, dst_node, mode, result,
                                        std::move(packets));
  if (mode == SendMode::kSync) {
    out->abandoned = std::make_shared<bool>(false);
    const auto done = sim::make_join(
        static_cast<int>(out->packets.size()),
        [this, result, abandoned = out->abandoned] {
          finish_send(result, !*abandoned);
        });
    for (auto& p : out->packets) p.on_descriptor_done = done;
  }
  out->next();
}

void ClicModule::Outgoing::next() {
  if (packets.empty()) {
    if (mode == SendMode::kAsync) finish(true);
    return;
  }
  current = std::move(packets.front());
  packets.pop_front();
  const bool last = packets.empty();

  // CLIC_MODULE header build, then the data-path preparation (Figure 1),
  // then the packet enters the reliable channel.
  module->node_->cpu().run(
      sim::CpuPriority::kKernel, module->config_.module_tx_cost,
      [self = shared_from_this(), last] {
        self->module->prepare_packet_data(
            self->current, [self, last] { self->enter_channel(last); });
      });
}

void ClicModule::Outgoing::enter_channel(bool last) {
  Channel& channel = module->channel(dst_node);
  if (!gave_up_at) {
    gave_up_at = channel.gave_up();
  } else if (channel.gave_up() != *gave_up_at) {
    if (mode == SendMode::kSync) {
      // Release the unsent packets' descriptor joins: the send resolves,
      // failed, once the DMA already posted completes.
      *abandoned = true;
      current.on_descriptor_done();
      for (auto& p : packets) p.on_descriptor_done();
    } else {
      finish(false);
    }
    packets.clear();
    return;
  }
  Channel::SendCallback on_result;
  if (mode == SendMode::kConfirmed) {
    // Every fragment reports back: the last one resolves the send, and any
    // abandoned fragment fails it early.
    on_result = [self = shared_from_this(), last](bool ok) {
      if (ok && !last) return;
      self->finish(ok);
    };
  }
  channel.send(std::move(current), std::move(on_result));
  next();
}

void ClicModule::Outgoing::finish(bool ok) {
  if (finished) return;
  finished = true;
  module->finish_send(result, ok);
}

void ClicModule::finish_send(sim::Future<SendStatus> result, bool ok) {
  kernel().syscall_return([result, ok]() mutable {
    result.set(SendStatus{ok, ok ? SendError::kNone : SendError::kTimedOut});
  });
}

void ClicModule::prepare_packet_data(Packet& packet,
                                     std::function<void()> next) {
  auto& cpu = node_->cpu();
  TxPath path = config_.tx_path;
  if (path == TxPath::kZeroCopy && !node_->nic(0).profile().scatter_gather) {
    path = TxPath::kOneCopy;  // card cannot DMA from scattered user pages
  }

  const std::int64_t n = packet.payload.size();
  sim::SimTime cost = 0;
  switch (path) {
    case TxPath::kZeroCopy:
      // Path 2: the SK_BUFF points at user memory; no CPU copy at all.
      packet.user_memory = true;
      packet.sg_fragments = 2;  // header block + user data
      break;

    case TxPath::kOneCopy:
      // Path 3: one copy into a kernel buffer, DMA from there.
      node_->mem().copy_pressure(n);
      cost = cpu.copy_cost(n);
      break;

    case TxPath::kTwoCopy:
      // Path 4 (Fast Ethernet CLIC): kernel buffer plus a staging copy
      // towards the card's output buffer.
      node_->mem().copy_pressure(n);
      node_->mem().copy_pressure(n);
      cost = 2 * cpu.copy_cost(n);
      break;

    case TxPath::kDirectPio:
      // Path 1: the CPU itself pushes the bytes across PCI (programmed
      // I/O) — extremely slow per byte, which is why nobody uses it.
      packet.pio = true;
      cost = node_->pci().transaction_time(
          n + kClicHeaderBytes + net::kEthHeaderBytes + net::kEthFcsBytes,
          /*efficiency=*/0.15);
      node_->pci().transfer(cost);
      break;
  }
  cpu.run(sim::CpuPriority::kKernel, cost, std::move(next));
}

void ClicModule::emit_data(int peer, Packet& packet) {
  // Snapshot everything needed for the asynchronous emission; the stored
  // Packet in the channel keeps the authoritative copy for retransmission.
  const int nic_index =
      (!config_.channel_bonding || node_->nic_count() == 1)
          ? 0
          : (rr_nic_ = (rr_nic_ + 1) % node_->nic_count());

  const auto& peer_macs = addresses_->macs_of(peer);
  os::SkBuff skb;
  skb.dst = peer_macs[static_cast<std::size_t>(nic_index) % peer_macs.size()];
  skb.src = node_->mac(nic_index);
  skb.ethertype = net::kEtherTypeClic;
  skb.header = net::HeaderBlob::of(
      WireHeader{packet.header, packet.upper},
      kClicHeaderBytes + packet.upper.wire_bytes());
  skb.payload = packet.payload;
  skb.sg_fragments = packet.sg_fragments;
  skb.references_user_memory = packet.user_memory;

  auto on_done = packet.on_descriptor_done;
  const bool pio = packet.pio;

  node_->cpu().run(
      sim::CpuPriority::kKernel, config_.driver_tx_cost,
      [this, nic_index, skb = std::move(skb), on_done = std::move(on_done),
       pio]() mutable {
        auto& driver = node_->driver(nic_index);
        if (pio) {
          driver.nic().post_tx_pio(std::move(skb).to_frame());
          if (on_done) on_done();
          return;
        }
        if (driver.nic().tx_ring_full() && skb.references_user_memory) {
          // Ring full: the module stages the data in system memory so the
          // user buffer is released, and the driver sends it later
          // (section 3.1). The copy overlaps other packets' DMA.
          const std::int64_t n = skb.payload.size();
          node_->mem().copy_pressure(n);
          skb.references_user_memory = false;
          skb.sg_fragments = 1;
          node_->cpu().run(sim::CpuPriority::kKernel,
                           node_->cpu().copy_cost(n),
                           [this, nic_index, skb = std::move(skb),
                            on_done = std::move(on_done)]() mutable {
                             node_->driver(nic_index).xmit_or_queue(
                                 std::move(skb), std::move(on_done));
                           });
          return;
        }
        driver.xmit_or_queue(std::move(skb), std::move(on_done));
      });
}

void ClicModule::emit_ack(int peer, const ClicHeader& header) {
  os::SkBuff skb;
  skb.dst = addresses_->macs_of(peer)[0];
  skb.src = node_->mac(0);
  skb.ethertype = net::kEtherTypeClic;
  skb.header = net::HeaderBlob::of(WireHeader{header, {}}, kClicHeaderBytes);
  skb.payload = net::Buffer::zeros(0);

  // Pure acks are emitted inline from the receive context that owed them
  // (the bottom half), ahead of the remaining packet backlog.
  node_->cpu().run_next(rx_prio_, config_.ack_tx_cost,
                        [this, skb = std::move(skb)]() mutable {
                          node_->driver(0).xmit_or_queue(std::move(skb));
                        });
}

// --- Intra-node path ----------------------------------------------------------

void ClicModule::send_intra_node(int src_port, int dst_port,
                                 net::Buffer data, PacketType type,
                                 net::HeaderBlob meta,
                                 sim::Future<SendStatus> result) {
  ++intra_node_;
  kernel().syscall([this, src_port, dst_port, data = std::move(data), type,
                    meta = std::move(meta), result]() mutable {
    // One copy user -> system memory; the receive side copies system ->
    // user as with any queued message. No NIC involved.
    node_->cpu().run(sim::CpuPriority::kKernel, config_.module_tx_cost);
    node_->copy_data(sim::CpuPriority::kKernel, data.size(),
            [this, src_port, dst_port, data = std::move(data), type,
             meta = std::move(meta), result]() mutable {
              Message m;
              m.src_node = node_->id();
              m.src_port = static_cast<std::uint8_t>(src_port);
              m.dst_port = static_cast<std::uint8_t>(dst_port);
              m.type = type;
              m.meta = std::move(meta);
              m.data = std::move(data);
              ++messages_received_;
              bytes_received_ += m.data.size();
              deliver_message(std::move(m), sim::CpuPriority::kKernel);
              kernel().syscall_return(
                  [result]() mutable { result.set({true}); });
            });
  });
}

// --- Broadcast ------------------------------------------------------------------

sim::Future<SendStatus> ClicModule::broadcast(int src_port, int dst_port,
                                              net::Buffer data,
                                              net::HeaderBlob meta) {
  return datagram_to(net::MacAddr::broadcast(), src_port, dst_port,
                     std::move(data), std::move(meta));
}

void ClicModule::join_group(int group_id) {
  for (int i = 0; i < node_->nic_count(); ++i) {
    node_->nic(i).join_multicast(
        net::MacAddr::multicast(static_cast<std::uint32_t>(group_id)));
  }
}

void ClicModule::leave_group(int group_id) {
  for (int i = 0; i < node_->nic_count(); ++i) {
    node_->nic(i).leave_multicast(
        net::MacAddr::multicast(static_cast<std::uint32_t>(group_id)));
  }
}

sim::Future<SendStatus> ClicModule::multicast(int group_id, int src_port,
                                              int dst_port, net::Buffer data,
                                              net::HeaderBlob meta) {
  return datagram_to(
      net::MacAddr::multicast(static_cast<std::uint32_t>(group_id)),
      src_port, dst_port, std::move(data), std::move(meta));
}

sim::Future<SendStatus> ClicModule::datagram_to(net::MacAddr dst,
                                                int src_port, int dst_port,
                                                net::Buffer data,
                                                net::HeaderBlob meta) {
  sim::Future<SendStatus> result(sim());
  ++messages_sent_;
  bytes_sent_ += data.size();

  kernel().syscall([this, dst, src_port, dst_port, data = std::move(data),
                    meta = std::move(meta), result]() mutable {
    const std::vector<net::Fragment> frags =
        net::fragments(data.size(), chunk_bytes(), meta.wire_bytes());
    const auto done =
        sim::make_join(static_cast<int>(frags.size()),
                       [this, result] { finish_send(result, true); });

    for (std::size_t i = 0; i < frags.size(); ++i) {
      const auto [offset, len] = frags[i];
      ClicHeader h;
      h.type = PacketType::kBroadcast;
      h.src_port = static_cast<std::uint8_t>(src_port);
      h.dst_port = static_cast<std::uint8_t>(dst_port);
      h.seq = datagram_seq_++;
      if (i == 0) h.flags |= flags::kFirstFragment;
      if (i + 1 == frags.size()) h.flags |= flags::kLastFragment;

      os::SkBuff skb;
      skb.dst = dst;
      skb.src = node_->mac(0);
      skb.ethertype = net::kEtherTypeClic;
      const net::HeaderBlob upper = i == 0 ? meta : net::HeaderBlob{};
      skb.header = net::HeaderBlob::of(WireHeader{h, upper},
                                       kClicHeaderBytes + upper.wire_bytes());
      skb.payload =
          len > 0 ? data.slice(offset, len) : net::Buffer::zeros(0);
      skb.sg_fragments = node_->nic(0).profile().scatter_gather ? 2 : 1;

      node_->cpu().run(
          sim::CpuPriority::kKernel,
          config_.module_tx_cost + config_.driver_tx_cost,
          [this, skb = std::move(skb), done]() mutable {
            node_->driver(0).xmit_or_queue(std::move(skb), done);
          });
    }
  });
  return result;
}

void ClicModule::handle_broadcast(int peer, const ClicHeader& header,
                                  net::HeaderBlob upper, net::Buffer payload,
                                  sim::CpuPriority prio) {
  auto& re = reassembly_[reassembly_key(peer, header.src_port,
                                        header.dst_port, true)];
  const bool first = (header.flags & flags::kFirstFragment) != 0;
  // Nothing retransmits a datagram: a hole in the sender's datagram frame
  // sequence inside a message means a lost frame, and the torn message is
  // dropped.
  auto& next = datagram_next_[peer];
  if (!first && header.seq != next) re.assembler.abort();
  next = header.seq + 1;
  if (!re.assembler.add(std::move(payload), first)) return;
  if (first) re.meta = std::move(upper);
  if (!(header.flags & flags::kLastFragment)) return;

  Message m;
  m.src_node = peer;
  m.src_port = header.src_port;
  m.dst_port = header.dst_port;
  m.type = PacketType::kBroadcast;
  m.meta = std::move(re.meta);
  m.data = re.assembler.finish();
  ++messages_received_;
  bytes_received_ += m.data.size();
  deliver_message(std::move(m), prio);
}

// --- Remote write ----------------------------------------------------------------

void ClicModule::register_region(int region_id, std::int64_t capacity) {
  auto& r = regions_[region_id];
  r.capacity = capacity;
  if (!r.trigger) r.trigger = std::make_unique<sim::Trigger>(sim());
}

sim::Future<SendStatus> ClicModule::remote_write(int dst_node, int region_id,
                                                 net::Buffer data,
                                                 SendMode mode) {
  return send(/*src_port=*/0, dst_node, /*dst_port=*/region_id,
              std::move(data), mode, PacketType::kRemoteWrite);
}

std::int64_t ClicModule::region_bytes(int region_id) const {
  auto it = regions_.find(region_id);
  return it == regions_.end() ? 0 : it->second.data.size();
}

net::Buffer ClicModule::region_contents(int region_id) const {
  auto it = regions_.find(region_id);
  if (it == regions_.end()) return net::Buffer::zeros(0);
  return it->second.data.flatten();
}

sim::Trigger& ClicModule::region_trigger(int region_id) {
  auto it = regions_.find(region_id);
  if (it == regions_.end()) {
    throw std::logic_error("ClicModule: region not registered");
  }
  return *it->second.trigger;
}

void ClicModule::finish_remote_write(Message message,
                                     sim::CpuPriority prio) {
  auto it = regions_.find(message.dst_port);
  if (it == regions_.end()) return;  // unregistered region: protection drop
  Region& region = it->second;
  if (region.data.size() + message.data.size() > region.capacity) return;

  // The module moves the data straight into the registered user region —
  // no receive call involved (step 7 of Figure 3).
  const int region_id = message.dst_port;
  node_->copy_data(prio, message.data.size(),
                   [this, region_id, data = std::move(message.data)]() mutable {
                     auto rit = regions_.find(region_id);
                     if (rit == regions_.end()) return;
                     rit->second.data.append(std::move(data));
                     rit->second.trigger->fire();
                   });
}

// --- Kernel functions ---------------------------------------------------------

void ClicModule::register_kernel_fn(int fn_id,
                                    std::function<void(Message)> fn) {
  kernel_fns_[fn_id] = std::move(fn);
}

// --- Receive path -----------------------------------------------------------------

void ClicModule::packet_received(net::Frame frame, bool from_isr) {
  const auto prio =
      from_isr ? sim::CpuPriority::kInterrupt : sim::CpuPriority::kSoftirq;
  const auto* wire = frame.header.get<WireHeader>();
  if (wire == nullptr) return;
  if (!addresses_->knows(frame.src)) return;
  const int peer = addresses_->node_of(frame.src);

  node_->cpu().run(prio, config_.module_rx_cost,
                   [this, peer, h = wire->clic, upper = wire->upper,
                    payload = std::move(frame.payload), prio]() mutable {
                     rx_prio_ = prio;
                     if (h.type == PacketType::kBroadcast) {
                       handle_broadcast(peer, h, std::move(upper),
                                        std::move(payload), prio);
                       return;
                     }
                     channel(peer).packet_in(h, std::move(upper),
                                             std::move(payload));
                   });
}

void ClicModule::deliver(int peer, Packet packet) {
  const std::int64_t frag_bytes = packet.payload.size();
  bytes_received_ += frag_bytes;
  auto& re = reassembly_[reassembly_key(peer, packet.header.src_port,
                                        packet.header.dst_port, false)];
  const bool first = (packet.header.flags & flags::kFirstFragment) != 0;
  if (!re.assembler.add(std::move(packet.payload), first)) return;
  if (first) {
    re.meta = std::move(packet.upper);
    re.copy.reset();
    re.copied = 0;
  }

  // If a process is already blocked in recv on this port, the module copies
  // each packet straight to its user memory as it arrives — the copy then
  // overlaps the DMA of later packets.
  const bool to_port = packet.header.type != PacketType::kRemoteWrite &&
                       packet.header.type != PacketType::kKernelFn;
  if (to_port && frag_bytes > 0) {
    auto pit = ports_.find(packet.header.dst_port);
    if (pit != ports_.end() && !pit->second.waiting.empty()) {
      if (!re.copy) {
        re.copy = std::make_shared<os::CopyChain>(*node_, rx_prio_);
      }
      re.copy->add(frag_bytes);
      re.copied += frag_bytes;
    }
  }

  if (!(packet.header.flags & flags::kLastFragment)) return;

  Message m;
  m.src_node = peer;
  m.src_port = packet.header.src_port;
  m.dst_port = packet.header.dst_port;
  m.type = packet.header.type;
  m.meta = std::move(re.meta);
  m.data = re.assembler.finish();
  ++messages_received_;
  deliver_message(std::move(m), rx_prio_, std::move(re.copy), re.copied);
}

// --- Delivery / receive -------------------------------------------------------

void ClicModule::deliver_message(Message message, sim::CpuPriority prio,
                                 std::shared_ptr<os::CopyChain> chain,
                                 std::int64_t copied) {
  switch (message.type) {
    case PacketType::kRemoteWrite:
      finish_remote_write(std::move(message), prio);
      return;
    case PacketType::kKernelFn: {
      auto fit = kernel_fns_.find(message.dst_port);
      if (fit != kernel_fns_.end()) fit->second(std::move(message));
      return;
    }
    default:
      break;
  }
  auto it = ports_.find(message.dst_port);
  if (it == ports_.end()) return;  // protection: nothing listens on this port
  PortState& ps = it->second;
  if (!ps.waiting.empty()) {
    auto future = std::move(ps.waiting.front());
    ps.waiting.pop_front();
    complete_recv(std::move(future), std::move(message), prio,
                  /*wake_process=*/true, std::move(chain), copied);
    return;
  }
  // No receive posted: the packet stays in system memory until one arrives.
  ps.ready.push_back(std::move(message));
}

void ClicModule::complete_recv(sim::Future<Message> future, Message message,
                               sim::CpuPriority prio, bool wake_process,
                               std::shared_ptr<os::CopyChain> chain,
                               std::int64_t copied) {
  if (!chain) chain = std::make_shared<os::CopyChain>(*node_, prio);
  chain->add(message.data.size() - copied);
  chain->finish([this, chain, future = std::move(future),
                 message = std::move(message), wake_process]() mutable {
    auto resume = [future = std::move(future),
                   message = std::move(message)]() mutable {
      future.set(std::move(message));
    };
    if (wake_process) {
      kernel().wake(std::move(resume));
    } else {
      kernel().syscall_return(std::move(resume));
    }
  });
}

sim::Future<Message> ClicModule::recv(int port) {
  sim::Future<Message> future(sim());
  kernel().syscall([this, port, future]() mutable {
    PortState& ps = port_state(port);
    if (!ps.ready.empty()) {
      Message m = std::move(ps.ready.front());
      ps.ready.pop_front();
      complete_recv(std::move(future), std::move(m),
                    sim::CpuPriority::kKernel, /*wake_process=*/false);
      return;
    }
    ps.waiting.push_back(std::move(future));
  });
  return future;
}

}  // namespace clicsim::clic
