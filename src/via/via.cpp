#include "via/via.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

namespace clicsim::via {

namespace {
constexpr std::uint8_t kFirst = 0x1;
constexpr std::uint8_t kLast = 0x2;
constexpr std::uint8_t kRdma = 0x4;
}  // namespace

// ================================ Vi ========================================

Vi::Vi(ViaProvider& provider, int id) : provider_(&provider), id_(id) {}

void Vi::connect(int remote_node, int remote_vi) {
  remote_node_ = remote_node;
  remote_vi_ = remote_vi;
}

void Vi::post_recv(std::int64_t capacity) {
  recv_descriptors_.push_back(capacity);
}

void Vi::register_region(std::int64_t capacity) {
  region_capacity_ = capacity;
}

void Vi::post_send(net::Buffer data) {
  ViaHeader h;
  h.vi_id = static_cast<std::uint16_t>(remote_vi_);
  h.src_node = static_cast<std::uint16_t>(provider_->node().id());
  h.offset = sent_bytes_;
  sent_bytes_ += static_cast<std::uint32_t>(data.size());
  provider_->user_send(*this, h, std::move(data), [this] {
    cq_.push_back(Completion{/*is_send=*/true, remote_node_, {}});
  });
}

void Vi::rdma_write(net::Buffer data, std::int64_t offset) {
  ViaHeader h;
  h.vi_id = static_cast<std::uint16_t>(remote_vi_);
  h.src_node = static_cast<std::uint16_t>(provider_->node().id());
  h.flags = kRdma;
  h.offset = static_cast<std::uint32_t>(offset);
  provider_->user_send(*this, h, std::move(data), [this] {
    cq_.push_back(Completion{/*is_send=*/true, remote_node_, {}});
  });
}

sim::Future<Completion> Vi::poll_wait() {
  sim::Future<Completion> future(provider_->node().sim());
  poll(future);
  return future;
}

void Vi::poll(sim::Future<Completion> future) {
  // Busy-poll: the CPU spins in user mode, one completion-queue check per
  // poll interval, until an entry appears. Low latency, 100% CPU — the
  // behaviour CLIC's interrupt-driven design trades against (section 3.2b).
  auto& cpu = provider_->node().cpu();
  cpu.run(sim::CpuPriority::kUser, provider_->config().poll_interval,
          [this, future]() mutable {
            if (cq_.empty()) {
              poll(std::move(future));
              return;
            }
            auto c = std::move(cq_.front());
            cq_.pop_front();
            future.set(std::move(c));
          });
}

void Vi::frame_in(const ViaHeader& header, net::Buffer payload) {
  if (header.flags & kRdma) {
    // The card wrote straight into the registered region.
    if (header.offset + payload.size() <= region_capacity_) {
      region_written_ = std::max<std::int64_t>(
          region_written_, header.offset + payload.size());
    }
    return;
  }

  const bool first = (header.flags & kFirst) != 0;
  if (first && recv_descriptors_.empty()) {
    // Unreliable delivery: no posted descriptor, the message is lost.
    ++dropped_;
    assembling_.abort();
    return;
  }
  // A frame that does not continue the open message follows a lost one.
  if (!first && header.offset != next_offset_) assembling_.abort();
  next_offset_ = header.offset + static_cast<std::uint32_t>(payload.size());
  if (!assembling_.add(std::move(payload), first)) return;
  if (!(header.flags & kLast)) return;

  const std::int64_t capacity = recv_descriptors_.front();
  recv_descriptors_.pop_front();
  if (assembling_.size() > capacity) {
    ++dropped_;  // descriptor too small: VIA completes in error; we drop
    assembling_.abort();
    return;
  }
  cq_.push_back(Completion{/*is_send=*/false, header.src_node,
                           assembling_.finish()});
}

// ============================= ViaProvider ===================================

ViaProvider::ViaProvider(os::Node& node, Config config,
                         const os::AddressMap& addresses)
    : node_(&node), config_(config), addresses_(&addresses) {
  for (int i = 0; i < node_->nic_count(); ++i) {
    node_->nic(i).set_rx_bypass([this](net::Frame frame) {
      packet_received(std::move(frame), /*from_isr=*/false);
    });
  }
}

Vi& ViaProvider::create_vi() {
  vis_.push_back(std::make_unique<Vi>(*this, static_cast<int>(vis_.size())));
  return *vis_.back();
}

void ViaProvider::user_send(Vi& vi, ViaHeader header, net::Buffer data,
                            std::function<void()> on_sent) {
  if (vi.remote_node_ < 0) {
    throw std::logic_error("Vi: send on an unconnected VI");
  }
  const int dst_node = vi.remote_node_;

  // User-level descriptor build + doorbell — the entire host-side cost.
  node_->cpu().run(
      sim::CpuPriority::kUser,
      config_.descriptor_build + config_.doorbell,
      [this, dst_node, header, data = std::move(data),
       on_sent = std::move(on_sent)]() mutable {
        // The card fetches the descriptor and segments the message to the
        // wire MTU in firmware; the host CPU is not involved per frame.
        node_->sim().after(config_.nic_descriptor_fetch, [this, dst_node,
                                                          header,
                                                          data = std::move(
                                                              data),
                                                          on_sent = std::move(
                                                              on_sent)]() mutable {
          const std::vector<net::Fragment> frags = net::fragments(
              data.size(), node_->nic(0).mtu() - kViaHeaderBytes);
          const auto complete =
              sim::make_join(static_cast<int>(frags.size()),
                             std::move(on_sent));
          for (std::size_t i = 0; i < frags.size(); ++i) {
            const auto [offset, len] = frags[i];
            ViaHeader h = header;
            if (i == 0) h.flags |= kFirst;
            if (i + 1 == frags.size()) h.flags |= kLast;
            h.offset = header.offset + static_cast<std::uint32_t>(offset);

            hw::Nic::TxRequest req;
            req.frame.dst = addresses_->macs_of(dst_node)[0];
            req.frame.src = node_->mac(0);
            req.frame.ethertype = net::kEtherTypeVia;
            req.frame.header = net::HeaderBlob::of(h, kViaHeaderBytes);
            req.frame.payload = len > 0 ? data.slice(offset, len)
                                        : net::Buffer::zeros(0);
            req.sg_fragments = 2;
            ++tx_frames_;
            // Kernel bypass: straight to the card, no driver. A full send
            // queue surfaces as an (error) completion — unreliable service
            // means the frame is simply lost.
            if (node_->nic(0).tx_ring_full()) {
              complete();
            } else {
              req.on_descriptor_done = complete;
              node_->nic(0).post_tx(std::move(req));
            }
          }
        });
      });
}

void ViaProvider::packet_received(net::Frame frame, bool /*from_isr*/) {
  const auto* h = frame.header.get<ViaHeader>();
  if (h == nullptr) return;
  if (h->vi_id >= vis_.size()) return;
  // Completion-queue write by the card.
  node_->sim().after(config_.completion_write, [this, header = *h,
                                                payload = std::move(
                                                    frame.payload)]() mutable {
    vis_[header.vi_id]->frame_in(header, std::move(payload));
  });
}

}  // namespace clicsim::via
