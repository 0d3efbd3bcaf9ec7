#include "via/via.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

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
  provider_->user_send(*this, h, std::move(data), [this] {
    cq_.push_back(Completion{/*is_send=*/true, remote_node_, {}});
  });
}

void Vi::rdma_write(net::Buffer data, std::int64_t offset) {
  ViaHeader h;
  h.vi_id = static_cast<std::uint16_t>(remote_vi_);
  h.src_node = static_cast<std::uint16_t>(provider_->node().id());
  h.flags = kRdma;
  h.rdma_offset = static_cast<std::uint32_t>(offset);
  provider_->user_send(*this, h, std::move(data), [this] {
    cq_.push_back(Completion{/*is_send=*/true, remote_node_, {}});
  });
}

sim::Future<Completion> Vi::poll_wait() {
  sim::Future<Completion> future(provider_->node().sim());

  // Busy-poll: the CPU spins in user mode, one completion-queue check per
  // poll interval, until an entry appears. Low latency, 100% CPU — the
  // behaviour CLIC's interrupt-driven design trades against (section 3.2b).
  auto poll = std::make_shared<std::function<void()>>();
  *poll = [this, future, poll]() mutable {
    auto& node = provider_->node();
    node.cpu().run(sim::CpuPriority::kUser,
                   provider_->config().poll_interval,
                   [this, future, poll]() mutable {
                     if (!cq_.empty()) {
                       auto c = std::move(cq_.front());
                       cq_.pop_front();
                       future.set(std::move(c));
                       *poll = nullptr;  // break the self-reference
                       return;
                     }
                     (*poll)();
                   });
  };
  (*poll)();
  return future;
}

void Vi::frame_in(const ViaHeader& header, net::Buffer payload) {
  if (header.flags & kRdma) {
    // The card wrote straight into the registered region.
    if (header.rdma_offset + payload.size() <= region_capacity_) {
      region_written_ =
          std::max<std::int64_t>(region_written_,
                                 header.rdma_offset + payload.size());
    }
    return;
  }

  if (header.flags & kFirst) {
    assembling_.clear();
    if (recv_descriptors_.empty()) {
      // Unreliable delivery: no posted descriptor, the message is lost.
      ++dropped_;
      assembling_active_ = false;
      return;
    }
    assembling_active_ = true;
  }
  if (!assembling_active_) return;

  assembling_.append(std::move(payload));
  if (!(header.flags & kLast)) return;

  assembling_active_ = false;
  const std::int64_t capacity = recv_descriptors_.front();
  recv_descriptors_.pop_front();
  if (assembling_.size() > capacity) {
    ++dropped_;  // descriptor too small: VIA completes in error; we drop
    assembling_.clear();
    return;
  }
  Completion c;
  c.is_send = false;
  c.src_node = header.src_node;
  c.data = assembling_.flatten();
  assembling_.clear();
  cq_.push_back(std::move(c));
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
          const std::int64_t chunk = node_->nic(0).mtu() - kViaHeaderBytes;
          const std::int64_t total = std::max<std::int64_t>(data.size(), 1);
          const int count = static_cast<int>((total + chunk - 1) / chunk);
          auto remaining = std::make_shared<int>(count);

          std::int64_t offset = 0;
          bool first = true;
          do {
            const std::int64_t len = std::min(chunk, data.size() - offset);
            ViaHeader h = header;
            if (first) h.flags |= kFirst;
            if (offset + len >= data.size()) h.flags |= kLast;
            if (h.flags & kRdma) {
              h.rdma_offset =
                  header.rdma_offset + static_cast<std::uint32_t>(offset);
            }

            hw::Nic::TxRequest req;
            req.frame.dst = addresses_->macs_of(dst_node)[0];
            req.frame.src = node_->mac(0);
            req.frame.ethertype = net::kEtherTypeVia;
            req.frame.header = net::HeaderBlob::of(h, kViaHeaderBytes);
            req.frame.payload = len > 0 ? data.slice(offset, len)
                                        : net::Buffer::zeros(0);
            req.sg_fragments = 2;
            auto complete = [remaining, on_sent]() mutable {
              if (--*remaining == 0 && on_sent) on_sent();
            };
            ++tx_frames_;
            // Kernel bypass: straight to the card, no driver. A full send
            // queue surfaces as an (error) completion — unreliable service
            // means the frame is simply lost.
            if (node_->nic(0).tx_ring_full()) {
              complete();
            } else {
              req.on_descriptor_done = std::move(complete);
              node_->nic(0).post_tx(std::move(req));
            }
            offset += len;
            first = false;
          } while (offset < data.size());
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
