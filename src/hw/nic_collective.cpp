#include "hw/nic_collective.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace clicsim::hw {

int binomial_parent(int rank, int root, int n) {
  const int rel = (rank - root + n) % n;
  if (rel == 0) return -1;
  return ((rel & (rel - 1)) + root) % n;  // clear the lowest set bit
}

std::vector<int> binomial_children(int rank, int root, int n) {
  const int rel = (rank - root + n) % n;
  // A child's offset is a power of two below rel's lowest set bit; the
  // root's span covers the whole job.
  int span = rel & -rel;
  if (rel == 0) {
    span = 1;
    while (span < n) span <<= 1;
  }
  std::vector<int> out;
  for (int m = span >> 1; m > 0; m >>= 1) {
    if (rel + m < n) out.push_back((rel + m + root) % n);
  }
  return out;
}

NicCollectiveEngine::NicCollectiveEngine(Nic& nic, int rank,
                                         std::vector<net::MacAddr> rank_macs,
                                         Params params)
    : nic_(&nic),
      sim_(&nic.sim()),
      rank_(rank),
      macs_(std::move(rank_macs)),
      params_(params) {
  if (macs_.empty() || rank_ < 0 || rank_ >= size()) {
    throw std::invalid_argument("NicCollectiveEngine: bad rank/job size");
  }
  nic_->set_fw_sink(net::kEtherTypeCollective,
                    [this](net::Frame f) { on_frame(std::move(f)); });
}

void NicCollectiveEngine::barrier(std::uint32_t seq,
                                  std::function<void()> done) {
  post_up(CollOp::kBarrier, 0, seq, net::Buffer::zeros(0),
          [done = std::move(done)](net::Buffer) { done(); });
}

void NicCollectiveEngine::allreduce(std::uint32_t seq,
                                    net::Buffer contribution,
                                    std::function<void(net::Buffer)> done) {
  if (contribution.size() + kCollHeaderBytes > nic_->mtu()) {
    throw std::invalid_argument(
        "NicCollectiveEngine: contribution exceeds one wire MTU");
  }
  post_up(CollOp::kAllreduce, 0, seq, std::move(contribution),
          std::move(done));
}

void NicCollectiveEngine::bcast(std::uint32_t seq, int root,
                                net::Buffer payload,
                                std::function<void(net::Buffer)> done) {
  if (payload.size() + kCollHeaderBytes > nic_->mtu()) {
    throw std::invalid_argument(
        "NicCollectiveEngine: payload exceeds one wire MTU");
  }
  Op& st = ops_[key(CollOp::kBcast, root, seq)];
  st.host_posted = true;
  st.done = std::move(done);
  if (rank_ == root) {
    st.payload = std::move(payload);
    release(CollOp::kBcast, root, seq, st);
  } else if (st.released) {
    // The down frame beat the host's descriptor (firmware cut-through kept
    // forwarding regardless).
    finish(CollOp::kBcast, root, seq, st);
  }
}

void NicCollectiveEngine::post_up(CollOp op, int root, std::uint32_t seq,
                                  net::Buffer data,
                                  std::function<void(net::Buffer)> done) {
  Op& st = ops_[key(op, root, seq)];
  st.host_posted = true;
  st.done = std::move(done);
  st.acc_bytes = std::max(st.acc_bytes, data.size());
  advance_up(op, root, seq, st);
}

void NicCollectiveEngine::advance_up(CollOp op, int root, std::uint32_t seq,
                                     Op& op_state) {
  if (!op_state.host_posted) return;
  if (op_state.up_seen <
      static_cast<int>(binomial_children(rank_, root, size()).size())) {
    return;
  }
  if (rank_ != root) {
    // Subtree complete: one combined contribution continues toward the
    // root; this rank now waits for the down wave.
    send_frame(binomial_parent(rank_, root, size()), op, 0, root, seq,
               op == CollOp::kAllreduce
                   ? net::Buffer::zeros(op_state.acc_bytes)
                   : net::Buffer::zeros(0));
    return;
  }
  if (op == CollOp::kAllreduce) {
    op_state.payload = net::Buffer::zeros(op_state.acc_bytes);
  }
  release(op, root, seq, op_state);
}

void NicCollectiveEngine::release(CollOp op, int root, std::uint32_t seq,
                                  Op& op_state) {
  op_state.released = true;
  for (int child : binomial_children(rank_, root, size())) {
    send_frame(child, op, 1, root, seq, op_state.payload);
  }
  if (op_state.host_posted) finish(op, root, seq, op_state);
}

void NicCollectiveEngine::finish(CollOp op, int root, std::uint32_t seq,
                                 Op& op_state) {
  // Detach the completion from the map before running it: the callback may
  // immediately post the next collective and touch ops_.
  auto done = std::move(op_state.done);
  net::Buffer result = std::move(op_state.payload);
  ops_.erase(key(op, root, seq));
  ++ops_completed_;
  if (done) done(std::move(result));
}

void NicCollectiveEngine::send_frame(int dst_rank, CollOp op,
                                     std::uint8_t phase, int root,
                                     std::uint32_t seq, net::Buffer payload) {
  CollHeader h;
  h.op = static_cast<std::uint8_t>(op);
  h.phase = phase;
  h.root = static_cast<std::uint16_t>(root);
  h.seq = seq;

  net::Frame f;
  f.dst = macs_.at(static_cast<std::size_t>(dst_rank));
  f.src = nic_->mac();
  f.ethertype = net::kEtherTypeCollective;
  f.header = net::HeaderBlob::of(std::move(h), kCollHeaderBytes);
  f.payload = std::move(payload);

  ++frames_sent_;
  sim_->after(params_.fw_op_latency, [this, f = std::move(f)]() mutable {
    nic_->fw_transmit(std::move(f));
  });
}

void NicCollectiveEngine::on_frame(net::Frame frame) {
  const auto* h = frame.header.get<CollHeader>();
  if (h == nullptr) return;
  const auto op = static_cast<CollOp>(h->op);
  const int root = h->root;
  const std::uint32_t seq = h->seq;
  Op& st = ops_[key(op, root, seq)];

  if (h->phase == 0) {
    // Fan-in: combine the child's contribution in firmware.
    ++st.up_seen;
    st.acc_bytes = std::max(st.acc_bytes, frame.payload.size());
    advance_up(op, root, seq, st);
    return;
  }

  // Fan-out: forward down the tree immediately (cut-through — the local
  // host's descriptor, if any, is serviced independently).
  st.payload = std::move(frame.payload);
  release(op, root, seq, st);
}

}  // namespace clicsim::hw
