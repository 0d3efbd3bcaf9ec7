#include "mpi/comm.hpp"

#include <algorithm>
#include <utility>

#include "hw/nic_collective.hpp"

namespace clicsim::mpi {

Communicator::Communicator(Transport& transport, Config config)
    : transport_(&transport), config_(config) {
  transport_->set_receiver(
      [this](int src, Envelope env, net::Buffer data) {
        on_message(src, std::move(env), std::move(data));
      });
}

void Communicator::charge_match() {
  transport_->node().cpu().run(sim::CpuPriority::kUser, config_.match_cost);
}

bool Communicator::matches(const PostedRecv& posted, int src, int tag) {
  return (posted.src == kAnySource || posted.src == src) &&
         (posted.tag == kAnyTag || posted.tag == tag);
}

// --- Point to point -------------------------------------------------------------

sim::Future<bool> Communicator::send(int dst, int tag, net::Buffer data) {
  sim::Future<bool> result(transport_->sim());
  ++sent_;
  charge_match();

  Envelope env;
  env.tag = tag;
  env.total_bytes = data.size();

  if (data.size() <= config_.eager_threshold) {
    env.kind = MsgKind::kEager;
    transport_->send(dst, env, std::move(data),
                     [result]() mutable { result.set(true); });
    return result;
  }

  // Rendezvous: announce, wait for clear-to-send, then move the payload.
  ++rndv_;
  env.kind = MsgKind::kRts;
  env.msg_id = (static_cast<std::uint64_t>(rank()) << 40) | next_msg_id_++;
  rndv_sends_.emplace(env.msg_id,
                      PendingRndvSend{dst, std::move(data), result});
  transport_->send(dst, env, net::Buffer::zeros(0), {});
  return result;
}

sim::Future<RecvResult> Communicator::recv(int src, int tag) {
  sim::Future<RecvResult> result(transport_->sim());
  charge_match();

  // Search the unexpected queue first (arrival order).
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    const bool match =
        (src == kAnySource || src == it->src) &&
        (tag == kAnyTag || tag == it->envelope.tag);
    if (!match) continue;

    UnexpectedMsg msg = std::move(*it);
    unexpected_.erase(it);
    if (msg.envelope.kind == MsgKind::kRts) {
      start_rendezvous_receive(msg.src, msg.envelope, result);
    } else {
      complete_recv(result, msg.src, msg.envelope.tag, std::move(msg.data));
    }
    return result;
  }

  posted_.push_back(PostedRecv{src, tag, result});
  return result;
}

void Communicator::complete_recv(sim::Future<RecvResult> future, int src,
                                 int tag, net::Buffer data) {
  ++received_;
  RecvResult r;
  r.src = src;
  r.tag = tag;
  r.data = std::move(data);
  future.set(std::move(r));
}

void Communicator::start_rendezvous_receive(int src, const Envelope& rts,
                                            sim::Future<RecvResult> future) {
  rndv_recvs_.emplace(rts.msg_id, PendingRndvRecv{future, src, rts.tag});
  Envelope cts;
  cts.kind = MsgKind::kCts;
  cts.msg_id = rts.msg_id;
  cts.tag = rts.tag;
  transport_->send(src, cts, net::Buffer::zeros(0), {});
}

void Communicator::on_message(int src, Envelope envelope, net::Buffer data) {
  switch (envelope.kind) {
    case MsgKind::kEager:
    case MsgKind::kBcast: {
      for (auto it = posted_.begin(); it != posted_.end(); ++it) {
        if (matches(*it, src, envelope.tag)) {
          auto future = it->future;
          posted_.erase(it);
          complete_recv(std::move(future), src, envelope.tag,
                        std::move(data));
          return;
        }
      }
      ++unexpected_count_;
      unexpected_.push_back(UnexpectedMsg{src, envelope, std::move(data)});
      return;
    }

    case MsgKind::kRts: {
      for (auto it = posted_.begin(); it != posted_.end(); ++it) {
        if (matches(*it, src, envelope.tag)) {
          auto future = it->future;
          posted_.erase(it);
          start_rendezvous_receive(src, envelope, std::move(future));
          return;
        }
      }
      ++unexpected_count_;
      unexpected_.push_back(UnexpectedMsg{src, envelope, {}});
      return;
    }

    case MsgKind::kCts: {
      auto it = rndv_sends_.find(envelope.msg_id);
      if (it == rndv_sends_.end()) return;
      PendingRndvSend pending = std::move(it->second);
      rndv_sends_.erase(it);
      Envelope env;
      env.kind = MsgKind::kData;
      env.msg_id = envelope.msg_id;
      env.tag = envelope.tag;
      auto future = pending.future;
      transport_->send(pending.dst, env, std::move(pending.data),
                       [future]() mutable { future.set(true); });
      return;
    }

    case MsgKind::kData: {
      auto it = rndv_recvs_.find(envelope.msg_id);
      if (it == rndv_recvs_.end()) return;
      PendingRndvRecv pending = std::move(it->second);
      rndv_recvs_.erase(it);
      complete_recv(std::move(pending.future), pending.src, pending.tag,
                    std::move(data));
      return;
    }
  }
}

// --- Collectives ------------------------------------------------------------------

sim::Future<bool> Communicator::barrier() {
  sim::Future<bool> done(transport_->sim());
  if (config_.nic_collective != nullptr) {
    config_.nic_collective->barrier(next_coll_seq_++,
                                    [done]() mutable { done.set(true); });
    return done;
  }
  barrier_task(done);
  return done;
}

sim::Task Communicator::barrier_task(sim::Future<bool> done) {
  // Dissemination barrier: log2(n) rounds of paired messages.
  const int n = size();
  int round = 0;
  for (int k = 1; k < n; k <<= 1, ++round) {
    const int dst = (rank() + k) % n;
    const int src = (rank() - k + n) % n;
    const int tag = kInternalTagBase + 0x100 + round;
    (void)co_await send(dst, tag, net::Buffer::zeros(0));
    (void)co_await recv(src, tag);
  }
  done.set(true);
}

sim::Future<net::Buffer> Communicator::bcast(int root, net::Buffer data) {
  sim::Future<net::Buffer> done(transport_->sim());
  if (config_.nic_collective != nullptr) {
    config_.nic_collective->bcast(
        next_coll_seq_++, root, std::move(data),
        [done](net::Buffer out) mutable { done.set(std::move(out)); });
    return done;
  }
  if (transport_->has_native_bcast() && config_.use_native_bcast &&
      size() > 2) {
    if (rank() == root) {
      bcast_native_root(std::move(data), done);
    } else {
      // Wait for the broadcast payload, then confirm to the root — CLIC's
      // Ethernet broadcast is a datagram; MPI adds the confirmation.
      bcast_task(root, std::move(data), done);
    }
    return done;
  }
  bcast_task(root, std::move(data), done);
  return done;
}

sim::Task Communicator::bcast_native_root(net::Buffer data,
                                          sim::Future<net::Buffer> done) {
  Envelope env;
  env.kind = MsgKind::kBcast;
  env.tag = kInternalTagBase + 0x200;
  sim::Future<bool> sent(transport_->sim());
  transport_->bcast(env, data, [sent]() mutable { sent.set(true); });
  (void)co_await sent;
  // Collect confirmations (reliability over the Ethernet datagram).
  for (int i = 0; i < size() - 1; ++i) {
    (void)co_await recv(kAnySource, kInternalTagBase + 0x201);
  }
  done.set(std::move(data));
}

sim::Task Communicator::bcast_task(int root, net::Buffer data,
                                   sim::Future<net::Buffer> done) {
  const int n = size();
  const int tag = kInternalTagBase + 0x200;

  if (transport_->has_native_bcast() && config_.use_native_bcast && n > 2 &&
      rank() != root) {
    RecvResult r = co_await recv(root, tag);
    (void)co_await send(root, kInternalTagBase + 0x201,
                        net::Buffer::zeros(0));
    done.set(std::move(r.data));
    co_return;
  }

  // Binomial tree: take the data from the parent, then pass it down.
  const int parent = hw::binomial_parent(rank(), root, n);
  if (parent >= 0) {
    RecvResult r = co_await recv(parent, tag);
    data = std::move(r.data);
  }
  const std::vector<int> children = hw::binomial_children(rank(), root, n);
  for (const int child : children) (void)co_await send(child, tag, data);
  done.set(std::move(data));
}

sim::Future<net::Buffer> Communicator::reduce_sum(int root,
                                                  net::Buffer data) {
  sim::Future<net::Buffer> done(transport_->sim());
  reduce_task(root, std::move(data), done);
  return done;
}

sim::Task Communicator::reduce_task(int root, net::Buffer data,
                                    sim::Future<net::Buffer> done) {
  // Binomial-tree reduction toward `root`.
  const int n = size();
  const int tag = kInternalTagBase + 0x300;
  // Smallest subtree first.
  const std::vector<int> children = hw::binomial_children(rank(), root, n);
  for (auto child = children.rbegin(); child != children.rend(); ++child) {
    RecvResult r = co_await recv(*child, tag);
    // Combine contributions (element-wise sum): arithmetic cost.
    const auto combine = static_cast<sim::SimTime>(
        static_cast<double>(r.data.size()) * config_.reduce_ns_per_byte);
    sim::Future<bool> charged(transport_->sim());
    transport_->node().cpu().run(sim::CpuPriority::kUser, combine,
                                 [charged]() mutable { charged.set(true); });
    (void)co_await charged;
    data = net::Buffer::zeros(std::max(data.size(), r.data.size()));
  }
  const int parent = hw::binomial_parent(rank(), root, n);
  if (parent >= 0) {
    (void)co_await send(parent, tag, std::move(data));
    done.set(net::Buffer::zeros(0));
    co_return;
  }
  done.set(std::move(data));
}

sim::Future<net::Buffer> Communicator::allreduce_sum(net::Buffer data) {
  sim::Future<net::Buffer> done(transport_->sim());
  if (config_.nic_collective != nullptr) {
    config_.nic_collective->allreduce(
        next_coll_seq_++, std::move(data),
        [done](net::Buffer out) mutable { done.set(std::move(out)); });
    return done;
  }
  allreduce_task(std::move(data), done);
  return done;
}

sim::Task Communicator::allreduce_task(net::Buffer data,
                                       sim::Future<net::Buffer> done) {
  const std::int64_t bytes = data.size();
  net::Buffer reduced = co_await reduce_sum(0, std::move(data));
  if (rank() != 0) reduced = net::Buffer::zeros(bytes);
  net::Buffer out = co_await bcast(0, std::move(reduced));
  done.set(std::move(out));
}

sim::Future<std::vector<net::Buffer>> Communicator::gather(
    int root, net::Buffer data) {
  sim::Future<std::vector<net::Buffer>> done(transport_->sim());
  gather_task(root, std::move(data), done);
  return done;
}

sim::Task Communicator::gather_task(
    int root, net::Buffer data,
    sim::Future<std::vector<net::Buffer>> done) {
  const int n = size();
  const int tag = kInternalTagBase + 0x400;
  if (rank() != root) {
    (void)co_await send(root, tag, std::move(data));
    done.set({});
    co_return;
  }
  std::vector<net::Buffer> out(static_cast<std::size_t>(n));
  out[static_cast<std::size_t>(rank())] = std::move(data);
  for (int i = 0; i < n - 1; ++i) {
    RecvResult r = co_await recv(kAnySource, tag);
    out[static_cast<std::size_t>(r.src)] = std::move(r.data);
  }
  done.set(std::move(out));
}

sim::Future<net::Buffer> Communicator::scatter(
    int root, std::vector<net::Buffer> chunks) {
  sim::Future<net::Buffer> done(transport_->sim());
  scatter_task(root, std::move(chunks), done);
  return done;
}

sim::Task Communicator::scatter_task(int root,
                                     std::vector<net::Buffer> chunks,
                                     sim::Future<net::Buffer> done) {
  const int n = size();
  const int tag = kInternalTagBase + 0x500;
  if (rank() == root) {
    net::Buffer own;
    for (int i = 0; i < n; ++i) {
      net::Buffer chunk = i < static_cast<int>(chunks.size())
                              ? std::move(chunks[static_cast<std::size_t>(i)])
                              : net::Buffer::zeros(0);
      if (i == rank()) {
        own = std::move(chunk);
      } else {
        (void)co_await send(i, tag, std::move(chunk));
      }
    }
    done.set(std::move(own));
    co_return;
  }
  RecvResult r = co_await recv(root, tag);
  done.set(std::move(r.data));
}

sim::Future<std::vector<net::Buffer>> Communicator::alltoall(
    std::vector<net::Buffer> chunks) {
  sim::Future<std::vector<net::Buffer>> done(transport_->sim());
  alltoall_task(std::move(chunks), done);
  return done;
}

sim::Task Communicator::alltoall_task(
    std::vector<net::Buffer> chunks,
    sim::Future<std::vector<net::Buffer>> done) {
  const int n = size();
  const int tag = kInternalTagBase + 0x600;
  std::vector<net::Buffer> out(static_cast<std::size_t>(n));
  out[static_cast<std::size_t>(rank())] =
      rank() < static_cast<int>(chunks.size())
          ? std::move(chunks[static_cast<std::size_t>(rank())])
          : net::Buffer::zeros(0);

  // Rotated schedule so the sends do not all converge on rank 0 at once.
  for (int step = 1; step < n; ++step) {
    const int dst = (rank() + step) % n;
    net::Buffer chunk = dst < static_cast<int>(chunks.size())
                            ? std::move(chunks[static_cast<std::size_t>(dst)])
                            : net::Buffer::zeros(0);
    (void)co_await send(dst, tag, std::move(chunk));
  }
  for (int step = 1; step < n; ++step) {
    RecvResult r = co_await recv(kAnySource, tag);
    out[static_cast<std::size_t>(r.src)] = std::move(r.data);
  }
  done.set(std::move(out));
}

}  // namespace clicsim::mpi
