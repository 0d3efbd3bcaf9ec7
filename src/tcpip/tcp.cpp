#include "tcpip/tcp.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace clicsim::tcpip {

namespace {

// 32-bit sequence-space comparisons (wraparound-safe).
bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
bool seq_gt(std::uint32_t a, std::uint32_t b) { return seq_lt(b, a); }

// Takes the first `n` bytes (all present) off a queue of stream buffers,
// splitting the buffer the cut falls in.
net::Buffer take_front(std::deque<net::Buffer>& queue, std::int64_t n) {
  net::BufferChain chain;
  while (n > 0) {
    net::Buffer& front = queue.front();
    if (front.size() <= n) {
      n -= front.size();
      chain.append(std::move(front));
      queue.pop_front();
    } else {
      chain.append(front.slice(0, n));
      front = front.slice(n, front.size() - n);
      n = 0;
    }
  }
  return chain.flatten();
}

}  // namespace

// ============================== TcpSocket ====================================

TcpSocket::TcpSocket(TcpStack& stack, int local_port)
    : stack_(&stack),
      local_port_(local_port),
      rto_timer_(stack.node().kernel()),
      probe_timer_(stack.node().kernel()),
      delack_timer_(stack.node().kernel()) {}

std::int64_t TcpSocket::mss() const {
  return stack_->node().nic(0).mtu() - kIpHeaderBytes - kTcpHeaderBytes;
}

std::int64_t TcpSocket::in_flight() const {
  return static_cast<std::int64_t>(snd_nxt_ - snd_una_);
}

std::int64_t TcpSocket::sndbuf_bytes_used() const {
  return unsent_bytes_ + in_flight();
}

std::int64_t TcpSocket::rcv_window() const {
  const std::int64_t used = rcv_queued_bytes_;
  return std::max<std::int64_t>(stack_->config().rcvbuf - used, 0);
}

void TcpSocket::become_established() {
  state_ = State::kEstablished;
  cwnd_ = stack_->config().init_cwnd_segments * mss();
  if (connect_future_) {
    auto f = *connect_future_;
    connect_future_.reset();
    f.set(true);
  }
  pump_send_requests();
  try_output();
}

sim::Future<bool> TcpSocket::connect(int dst_node, int dst_port) {
  sim::Future<bool> result(stack_->node().sim());
  if (state_ != State::kClosed) {
    result.set(false);
    return result;
  }
  remote_node_ = dst_node;
  remote_port_ = dst_port;
  connect_future_ = result;
  stack_->register_connection(this);

  stack_->node().kernel().syscall([this] {
    state_ = State::kSynSent;
    SentSegment syn;
    syn.flags = tcpflags::kSyn;
    syn.virtual_len = 1;
    unacked_.emplace(0u, syn);
    snd_nxt_ = 1;
    emit_segment(0, syn);
    arm_rto();
    stack_->node().kernel().syscall_return();
  });
  return result;
}

// --- Send side ---------------------------------------------------------------

sim::Future<std::int64_t> TcpSocket::send(net::Buffer data) {
  sim::Future<std::int64_t> result(stack_->node().sim());
  stack_->node().kernel().syscall([this, data = std::move(data),
                                   result]() mutable {
    send_requests_.push_back(SendRequest{std::move(data), 0, result});
    pump_send_requests();
  });
  return result;
}

void TcpSocket::pump_send_requests() {
  if (send_requests_.empty()) return;
  SendRequest& req = send_requests_.front();

  if (req.offset == req.data.size()) {
    auto future = req.future;
    const std::int64_t n = req.data.size();
    send_requests_.pop_front();
    stack_->node().kernel().syscall_return(
        [future, n]() mutable { future.set(n); });
    pump_send_requests();
    return;
  }

  const std::int64_t space =
      stack_->config().sndbuf - sndbuf_bytes_used();
  if (space <= 0) return;  // resumed from process_ack when space opens

  const std::int64_t take =
      std::min(space, req.data.size() - req.offset);
  // The slice joins the stream now, in offset order. Copies re-entered from
  // process_ack can finish out of order (each chunk of a long copy queues
  // behind newer kernel work), so a completion releases the next `take`
  // stream bytes rather than its own slice.
  unsent_.push_back(req.data.slice(req.offset, take));
  req.offset += take;

  // The copy into kernel socket memory — TCP's first copy.
  stack_->node().copy_data(sim::CpuPriority::kKernel, take, [this, take] {
    unsent_bytes_ += take;
    try_output();
    pump_send_requests();
  });
}

void TcpSocket::try_output() {
  if (state_ != State::kEstablished && state_ != State::kFinSent &&
      state_ != State::kSynRcvd) {
    return;
  }

  while (unsent_bytes_ > 0) {
    const std::int64_t wnd = std::min(snd_wnd_, cwnd_);
    const std::int64_t budget = wnd - in_flight();
    if (budget <= 0) {
      if (snd_wnd_ == 0 && in_flight() == 0) arm_zero_window_probe();
      return;
    }
    // Nagle: hold a sub-MSS segment while data is outstanding.
    if (!stack_->config().nodelay && unsent_bytes_ < mss() &&
        in_flight() > 0) {
      return;
    }
    const std::int64_t len =
        std::min({mss(), unsent_bytes_, budget});
    unsent_bytes_ -= len;

    SentSegment seg;
    seg.data = take_front(unsent_, len);
    seg.flags = tcpflags::kAck;
    if (unsent_bytes_ == 0) seg.flags |= tcpflags::kPsh;
    seg.virtual_len = len;

    const std::uint32_t seq = snd_nxt_;
    snd_nxt_ += static_cast<std::uint32_t>(len);
    emit_segment(seq, seg);
    unacked_.emplace(seq, std::move(seg));
    arm_rto();
  }

  if (fin_pending_ && !fin_sent_ && unsent_bytes_ == 0) {
    SentSegment fin;
    fin.flags = tcpflags::kFin | tcpflags::kAck;
    fin.virtual_len = 1;
    const std::uint32_t seq = snd_nxt_;
    snd_nxt_ += 1;
    emit_segment(seq, fin);
    unacked_.emplace(seq, std::move(fin));
    fin_sent_ = true;
    state_ = State::kFinSent;
    arm_rto();
  }
}

void TcpSocket::emit_segment(std::uint32_t seq, const SentSegment& segment) {
  TcpHeader h;
  h.src_port = static_cast<std::uint16_t>(local_port_);
  h.dst_port = static_cast<std::uint16_t>(remote_port_);
  h.seq = seq;
  h.ack = rcv_nxt_;
  h.flags = segment.flags;
  h.window = rcv_window();

  // Sending any segment piggybacks the current ack.
  segs_since_ack_ = 0;
  delack_timer_.cancel();
  last_advertised_zero_ = h.window == 0;

  const auto& cfg = stack_->config();
  auto& node = stack_->node();
  const std::int64_t bytes = segment.data.size();
  const sim::SimTime charge =
      cfg.tcp_tx_cost + node.cpu().checksum_cost(bytes) +
      static_cast<sim::SimTime>(static_cast<double>(bytes) *
                                cfg.tcp_tx_per_byte_ns);
  node.mem().checksum_pressure(bytes);
  node.cpu().run(sim::CpuPriority::kKernel, charge,
                 [this, h, data = segment.data]() mutable {
                   stack_->emit(remote_node_, h, std::move(data));
                 });
}

void TcpSocket::send_ack_now(sim::CpuPriority prio) {
  TcpHeader h;
  h.src_port = static_cast<std::uint16_t>(local_port_);
  h.dst_port = static_cast<std::uint16_t>(remote_port_);
  h.seq = snd_nxt_;
  h.ack = rcv_nxt_;
  h.flags = tcpflags::kAck;
  h.window = rcv_window();

  segs_since_ack_ = 0;
  delack_timer_.cancel();
  last_advertised_zero_ = h.window == 0;

  // The ack is emitted inline as part of the segment processing that owed
  // it (run_next): queueing it behind the rest of the softirq backlog
  // would batch acks and stall the sender's window.
  auto& node = stack_->node();
  node.cpu().run_next(prio, stack_->config().tcp_tx_cost, [this, h, prio] {
    stack_->emit(remote_node_, h, net::Buffer::zeros(0), prio, /*front=*/true);
  });
}

void TcpSocket::note_ack_owed(bool push, sim::CpuPriority prio) {
  ++segs_since_ack_;
  if (push || segs_since_ack_ >= stack_->config().delack_segments) {
    send_ack_now(prio);
    return;
  }
  delack_timer_.arm(stack_->config().delack_timeout, [this] {
    if (segs_since_ack_ > 0) send_ack_now();
  });
}

void TcpSocket::arm_rto() {
  if (rto_timer_.armed() || unacked_.empty()) return;
  const auto& cfg = stack_->config();
  sim::SimTime rto = std::max(cfg.rto_initial, cfg.rto_min);
  for (int i = 0; i < rto_backoff_; ++i) rto *= 2;
  rto_timer_.arm(rto, [this] { rto_expired(); });
}

void TcpSocket::rto_expired() {
  if (unacked_.empty()) return;

  ++retransmits_;
  rto_backoff_ = std::min(rto_backoff_ + 1, 6);
  ssthresh_ = std::max<std::int64_t>(in_flight() / 2, 2 * mss());
  cwnd_ = mss();
  emit_segment(unacked_.begin()->first, unacked_.begin()->second);
  arm_rto();
}

void TcpSocket::arm_zero_window_probe() {
  probe_timer_.arm(stack_->config().rto_initial, [this] {
    if (snd_wnd_ == 0 && unsent_bytes_ > 0 && in_flight() == 0) {
      // 1-byte window probe.
      net::Buffer& front = unsent_.front();
      SentSegment probe;
      probe.data = front.slice(0, 1);
      probe.flags = tcpflags::kAck;
      probe.virtual_len = 1;
      front = front.slice(1, front.size() - 1);
      if (front.size() == 0) unsent_.pop_front();
      unsent_bytes_ -= 1;
      const std::uint32_t seq = snd_nxt_;
      snd_nxt_ += 1;
      emit_segment(seq, probe);
      unacked_.emplace(seq, std::move(probe));
      arm_rto();
    }
  });
}

// --- Receive side ---------------------------------------------------------------

void TcpSocket::segment_received(const TcpHeader& header, net::Buffer payload,
                                 sim::CpuPriority prio) {
  switch (state_) {
    case State::kClosed:
      return;

    case State::kSynSent:
      if ((header.flags & tcpflags::kSyn) &&
          (header.flags & tcpflags::kAck) && header.ack == snd_nxt_) {
        unacked_.clear();
        rto_timer_.cancel();
        snd_una_ = header.ack;
        rcv_nxt_ = header.seq + 1;
        snd_wnd_ = header.window;
        become_established();
        send_ack_now();
      }
      return;

    case State::kSynRcvd:
      if ((header.flags & tcpflags::kAck) && header.ack == snd_nxt_) {
        unacked_.clear();
        rto_timer_.cancel();
        snd_una_ = header.ack;
        snd_wnd_ = header.window;
        become_established();
        stack_->handshake_complete(this);
        // The completing ACK may carry data.
        if (payload.size() > 0 || (header.flags & tcpflags::kFin)) {
          accept_data(header, std::move(payload), prio);
        }
      }
      return;

    case State::kEstablished:
    case State::kFinSent:
      process_ack(header);
      if (payload.size() > 0 || (header.flags & tcpflags::kFin)) {
        accept_data(header, std::move(payload), prio);
      }
      return;
  }
}

void TcpSocket::process_ack(const TcpHeader& header) {
  if (!(header.flags & tcpflags::kAck)) return;

  if (seq_gt(header.ack, snd_una_)) {
    // New data acknowledged.
    while (!unacked_.empty()) {
      const auto it = unacked_.begin();
      const std::uint32_t end =
          it->first + static_cast<std::uint32_t>(it->second.virtual_len);
      if (seq_gt(end, header.ack)) break;
      unacked_.erase(it);
    }
    snd_una_ = header.ack;
    snd_wnd_ = header.window;
    dup_acks_ = 0;
    rto_backoff_ = 0;

    // Congestion window growth per ack.
    if (cwnd_ < ssthresh_) {
      cwnd_ += mss();
    } else if (cwnd_ > 0) {
      cwnd_ += std::max<std::int64_t>(mss() * mss() / cwnd_, 1);
    }

    rto_timer_.cancel();
    arm_rto();  // no-op when nothing outstanding

    pump_send_requests();
    try_output();
    return;
  }

  if (header.ack == snd_una_) {
    snd_wnd_ = header.window;  // window update / duplicate
    if (!unacked_.empty()) {
      ++dup_acks_;
      if (dup_acks_ == stack_->config().dupack_threshold) {
        ++fast_retransmits_;
        ssthresh_ = std::max<std::int64_t>(in_flight() / 2, 2 * mss());
        cwnd_ = ssthresh_;
        emit_segment(unacked_.begin()->first, unacked_.begin()->second);
      }
    }
    pump_send_requests();
    try_output();
  }
}

void TcpSocket::accept_data(const TcpHeader& header, net::Buffer payload,
                            sim::CpuPriority prio) {
  const std::uint32_t seq = header.seq;
  const bool fin = (header.flags & tcpflags::kFin) != 0;

  if (seq_lt(seq, rcv_nxt_)) {
    // Entirely old duplicate: re-ack so the sender advances.
    send_ack_now(prio);
    return;
  }

  if (seq_gt(seq, rcv_nxt_)) {
    if (payload.size() > 0) ooo_.emplace(seq, std::move(payload));
    if (fin) ooo_fin_seq_ = seq + static_cast<std::uint32_t>(payload.size());
    send_ack_now(prio);  // duplicate ack signals the gap
    return;
  }

  // In order.
  if (payload.size() > 0) {
    rcv_nxt_ += static_cast<std::uint32_t>(payload.size());
    rcv_queued_bytes_ += payload.size();
    rcv_queue_.push_back(std::move(payload));
  }
  if (fin) {
    rcv_nxt_ += 1;
    peer_fin_ = true;
  }

  // Drain any now-contiguous out-of-order data.
  while (!ooo_.empty() && ooo_.begin()->first == rcv_nxt_) {
    auto node = ooo_.extract(ooo_.begin());
    rcv_nxt_ += static_cast<std::uint32_t>(node.mapped().size());
    rcv_queued_bytes_ += node.mapped().size();
    rcv_queue_.push_back(std::move(node.mapped()));
  }
  if (ooo_fin_seq_ && *ooo_fin_seq_ == rcv_nxt_) {
    rcv_nxt_ += 1;
    peer_fin_ = true;
    ooo_fin_seq_.reset();
  }

  pump_recv_requests(prio);
  // Delayed acks run on the segment counter/timer only; PSH does not force
  // an immediate ack (as in Linux), which is what exposes the classic
  // Nagle + delayed-ack stall of the untuned baseline.
  note_ack_owed(fin, prio);
}

void TcpSocket::pump_recv_requests(sim::CpuPriority prio) {
  (void)prio;  // user copies run in process (kernel) context via the chain
  const bool was_zero = last_advertised_zero_;

  while (!recv_requests_.empty()) {
    RecvRequest& req = recv_requests_.front();

    // Drain whatever is available into the request's accumulator; the
    // socket-queue -> user-memory copy (TCP's second copy) is charged
    // incrementally through the request's copy chain.
    const std::int64_t n =
        std::min(req.max_bytes - req.acc.size(), rcv_queued_bytes_);
    rcv_queued_bytes_ -= n;
    net::Buffer chunk = take_front(rcv_queue_, n);
    if (chunk.size() > 0) {
      req.chain->add(chunk.size());
      req.acc.append(std::move(chunk));
    }

    const bool eof = peer_fin_ && rcv_queued_bytes_ == 0;
    if (req.acc.size() < req.min_bytes && !eof) break;

    // Logically complete: wake the process once the copy work drains.
    net::Buffer out = req.acc.flatten();
    auto future = req.future;
    auto chain = req.chain;
    recv_requests_.pop_front();
    chain->finish([this, chain, future, out = std::move(out)]() mutable {
      stack_->node().kernel().wake(
          [future = std::move(future), out = std::move(out)]() mutable {
            future.set(std::move(out));
          });
    });
  }

  // Draining freed buffer space: reopen the window if we had closed it.
  if (was_zero && rcv_window() >= mss()) send_ack_now();
}

sim::Future<net::Buffer> TcpSocket::recv(std::int64_t max_bytes) {
  sim::Future<net::Buffer> result(stack_->node().sim());
  stack_->node().kernel().syscall([this, max_bytes, result]() mutable {
    recv_requests_.push_back(RecvRequest{
        1, max_bytes, {},
        std::make_shared<os::CopyChain>(stack_->node(),
                                        sim::CpuPriority::kKernel),
        result});
    pump_recv_requests(sim::CpuPriority::kKernel);
  });
  return result;
}

sim::Future<net::Buffer> TcpSocket::recv_exact(std::int64_t n) {
  sim::Future<net::Buffer> result(stack_->node().sim());
  stack_->node().kernel().syscall([this, n, result]() mutable {
    recv_requests_.push_back(RecvRequest{
        n, n, {},
        std::make_shared<os::CopyChain>(stack_->node(),
                                        sim::CpuPriority::kKernel),
        result});
    pump_recv_requests(sim::CpuPriority::kKernel);
  });
  return result;
}

void TcpSocket::close() {
  if (state_ != State::kEstablished && state_ != State::kSynRcvd) return;
  stack_->node().kernel().syscall([this] {
    fin_pending_ = true;
    try_output();
    stack_->node().kernel().syscall_return();
  });
}

// ============================== TcpStack =====================================

TcpStack::TcpStack(IpLayer& ip, Config config)
    : ip_(&ip), config_(config) {
  ip_->register_transport(kProtoTcp, this);
}

TcpSocket& TcpStack::create_socket() {
  sockets_.push_back(std::make_unique<TcpSocket>(*this, next_ephemeral_++));
  return *sockets_.back();
}

void TcpStack::listen(int port) {
  listeners_.try_emplace(port, node().sim());
}

sim::Mailbox<TcpSocket*>::PopAwaiter TcpStack::accept(int port) {
  auto it = listeners_.find(port);
  if (it == listeners_.end()) {
    throw std::logic_error("TcpStack::accept: port not listening");
  }
  return it->second.pop();
}

void TcpStack::register_connection(TcpSocket* socket) {
  connections_[connection_key(socket->local_port_, socket->remote_node_,
                              socket->remote_port_)] = socket;
}

void TcpStack::handshake_complete(TcpSocket* socket) {
  auto it = listeners_.find(socket->local_port_);
  if (it != listeners_.end()) it->second.push(socket);
}

void TcpStack::emit(int dst_node, const TcpHeader& header,
                    net::Buffer payload, sim::CpuPriority prio, bool front) {
  ++segments_tx_;
  ip_->send(dst_node, kProtoTcp,
            net::HeaderBlob::of(header, kTcpHeaderBytes), kTcpHeaderBytes,
            std::move(payload), {}, prio, front);
}

void TcpStack::datagram_received(int src_node, net::HeaderBlob l4,
                                 net::Buffer payload,
                                 sim::CpuPriority prio) {
  const auto* h = l4.get<TcpHeader>();
  if (h == nullptr) return;

  // Per-segment receive processing: demux, checksum, stack traversal.
  auto& n = node();
  const std::int64_t bytes = payload.size();
  const sim::SimTime charge =
      config_.tcp_rx_cost + n.cpu().checksum_cost(bytes) +
      static_cast<sim::SimTime>(static_cast<double>(bytes) *
                                config_.tcp_rx_per_byte_ns);
  n.mem().checksum_pressure(bytes);
  n.cpu().run(prio, charge, [this, src_node, header = *h,
                             payload = std::move(payload), prio]() mutable {
    const std::uint64_t key =
        connection_key(header.dst_port, src_node, header.src_port);
    auto it = connections_.find(key);
    if (it != connections_.end()) {
      it->second->segment_received(header, std::move(payload), prio);
      return;
    }

    // No connection: a SYN to a listening port creates one (passive open).
    if ((header.flags & tcpflags::kSyn) &&
        listeners_.count(header.dst_port) > 0) {
      sockets_.push_back(
          std::make_unique<TcpSocket>(*this, header.dst_port));
      TcpSocket* s = sockets_.back().get();
      s->remote_node_ = src_node;
      s->remote_port_ = header.src_port;
      s->state_ = TcpSocket::State::kSynRcvd;
      s->rcv_nxt_ = header.seq + 1;
      s->snd_wnd_ = header.window;
      register_connection(s);

      TcpSocket::SentSegment synack;
      synack.flags = tcpflags::kSyn | tcpflags::kAck;
      synack.virtual_len = 1;
      s->unacked_.emplace(0u, synack);
      s->snd_nxt_ = 1;
      s->emit_segment(0, synack);
      s->arm_rto();
    }
    // Otherwise: drop (no RST modelling).
  });
}

}  // namespace clicsim::tcpip
