// TCP-like reliable byte-stream transport over the IP layer.
//
// Implements what the throughput/latency shape of the paper's baseline
// depends on: 20-byte header, three-way handshake, MSS from the MTU,
// sliding window with receiver-advertised flow control, slow start and
// congestion avoidance, cumulative + delayed acknowledgements, retransmit
// timeout with backoff, fast retransmit on duplicate ACKs, zero-window
// probing, FIN teardown, and the two-copy data path with software
// checksums charged to the CPU. Segmenting the send queue and draining the
// receive queue cut the stream with one helper; a listening port queues
// finished handshakes in a sim::Mailbox that accept() pops. No SACK or
// header timestamps (documented simplification — period stacks often ran
// without them on LANs).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "os/kernel.hpp"
#include "sim/task.hpp"
#include "tcpip/ip.hpp"

namespace clicsim::tcpip {

namespace tcpflags {
inline constexpr std::uint8_t kSyn = 0x01;
inline constexpr std::uint8_t kAck = 0x02;
inline constexpr std::uint8_t kFin = 0x04;
inline constexpr std::uint8_t kPsh = 0x08;
}  // namespace tcpflags

struct TcpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::int64_t window = 0;  // advertised receive window, bytes
};

class TcpStack;

class TcpSocket {
 public:
  TcpSocket(TcpStack& stack, int local_port);

  // Active open; completes (true) when the handshake finishes.
  [[nodiscard]] sim::Future<bool> connect(int dst_node, int dst_port);

  // Copies `data` into the send buffer, blocking for space; returns the
  // byte count. Transmission proceeds asynchronously under the windows.
  [[nodiscard]] sim::Future<std::int64_t> send(net::Buffer data);

  // Returns between 1 and `max_bytes` bytes, or an empty buffer at EOF.
  [[nodiscard]] sim::Future<net::Buffer> recv(std::int64_t max_bytes);

  // Returns exactly `n` bytes (shorter only at EOF).
  [[nodiscard]] sim::Future<net::Buffer> recv_exact(std::int64_t n);

  // Half-close: FIN after any queued data.
  void close();

  [[nodiscard]] bool established() const {
    return state_ == State::kEstablished;
  }
  [[nodiscard]] bool peer_closed() const { return peer_fin_; }
  [[nodiscard]] int remote_node() const { return remote_node_; }

  [[nodiscard]] std::uint64_t retransmits() const { return retransmits_; }
  [[nodiscard]] std::uint64_t fast_retransmits() const {
    return fast_retransmits_;
  }
  [[nodiscard]] std::int64_t cwnd() const { return cwnd_; }

 private:
  friend class TcpStack;

  enum class State {
    kClosed,
    kSynSent,
    kSynRcvd,
    kEstablished,
    kFinSent,
  };

  struct SentSegment {
    net::Buffer data;
    std::uint8_t flags = 0;
    std::int64_t virtual_len = 0;  // data + SYN/FIN sequence space
  };

  // Receive requests drain the socket queue incrementally (so a
  // recv_exact() larger than rcvbuf keeps the window open) and complete
  // once `min_bytes` accumulated or at EOF.
  struct RecvRequest {
    std::int64_t min_bytes;
    std::int64_t max_bytes;
    net::BufferChain acc;
    std::shared_ptr<os::CopyChain> chain;  // sequences the user-copy work
    sim::Future<net::Buffer> future;
  };

  struct SendRequest {
    net::Buffer data;
    std::int64_t offset;
    sim::Future<std::int64_t> future;
  };

  void segment_received(const TcpHeader& header, net::Buffer payload,
                        sim::CpuPriority prio);
  void process_ack(const TcpHeader& header);
  void accept_data(const TcpHeader& header, net::Buffer payload,
                   sim::CpuPriority prio);
  void try_output();
  void emit_segment(std::uint32_t seq, const SentSegment& segment);
  void send_ack_now(sim::CpuPriority prio = sim::CpuPriority::kSoftirq);
  void note_ack_owed(bool push, sim::CpuPriority prio);
  void arm_rto();
  void rto_expired();
  void arm_zero_window_probe();
  void pump_send_requests();
  void pump_recv_requests(sim::CpuPriority prio);
  [[nodiscard]] std::int64_t sndbuf_bytes_used() const;
  [[nodiscard]] std::int64_t rcv_window() const;
  [[nodiscard]] std::int64_t in_flight() const;
  [[nodiscard]] std::int64_t mss() const;
  void become_established();

  TcpStack* stack_;
  State state_ = State::kClosed;
  int local_port_;
  int remote_node_ = -1;
  int remote_port_ = -1;

  // --- Transmit ---------------------------------------------------------------
  std::uint32_t snd_una_ = 0;
  std::uint32_t snd_nxt_ = 0;
  std::int64_t snd_wnd_ = 0;
  std::int64_t cwnd_ = 0;
  std::int64_t ssthresh_ = 1 << 30;
  int dup_acks_ = 0;
  std::map<std::uint32_t, SentSegment> unacked_;
  // Stream bytes not yet segmented, in offset order. Only the first
  // unsent_bytes_ of them have finished the copy into socket memory; the
  // rest are still being copied.
  std::deque<net::Buffer> unsent_;
  std::int64_t unsent_bytes_ = 0;
  bool fin_pending_ = false;
  bool fin_sent_ = false;
  std::deque<SendRequest> send_requests_;
  // Ack progress cancels the retransmit timer outright.
  os::Kernel::Timer rto_timer_;
  int rto_backoff_ = 0;
  os::Kernel::Timer probe_timer_;

  // --- Receive -----------------------------------------------------------------
  std::uint32_t rcv_nxt_ = 0;
  std::map<std::uint32_t, net::Buffer> ooo_;
  std::optional<std::uint32_t> ooo_fin_seq_;  // FIN that arrived out of order
  std::deque<net::Buffer> rcv_queue_;
  std::int64_t rcv_queued_bytes_ = 0;
  bool peer_fin_ = false;
  int segs_since_ack_ = 0;
  bool last_advertised_zero_ = false;
  os::Kernel::Timer delack_timer_;
  std::deque<RecvRequest> recv_requests_;

  std::optional<sim::Future<bool>> connect_future_;

  std::uint64_t retransmits_ = 0;
  std::uint64_t fast_retransmits_ = 0;
};

class TcpStack : public IpTransport {
 public:
  TcpStack(IpLayer& ip, Config config);

  // Creates an unbound socket with an ephemeral local port.
  TcpSocket& create_socket();

  // Passive open: accept() completes when a handshake finishes on `port`.
  // Finished handshakes queue in the port's mailbox until accepted.
  void listen(int port);
  [[nodiscard]] sim::Mailbox<TcpSocket*>::PopAwaiter accept(int port);

  // IpTransport
  void datagram_received(int src_node, net::HeaderBlob l4,
                         net::Buffer payload, sim::CpuPriority prio) override;

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] os::Node& node() { return ip_->node(); }
  [[nodiscard]] std::uint64_t segments_sent() const { return segments_tx_; }

 private:
  friend class TcpSocket;

  // Called by a socket leaving kSynRcvd: hands it to accept().
  void handshake_complete(TcpSocket* socket);

  static std::uint64_t connection_key(int local_port, int remote_node,
                                      int remote_port) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                remote_node))
            << 32) |
           (static_cast<std::uint64_t>(local_port) << 16) |
           static_cast<std::uint64_t>(remote_port);
  }

  void register_connection(TcpSocket* socket);
  void emit(int dst_node, const TcpHeader& header, net::Buffer payload,
            sim::CpuPriority prio = sim::CpuPriority::kKernel,
            bool front = false);

  IpLayer* ip_;
  Config config_;
  std::vector<std::unique_ptr<TcpSocket>> sockets_;
  std::unordered_map<std::uint64_t, TcpSocket*> connections_;
  std::unordered_map<int, sim::Mailbox<TcpSocket*>> listeners_;
  int next_ephemeral_ = 10000;
  std::uint64_t segments_tx_ = 0;
};

}  // namespace clicsim::tcpip
