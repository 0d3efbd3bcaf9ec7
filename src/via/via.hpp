// VIA-like comparator (Virtual Interface Architecture, section 3.2).
//
// Modelled design points:
//  * user-level virtual interfaces (VIs) — no system call on the data
//    path: the application builds a descriptor in user memory and rings a
//    doorbell (one uncached PCI write);
//  * per-VI send and receive descriptor queues; the card DMAs directly
//    between registered user memory and the wire (true 0-copy both ways);
//  * completion by POLLING: the application burns CPU checking the
//    completion queue — low latency, 100% CPU while waiting (the trade-off
//    CLIC's interrupt-driven design argues against);
//  * unreliable delivery: a frame arriving at a VI with no posted receive
//    descriptor is dropped (reliability is the application's problem).
//    Every frame carries its byte offset in its VI's send stream, so a lost
//    frame inside a message aborts the message instead of completing it
//    torn;
//  * RDMA write into a remote registered region.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>

#include "net/buffer.hpp"
#include "os/address.hpp"
#include "os/driver.hpp"
#include "os/node.hpp"
#include "sim/task.hpp"

namespace clicsim::via {

struct Config {
  sim::SimTime descriptor_build = sim::nanoseconds(300);  // user-level
  sim::SimTime doorbell = sim::nanoseconds(400);          // uncached write
  sim::SimTime nic_descriptor_fetch = sim::microseconds(1.0);
  sim::SimTime completion_write = sim::nanoseconds(500);
  sim::SimTime poll_interval = sim::microseconds(1.0);
};

struct ViaHeader {
  std::uint16_t vi_id = 0;  // destination VI number
  std::uint8_t flags = 0;   // bit0 first, bit1 last, bit2 rdma
  std::uint32_t offset = 0;  // byte offset in the VI's send stream
                             // (rdma: in the remote region)
  std::uint16_t src_node = 0;
};
inline constexpr std::int64_t kViaHeaderBytes = 8;

struct Completion {
  bool is_send = false;
  int src_node = -1;
  net::Buffer data;  // for receive completions
};

class ViaProvider;

// One connected virtual interface endpoint.
class Vi {
 public:
  Vi(ViaProvider& provider, int id);

  // Connects this VI to VI `remote_vi` on `remote_node` (out of band).
  void connect(int remote_node, int remote_vi);

  // Posts a receive descriptor pointing at a user buffer of `capacity`.
  void post_recv(std::int64_t capacity);

  // Posts a send of `data`; a send completion appears on the CQ when the
  // card finished reading the buffer.
  void post_send(net::Buffer data);

  // RDMA write into the remote VI's registered region at `offset`.
  void rdma_write(net::Buffer data, std::int64_t offset);

  // Registers a memory region RDMA writes land in.
  void register_region(std::int64_t capacity);

  // Polls the completion queue until an entry appears, charging poll CPU
  // per check — the VIA waiting model.
  [[nodiscard]] sim::Future<Completion> poll_wait();

  [[nodiscard]] std::size_t completions_pending() const { return cq_.size(); }
  [[nodiscard]] std::uint64_t rx_dropped_no_descriptor() const {
    return dropped_;
  }
  [[nodiscard]] std::int64_t region_bytes_written() const {
    return region_written_;
  }
  [[nodiscard]] int id() const { return id_; }

 private:
  friend class ViaProvider;

  // One busy-poll iteration; re-arms itself until a completion appears.
  void poll(sim::Future<Completion> future);
  void frame_in(const ViaHeader& header, net::Buffer payload);

  ViaProvider* provider_;
  int id_;
  int remote_node_ = -1;
  int remote_vi_ = -1;
  std::deque<std::int64_t> recv_descriptors_;
  std::uint32_t sent_bytes_ = 0;   // send-stream offset of the next send
  net::MessageAssembler assembling_;
  std::uint32_t next_offset_ = 0;  // stream offset the open message expects
  std::deque<Completion> cq_;
  std::int64_t region_capacity_ = 0;
  std::int64_t region_written_ = 0;
  std::uint64_t dropped_ = 0;
};

class ViaProvider : public os::ProtocolHandler {
 public:
  ViaProvider(os::Node& node, Config config,
              const os::AddressMap& addresses);

  [[nodiscard]] Vi& create_vi();

  // os::ProtocolHandler
  void packet_received(net::Frame frame, bool from_isr) override;

  [[nodiscard]] os::Node& node() { return *node_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::uint64_t frames_sent() const { return tx_frames_; }

 private:
  friend class Vi;

  // The user-level send path: descriptor + doorbell in user context, then
  // the card fetches the descriptor and DMAs the data (segmenting to MTU
  // in firmware — VIA hardware handled message-level descriptors).
  void user_send(Vi& vi, ViaHeader header, net::Buffer data,
                 std::function<void()> on_sent);

  os::Node* node_;
  Config config_;
  const os::AddressMap* addresses_;
  std::vector<std::unique_ptr<Vi>> vis_;
  std::uint64_t tx_frames_ = 0;
};

}  // namespace clicsim::via
