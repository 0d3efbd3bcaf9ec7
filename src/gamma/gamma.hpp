// GAMMA-like comparator (Chiola & Ciaccio): the Genoa Active Message
// MAchine, the lightweight protocol the paper benchmarks CLIC against.
//
// Design points modelled (section 3.2 and [2,6,14,15]):
//  * lightweight system calls — reduced trap cost, no scheduler pass on
//    the way back to user mode;
//  * active ports — the receive ISR dispatches straight into a per-port
//    handler which moves data to user memory; no sk_buff, no bottom half,
//    no wake-through-scheduler;
//  * best-effort delivery on a dedicated switched LAN: GAMMA relied on the
//    network being loss-free, so nothing is acknowledged or retransmitted;
//    each (port, source) pair assembles its own message, and a sequence gap
//    from a source aborts that source's message;
//  * no multiprogramming protection and no intra-node messaging — the
//    functional trade-offs the paper holds against it.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "net/buffer.hpp"
#include "os/address.hpp"
#include "os/driver.hpp"
#include "os/node.hpp"
#include "sim/task.hpp"

namespace clicsim::gamma {

struct Config {
  sim::SimTime tx_cost = sim::microseconds(1.0);       // driver-level send
  sim::SimTime handler_cost = sim::microseconds(1.0);  // active-port dispatch
  // GAMMA's short-message fast path (how it measured 9.5 us on the
  // GNIC-II): the CPU pushes small frames to the card by programmed I/O,
  // skipping DMA setup entirely. 0 disables.
  std::int64_t pio_threshold = 256;
};

struct GammaHeader {
  std::uint8_t port = 0;
  std::uint8_t flags = 0;  // bit0: first, bit1: last
  std::uint16_t src_node = 0;
  std::uint32_t seq = 0;
};
inline constexpr std::int64_t kGammaHeaderBytes = 8;

struct Message {
  int src_node = -1;
  int port = 0;
  net::Buffer data;
};

class GammaModule : public os::ProtocolHandler {
 public:
  GammaModule(os::Node& node, Config config,
              const os::AddressMap& addresses);

  // Registers an active port: `handler` runs in interrupt context when a
  // complete message has been placed in user memory.
  void register_port(int port, std::function<void(Message)> handler);

  // Convenience for sequential code: messages on a port without a handler
  // queue in a mailbox and are awaited with recv().
  void open_mailbox_port(int port);
  [[nodiscard]] sim::Mailbox<Message>::PopAwaiter recv(int port);

  // Sends via a lightweight system call; completes when the last packet's
  // DMA descriptor finished.
  [[nodiscard]] sim::Future<bool> send(int dst_node, int port,
                                       net::Buffer data);

  // os::ProtocolHandler
  void packet_received(net::Frame frame, bool from_isr) override;

  [[nodiscard]] std::uint64_t messages_sent() const { return tx_msgs_; }
  [[nodiscard]] std::uint64_t messages_received() const { return rx_msgs_; }
  [[nodiscard]] std::uint64_t dropped_no_port() const { return dropped_; }
  [[nodiscard]] os::Node& node() { return *node_; }

 private:
  struct PortState {
    explicit PortState(sim::Simulator& sim) : mailbox(sim) {}
    std::function<void(Message)> handler;
    std::unordered_map<int, net::MessageAssembler> from;  // per source node
    sim::Mailbox<Message> mailbox;  // used when there is no handler
  };

  PortState& port_state(int port);
  void emit(int dst_node, GammaHeader header, net::Buffer payload,
            std::function<void()> on_done);

  os::Node* node_;
  Config config_;
  const os::AddressMap* addresses_;
  std::unordered_map<int, PortState> ports_;
  std::unordered_map<int, std::uint32_t> tx_next_;  // per destination node
  std::unordered_map<int, std::uint32_t> rx_next_;  // per source node
  std::uint64_t tx_msgs_ = 0;
  std::uint64_t rx_msgs_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace clicsim::gamma
