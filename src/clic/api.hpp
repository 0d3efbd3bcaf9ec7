// Thin user-level handle over a bound CLIC port — the interface application
// processes program against (Figure 2: user processes sit directly on
// CLIC's syscall interface).
//
//   clic::Port port(module, 7);
//   co_await port.send(peer_node, peer_port, msg);      // blocking send
//   clic::Message m = co_await port.recv();             // blocking receive
#pragma once

#include "clic/module.hpp"

namespace clicsim::clic {

class Port {
 public:
  Port(ClicModule& module, int port) : module_(&module), port_(port) {
    module_->bind_port(port_);
  }

  // Blocking send (completes when every packet's DMA finished).
  [[nodiscard]] sim::Future<SendStatus> send(
      int dst_node, int dst_port, net::Buffer data,
      SendMode mode = SendMode::kSync) {
    return module_->send(port_, dst_node, dst_port, std::move(data), mode);
  }

  // Send with confirmation of reception (section 5: "primitives to send
  // messages with confirmation of reception").
  [[nodiscard]] sim::Future<SendStatus> send_confirmed(int dst_node,
                                                       int dst_port,
                                                       net::Buffer data) {
    return module_->send(port_, dst_node, dst_port, std::move(data),
                         SendMode::kConfirmed);
  }

  [[nodiscard]] sim::Future<Message> recv() { return module_->recv(port_); }

  // Non-blocking probe ("if the message has not arrived, _MODULE does
  // nothing and returns").
  [[nodiscard]] bool poll() const { return module_->poll(port_); }

  [[nodiscard]] sim::Future<SendStatus> broadcast(int dst_port,
                                                  net::Buffer data) {
    return module_->broadcast(port_, dst_port, std::move(data));
  }

  [[nodiscard]] int number() const { return port_; }
  [[nodiscard]] ClicModule& module() { return *module_; }

 private:
  ClicModule* module_;
  int port_;
};

}  // namespace clicsim::clic
