// Per-stack adapters for the traffic-shape drivers (DESIGN.md §4j): each
// shape is written once over an End, and each stack supplies one with
// open() (TCP's connect or accept), a send in two steps (send, sent: PVM
// packs then sends, VIA posts then reaps), a receive of n bytes in two
// steps (recv, received: PVM receives then unpacks), rest(n) (the bytes
// after a wire header), reply(m, b) and close(). A step returns the
// stack's own awaitable (sim::Future, Mailbox::PopAwaiter), or
// std::suspend_never where the stack has no such step, which neither
// suspends nor schedules. No End runs a coroutine of its own, so a driver
// adds no event and every (time, seq) order stays.
#pragma once

#include <coroutine>
#include <cstdint>
#include <utility>

#include "apps/testbed.hpp"

namespace clicsim::apps {

// std::suspend_never with a result: the open step of a connectionless End.
struct Ready : std::suspend_never {
  static constexpr bool await_resume() noexcept { return true; }
};

// The steps a stack lacks.
struct NoSteps {
  static Ready open() { return {}; }
  static std::suspend_never sent() { return {}; }
  static std::suspend_never received(const auto&, std::int64_t) { return {}; }
  static std::suspend_never rest(std::int64_t) { return {}; }
  static void close() {}
};

// The bytes of a received message, whichever stack delivered it.
inline const net::Buffer& payload(const clic::Message& m) { return m.data; }
inline const net::Buffer& payload(const net::Buffer& b) { return b; }

// CLIC: `port` (bound by the caller) talks to (peer, peer_port).
struct ClicEnd : NoSteps {
  clic::ClicModule* module;
  int port;
  int peer;
  int peer_port;
  clic::SendMode mode = clic::SendMode::kSync;

  auto send(net::Buffer b) const {
    return module->send(port, peer, peer_port, std::move(b), mode);
  }
  auto recv(std::int64_t) const { return module->recv(port); }
  auto reply(const clic::Message& m, net::Buffer b) const {
    return module->send(port, m.src_node, m.src_port, std::move(b), mode);
  }
};

// TCP: a message is the next n bytes of the connection's stream.
struct TcpEnd : NoSteps {
  tcpip::TcpSocket* socket = nullptr;

  auto send(net::Buffer b) const { return socket->send(std::move(b)); }
  auto recv(std::int64_t n) const { return socket->recv_exact(n); }
  auto rest(std::int64_t n) const { return socket->recv_exact(n); }
  auto reply(const net::Buffer&, net::Buffer b) const {
    return socket->send(std::move(b));
  }
  void close() const { socket->close(); }
};

// The active side: `socket` connects to (peer, port).
struct TcpDial : TcpEnd {
  int peer;
  int port;

  auto open() const { return socket->connect(peer, port); }
};

// The passive side: takes one connection from `stack`'s listening `port`.
struct TcpAccept : TcpEnd {
  tcpip::TcpStack* stack;
  int port;

  // accept()'s awaitable, keeping the socket it pops in the End.
  struct Accepted {
    sim::Mailbox<tcpip::TcpSocket*>::PopAwaiter pop;
    tcpip::TcpSocket** socket;
    bool await_ready() const noexcept { return pop.await_ready(); }
    void await_suspend(std::coroutine_handle<> h) { pop.await_suspend(h); }
    bool await_resume() {
      *socket = pop.await_resume();
      return true;
    }
  };
  Accepted open() { return {stack->accept(port), &socket}; }
};

// MPI: tag 7 to and from one peer rank.
struct MpiEnd : NoSteps {
  mpi::Communicator* comm;
  int peer;

  auto send(net::Buffer b) const { return comm->send(peer, 7, std::move(b)); }
  auto recv(std::int64_t) const { return comm->recv(peer, 7); }
};

// PVM: tag 7; packs then sends, receives then unpacks.
struct PvmEnd : NoSteps {
  pvm::PvmTask* task;
  int peer;

  auto send(net::Buffer b) const {
    task->initsend();
    return task->pack(std::move(b));
  }
  auto sent() const { return task->send(peer, 7); }
  auto recv(std::int64_t) const { return task->recv(peer, 7); }
  auto received(pvm::PvmMessage& m, std::int64_t n) const {
    return task->unpack(m, n);
  }
};

// GAMMA: mailbox port 1 on both nodes.
struct GammaEnd : NoSteps {
  gamma::GammaModule* module;
  int peer;

  auto send(net::Buffer b) const { return module->send(peer, 1, std::move(b)); }
  auto recv(std::int64_t) const { return module->recv(1); }
};

// VIA: a send posts its descriptor, then reaps the send completion; a
// receive posts a descriptor, then reaps the message.
struct ViaEnd : NoSteps {
  via::Vi* vi;

  std::suspend_never send(net::Buffer b) const {
    vi->post_send(std::move(b));
    return {};
  }
  auto sent() const { return vi->poll_wait(); }
  auto recv(std::int64_t n) const {
    vi->post_recv(n + 64);
    return vi->poll_wait();
  }
};

}  // namespace clicsim::apps
