// Mini-PVM: the second TCP/IP-hosted baseline of Figure 6.
//
// What makes PVM slower than MPI on the same TCP transport is modelled
// explicitly:
//  * typed pack/unpack buffers — every payload byte is copied into the
//    send buffer before transmission and out of the receive buffer after
//    (two extra copies MPI avoids for contiguous data);
//  * daemon-mediated default routing — messages hop through the pvmd on
//    each host (extra latency plus CPU per message) unless the task
//    requests PvmRouteDirect;
//  * per-call bookkeeping overheads.
//
// Tasks are identified by tid == rank on the underlying transport mesh.
#pragma once

#include <cstdint>
#include <memory>

#include "mpi/comm.hpp"
#include "mpi/transport.hpp"

namespace clicsim::pvm {

struct Config {
  sim::SimTime pack_overhead = sim::microseconds(1.0);    // per pack call
  sim::SimTime unpack_overhead = sim::microseconds(1.0);  // per unpack call
  sim::SimTime send_overhead = sim::microseconds(3.0);    // pvm_send body
  bool direct_route = false;  // PvmRouteDirect skips the daemons
  sim::SimTime daemon_latency = sim::microseconds(20.0);  // per pvmd hop
};

struct PvmMessage {
  int src_tid = -1;
  int tag = 0;
  net::Buffer data;
};

class PvmTask {
 public:
  // `transport` must already be mesh-connected.
  PvmTask(mpi::TcpTransport& transport, Config config = {});

  [[nodiscard]] int tid() const { return comm_.rank(); }

  // pvm_initsend: resets the active send buffer.
  void initsend();

  // pvm_pk*: copies `data` into the send buffer (charged).
  [[nodiscard]] sim::Future<bool> pack(net::Buffer data);

  // pvm_send: transmits the packed buffer to `dst_tid` with `tag`.
  [[nodiscard]] sim::Future<bool> send(int dst_tid, int tag);

  // pvm_recv: blocks for a matching message (-1 wildcards).
  [[nodiscard]] sim::Future<PvmMessage> recv(int src_tid = -1, int tag = -1);

  // pvm_upk*: copies `bytes` out of a received buffer (charged); returns
  // the slice.
  [[nodiscard]] sim::Future<net::Buffer> unpack(PvmMessage& message,
                                                std::int64_t bytes);

  [[nodiscard]] std::uint64_t messages_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t messages_received() const { return received_; }

 private:
  sim::Task send_task(int dst_tid, int tag, net::Buffer payload,
                      sim::Future<bool> done);
  sim::Task recv_task(int src_tid, int tag, sim::Future<PvmMessage> done);

  mpi::Communicator comm_;
  Config config_;
  net::BufferChain send_buffer_;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
};

}  // namespace clicsim::pvm
