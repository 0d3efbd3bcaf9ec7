#include "apps/workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "apps/adapters.hpp"
#include "apps/chaos.hpp"
#include "sim/fault_plan.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"

namespace clicsim::apps {

double to_mbps(std::int64_t size, sim::SimTime one_way) {
  if (one_way <= 0) return 0.0;
  return static_cast<double>(size) * 8e3 / static_cast<double>(one_way);
}

namespace {

// --- Ping-pong (NetPIPE-style) --------------------------------------------------

// The two sides of one exchange of `size`-byte messages: `ping` sends and
// awaits the echo reps + 1 times and times the last reps (t[0] to t[1]);
// `pong` echoes each message back.
template <typename End>
sim::Task ping(sim::Simulator& sim, End end, std::int64_t size, int reps,
               sim::SimTime* t) {
  (void)co_await end.open();
  for (int i = 0; i <= reps; ++i) {
    (void)co_await end.send(net::Buffer::zeros(size));
    (void)co_await end.sent();
    auto echo = co_await end.recv(size);
    (void)co_await end.received(echo, size);
    if (i == 0) t[0] = sim.now();
  }
  t[1] = sim.now();
}

template <typename End>
sim::Task pong(End end, std::int64_t size, int reps) {
  (void)co_await end.open();
  for (int i = 0; i <= reps; ++i) {
    auto m = co_await end.recv(size);
    (void)co_await end.received(m, size);
    (void)co_await end.send(net::Buffer::zeros(size));
    (void)co_await end.sent();
  }
}

// Starts both sides once `up` resolves: the TCP mesh under MPI and PVM, a
// Ready (which starts them at once) elsewhere.
template <typename Up, typename A, typename B>
sim::Task start_ping_pong(Up up, sim::Simulator& sim, A a, B b,
                          std::int64_t size, int reps, sim::SimTime* t) {
  const bool ok = co_await up;
  if (!ok) co_return;
  ping(sim, std::move(a), size, reps, t);
  pong(std::move(b), size, reps);
}

// The ping-pong driver: node 0's `a` against node 1's `b`.
template <typename A, typename B, typename Up = Ready>
sim::SimTime ping_pong(BedCore& bed, int reps, std::int64_t size, A a, B b,
                       Up up = {}) {
  if (reps < 1) throw std::invalid_argument("ping-pong: pingpong_reps < 1");
  sim::SimTime t[2] = {0, 0};
  start_ping_pong(std::move(up), bed.sim_of(0), std::move(a), std::move(b),
                  size, reps, t);
  bed.run();
  return (t[1] - t[0]) / (2 * reps);
}

// --- Windowed stream ---------------------------------------------------------------

// `count` messages of `size` bytes, back to back, from node 0 to node 1;
// the receiver's clock at the last one is the elapsed time.
template <typename End>
sim::Task stream_tx(End end, std::int64_t size, std::int64_t count) {
  (void)co_await end.open();
  for (std::int64_t i = 0; i < count; ++i) {
    (void)co_await end.send(net::Buffer::zeros(size));
    (void)co_await end.sent();
  }
  end.close();
}

template <typename End>
sim::Task stream_rx(sim::Simulator& sim, End end, std::int64_t size,
                    std::int64_t count, sim::SimTime& t_end) {
  (void)co_await end.open();
  for (std::int64_t i = 0; i < count; ++i) {
    auto m = co_await end.recv(size);
    (void)co_await end.received(m, size);
  }
  t_end = sim.now();
}

template <typename Tx, typename Rx>
StreamStats stream(BedCore& bed, Tx tx, Rx rx, std::int64_t size,
                   std::int64_t count) {
  sim::SimTime t_end = 0;
  stream_tx(std::move(tx), size, count);
  stream_rx(bed.sim_of(1), std::move(rx), size, count, t_end);
  bed.run();

  StreamStats st;
  st.bytes = size * count;
  st.elapsed = t_end;
  st.mbps = static_cast<double>(st.bytes) * 8e3 /
            static_cast<double>(std::max<sim::SimTime>(t_end, 1));
  st.tx_cpu = bed.cluster.node(0).cpu().utilization();
  st.rx_cpu = bed.cluster.node(1).cpu().utilization();
  st.rx_interrupts = bed.cluster.node(1).nic(0).interrupts_fired();
  st.rx_frames = bed.cluster.node(1).nic(0).rx_frames();
  st.rx_ring_drops = bed.cluster.node(1).nic(0).rx_ring_drops();
  return st;
}

// CLIC port 1 on nodes 0 and 1, each talking to the other.
ClicEnd clic_port_1(ClicBed& bed, int node) {
  bed.module(node).bind_port(1);
  return ClicEnd{{}, &bed.module(node), 1, 1 - node, 1};
}

// A TCP connection from node 0 to node 1's port 5000.
std::pair<TcpDial, TcpAccept> tcp_pair(TcpBed& bed) {
  bed.tcp[1]->listen(5000);
  return {TcpDial{{{}, &bed.tcp[0]->create_socket()}, 1, 5000},
          TcpAccept{{}, bed.tcp[1].get(), 5000}};
}

}  // namespace

sim::SimTime clic_one_way(const Scenario& s, std::int64_t size) {
  ClicBed bed(s.cluster, s.clic);
  bed.cluster.set_mtu_all(s.mtu);
  ClicEnd a = clic_port_1(bed, 0);
  return ping_pong(bed, s.pingpong_reps, size, a, clic_port_1(bed, 1));
}

sim::SimTime tcp_one_way(const Scenario& s, std::int64_t size) {
  TcpBed bed(s.cluster, s.tcp);
  bed.cluster.set_mtu_all(s.mtu);
  auto [a, b] = tcp_pair(bed);
  return ping_pong(bed, s.pingpong_reps, std::max<std::int64_t>(size, 1), a,
                   b);
}

sim::SimTime mpi_clic_one_way(const Scenario& s, std::int64_t size) {
  MpiClicBed bed(s.cluster, s.clic, s.mpi);
  bed.bed.cluster.set_mtu_all(s.mtu);
  return ping_pong(bed.bed, s.pingpong_reps, size, MpiEnd{{}, &bed.comm(0), 1},
                   MpiEnd{{}, &bed.comm(1), 0});
}

sim::SimTime mpi_tcp_one_way(const Scenario& s, std::int64_t size) {
  MpiTcpBed bed(s.cluster, s.tcp, s.mpi);
  bed.bed.cluster.set_mtu_all(s.mtu);
  return ping_pong(bed.bed, s.pingpong_reps, size, MpiEnd{{}, &bed.comm(0), 1},
                   MpiEnd{{}, &bed.comm(1), 0}, bed.connect());
}

sim::SimTime pvm_one_way(const Scenario& s, std::int64_t size) {
  PvmBed bed(s.cluster, s.tcp, s.pvm);
  bed.bed.cluster.set_mtu_all(s.mtu);
  return ping_pong(bed.bed, s.pingpong_reps, size, PvmEnd{{}, &bed.task(0), 1},
                   PvmEnd{{}, &bed.task(1), 0}, bed.connect());
}

sim::SimTime gamma_one_way(const Scenario& s, std::int64_t size) {
  GammaBed bed(s.cluster, s.gamma);
  bed.cluster.set_mtu_all(std::min(s.mtu, s.cluster.nic.max_mtu));
  bed.module(0).open_mailbox_port(1);
  bed.module(1).open_mailbox_port(1);
  return ping_pong(bed, s.pingpong_reps, size, GammaEnd{{}, &bed.module(0), 1},
                   GammaEnd{{}, &bed.module(1), 0});
}

sim::SimTime via_one_way(const Scenario& s, std::int64_t size) {
  ViaBed bed(s.cluster, s.via);
  bed.cluster.set_mtu_all(s.mtu);
  via::Vi& a = bed.provider(0).create_vi();
  via::Vi& b = bed.provider(1).create_vi();
  a.connect(1, b.id());
  b.connect(0, a.id());
  return ping_pong(bed, s.pingpong_reps, size, ViaEnd{{}, &a},
                   ViaEnd{{}, &b});
}

StreamStats clic_stream(const Scenario& s, std::int64_t message_size,
                        std::int64_t total_bytes) {
  ClicBed bed(s.cluster, s.clic);
  bed.cluster.set_mtu_all(s.mtu);
  return clic_stream(bed, message_size, total_bytes);
}

StreamStats clic_stream(ClicBed& bed, std::int64_t message_size,
                        std::int64_t total_bytes) {
  ClicEnd tx = clic_port_1(bed, 0);
  return stream(bed, tx, clic_port_1(bed, 1), message_size,
                std::max<std::int64_t>(total_bytes / message_size, 1));
}

StreamStats tcp_stream(const Scenario& s, std::int64_t total_bytes) {
  TcpBed bed(s.cluster, s.tcp);
  bed.cluster.set_mtu_all(s.mtu);
  auto [tx, rx] = tcp_pair(bed);
  return stream(bed, tx, rx, total_bytes, 1);
}

// --- Open-loop traffic (DESIGN.md §4j) --------------------------------------------

namespace {

// Every open-loop message starts with a 16-byte little-endian header of
// four u32 fields; the remainder of the payload is padding. The header is
// echoed by the RPC server, which lets thousands of logical clients
// multiplex one CLIC port / TCP socket per node.
constexpr std::int64_t kWireHeaderBytes = 16;
constexpr int kRpcServerPort = 11;   // CLIC
constexpr int kRpcClientPort = 12;   // CLIC
constexpr int kStreamPort = 13;      // CLIC
constexpr int kRpcTcpPort = 7000;
constexpr int kStreamTcpPort = 7001;

using sim::fnv1a_fold;

// The four header fields.
using Header = std::array<std::uint32_t, 4>;

net::Buffer wire_message(std::int64_t size, const Header& h) {
  std::vector<std::byte> bytes(
      static_cast<std::size_t>(std::max(size, kWireHeaderBytes)));
  for (std::size_t i = 0; i < 16; ++i) {
    bytes[i] = static_cast<std::byte>(h[i / 4] >> (8 * (i % 4)));
  }
  return net::Buffer::bytes(std::move(bytes));
}

Header header_of(const net::Buffer& message) {
  const auto d = message.data();
  Header h{};
  for (std::size_t i = 0; i < 16; ++i) {
    h[i / 4] |= std::to_integer<std::uint32_t>(d[i]) << (8 * (i % 4));
  }
  return h;
}

// Seeded burst-loss campaign under a workload, for a nonzero `seed`:
// random carrier / switch-port / DMA outages against every flappable
// element, all healed by 10 ms so the open-loop run always drains (paper
// CLIC retries forever; TCP retransmits).
void arm_fault_campaign(std::optional<sim::FaultPlan>& plan, BedCore& bed,
                        std::uint64_t seed) {
  if (seed == 0) return;
  plan.emplace(bed.sim, seed);
  register_cluster_targets(*plan, bed.cluster);
  sim::FaultPlan::Campaign campaign;
  campaign.start = sim::microseconds(200.0);
  campaign.end = sim::milliseconds(10.0);
  campaign.outages = 6;
  campaign.min_down = sim::microseconds(100.0);
  campaign.max_down = sim::milliseconds(2.0);
  plan->randomize(campaign);
}

os::ClusterConfig with_nodes(os::ClusterConfig c, int nodes) {
  c.nodes = nodes;
  return c;
}

// Where an open-loop workload's server and clients sit on a stack. CLIC
// binds one port per side, and one server on node 0 answers every client
// node. TCP gives each client node a connection of its own, with a server
// per connection; a client dials from its node's clock at time 0, since
// connect() drives the SYN path on the node's shard.
struct ClicService {
  ClicBed* bed;
  int server_port;
  int client_port;

  // serve(end, nodes): a server End answering `nodes` client nodes.
  template <typename Serve>
  void serve(int client_nodes, Serve serve) const {
    bed->module(0).bind_port(server_port);
    serve(ClicEnd{{}, &bed->module(0), server_port, 0, 0,
                  clic::SendMode::kAsync},
          client_nodes);
  }
  template <typename Client>
  void client(int node, Client client) const {
    bed->module(node).bind_port(client_port);
    client(ClicEnd{{}, &bed->module(node), client_port, 0, server_port});
  }
};

struct TcpService {
  TcpBed* bed;
  int port;

  template <typename Serve>
  void serve(int client_nodes, Serve serve) const {
    bed->tcp[0]->listen(port);
    for (int n = 0; n < client_nodes; ++n) {
      serve(TcpAccept{{}, bed->tcp[0].get(), port}, 1);
    }
  }
  template <typename Client>
  void client(int node, Client client) const {
    bed->sim_of(node).at(0, [stack = bed->tcp[node].get(), port = port,
                             client] {
      client(TcpDial{{{}, &stack->create_socket()}, 0, port});
    });
  }
};

}  // namespace

std::vector<sim::SimTime> arrival_times(const ArrivalSpec& spec, int count,
                                        std::uint64_t seed, int client) {
  if (count < 0) throw std::invalid_argument("arrival_times: count < 0");
  if (spec.process != ArrivalSpec::Process::kIncast && spec.rate_per_s <= 0) {
    throw std::invalid_argument("arrival_times: rate_per_s <= 0");
  }
  if (spec.process == ArrivalSpec::Process::kBursty &&
      (spec.on_mean_s <= 0 || spec.off_mean_s < 0)) {
    throw std::invalid_argument("arrival_times: bad burst durations");
  }
  if (spec.process == ArrivalSpec::Process::kIncast &&
      spec.incast_period <= 0) {
    throw std::invalid_argument("arrival_times: incast_period <= 0");
  }
  std::vector<sim::SimTime> out;
  out.reserve(static_cast<std::size_t>(count));
  sim::Rng rng(seed + static_cast<std::uint64_t>(client) *
                          0x9e3779b97f4a7c15ull,
               "open-loop-arrivals");
  const auto push = [&](double t_s) {
    sim::SimTime t = spec.start + sim::seconds(t_s);
    if (!out.empty() && t <= out.back()) t = out.back() + 1;
    out.push_back(t);
  };
  switch (spec.process) {
    case ArrivalSpec::Process::kIncast:
      // incast_period > 0, so the waves are already strictly increasing.
      out.resize(static_cast<std::size_t>(count));
      for (std::size_t k = 0; k < out.size(); ++k) {
        out[k] = spec.start + static_cast<sim::SimTime>(k) * spec.incast_period;
      }
      break;
    case ArrivalSpec::Process::kPoisson: {
      double t = 0.0;
      for (int k = 0; k < count; ++k) {
        t += rng.exponential(1.0 / spec.rate_per_s);
        push(t);
      }
      break;
    }
    case ArrivalSpec::Process::kBursty: {
      double t = 0.0;
      double remaining_on = rng.exponential(spec.on_mean_s);
      for (int k = 0; k < count; ++k) {
        // Memoryless gaps carry across OFF periods: any part of the gap
        // not covered by the current ON burst spills into the next one.
        double gap = rng.exponential(1.0 / spec.rate_per_s);
        while (gap > remaining_on) {
          gap -= remaining_on;
          t += remaining_on + rng.exponential(spec.off_mean_s);
          remaining_on = rng.exponential(spec.on_mean_s);
        }
        t += gap;
        remaining_on -= gap;
        push(t);
      }
      break;
    }
  }
  return out;
}

namespace {

// Per-client bookkeeping, preallocated before the run. Each latency slot
// is written at most once, by the reader coroutine of the owning client's
// node — single-writer per shard, merged in index order afterwards.
struct RpcState {
  std::vector<std::vector<sim::SimTime>> arrivals;  // [client][seq]
  std::vector<std::vector<sim::SimTime>> latency;   // [client][seq]; -1 open
};

struct PendingReq {
  std::uint32_t client = 0;
  std::uint32_t seq = 0;
};

int rpc_node_of(int client, const RpcConfig& cfg) {
  return 1 + client % cfg.client_nodes;
}

void validate_rpc(const RpcConfig& cfg) {
  if (cfg.client_nodes < 1 || cfg.clients_per_node < 1 ||
      cfg.requests_per_client < 1) {
    throw std::invalid_argument("rpc workload: empty client population");
  }
  if (cfg.request_bytes < kWireHeaderBytes ||
      cfg.response_bytes < kWireHeaderBytes) {
    throw std::invalid_argument("rpc workload: payload below wire header");
  }
}

RpcState make_rpc_state(const RpcConfig& cfg) {
  const int clients = cfg.client_nodes * cfg.clients_per_node;
  RpcState st;
  st.arrivals.resize(static_cast<std::size_t>(clients));
  st.latency.resize(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    st.arrivals[static_cast<std::size_t>(c)] =
        arrival_times(cfg.arrivals, cfg.requests_per_client, cfg.seed, c);
    st.latency[static_cast<std::size_t>(c)].assign(
        static_cast<std::size_t>(cfg.requests_per_client), -1);
  }
  return st;
}

RpcResult fold_rpc(const RpcState& st,
                   std::uint64_t events, sim::SimTime finished) {
  RpcResult r;
  std::uint64_t h = sim::kFnvShortOffset;
  for (std::size_t c = 0; c < st.latency.size(); ++c) {
    for (std::size_t k = 0; k < st.latency[c].size(); ++k) {
      const sim::SimTime lat = st.latency[c][k];
      ++r.requests;
      fnv1a_fold(h, static_cast<std::uint64_t>(c));
      fnv1a_fold(h, static_cast<std::uint64_t>(k));
      fnv1a_fold(h, static_cast<std::uint64_t>(lat));
      if (lat >= 0) {
        r.latency.add(lat);
        ++r.responses;
      } else {
        ++r.in_flight;
      }
    }
  }
  r.finished_at = finished;
  r.events = events;
  // The digest certifies workload-visible outcomes only. Event totals are
  // shard-invariant too (each fault-campaign carrier flips as two per-end
  // parts at every shard count) and are compared beside the digest;
  // folding them in would move every recorded digest.
  fnv1a_fold(h, static_cast<std::uint64_t>(finished));
  r.digest = h;
  return r;
}

// Opens the feeder coroutines: one per logical client, waking at each
// precomputed arrival and queueing the request on its node's mailbox. The
// per-node client drains the mailbox through the node's single stack
// endpoint — head-of-line blocking across the node's clients is part of
// the modeled workload (one kernel socket queue), and the queueing it
// causes is visible in the tail because latency runs from the *scheduled*
// arrival.
sim::Task rpc_feeder(sim::Simulator& sim,
                     const std::vector<sim::SimTime>& times,
                     std::uint32_t client, sim::Mailbox<PendingReq>& mbox) {
  for (std::uint32_t k = 0; k < times.size(); ++k) {
    const sim::SimTime t = times[k];
    if (t > sim.now()) co_await sim::Delay{sim, t - sim.now()};
    mbox.push({client, k});
  }
}

// Answers `count` requests, echoing each header's (client, seq) in a
// response of the size the header asks for.
template <typename End>
sim::Task rpc_server(End end, std::uint64_t count) {
  (void)co_await end.open();
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto m = co_await end.recv(kWireHeaderBytes);
    const net::Buffer& hdr = payload(m);
    if (hdr.size() < kWireHeaderBytes) co_return;  // EOF
    const auto [client, seq, resp, req] = header_of(hdr);
    if (req > kWireHeaderBytes) (void)co_await end.rest(req - kWireHeaderBytes);
    (void)co_await end.reply(m, wire_message(resp, {client, seq, resp, 0}));
  }
}

// Records the latency of each of `count` responses.
template <typename End>
sim::Task rpc_reader(sim::Simulator& sim, End end, RpcState& st,
                     std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto m = co_await end.recv(kWireHeaderBytes);
    const net::Buffer& hdr = payload(m);
    if (hdr.size() < kWireHeaderBytes) co_return;  // EOF
    const auto [client, seq, resp, req] = header_of(hdr);
    if (resp > kWireHeaderBytes) {
      (void)co_await end.rest(resp - kWireHeaderBytes);
    }
    st.latency.at(client).at(seq) =
        sim.now() - st.arrivals.at(client).at(seq);
  }
}

// One client node: once its End is up, a reader takes the responses while
// the node sends its clients' `count` requests in mailbox order.
template <typename End>
sim::Task rpc_client(sim::Simulator& sim, End end, const RpcConfig& cfg,
                     RpcState& st, sim::Mailbox<PendingReq>& mbox,
                     std::uint64_t count) {
  const bool up = co_await end.open();
  if (!up) co_return;
  rpc_reader(sim, end, st, count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const PendingReq rq = co_await mbox.pop();
    (void)co_await end.send(
        wire_message(cfg.request_bytes,
                     {rq.client, rq.seq,
                      static_cast<std::uint32_t>(cfg.response_bytes),
                      static_cast<std::uint32_t>(cfg.request_bytes)}));
  }
}

// The open-loop RPC driver: node 0 serves nodes 1..client_nodes.
template <typename Service>
RpcResult rpc(const Scenario& s, const RpcConfig& cfg, BedCore& bed,
              Service service) {
  bed.cluster.set_mtu_all(s.mtu);
  RpcState st = make_rpc_state(cfg);
  std::optional<sim::FaultPlan> plan;
  arm_fault_campaign(plan, bed, cfg.fault_seed);

  const auto per_node = static_cast<std::uint64_t>(cfg.clients_per_node) *
                        static_cast<std::uint64_t>(cfg.requests_per_client);
  service.serve(cfg.client_nodes, [per_node](auto end, int nodes) {
    rpc_server(end, per_node * static_cast<std::uint64_t>(nodes));
  });
  std::vector<std::unique_ptr<sim::Mailbox<PendingReq>>> mboxes;
  for (int n = 1; n <= cfg.client_nodes; ++n) {
    mboxes.push_back(
        std::make_unique<sim::Mailbox<PendingReq>>(bed.sim_of(n)));
    service.client(n, [&bed, &cfg, &st, mb = mboxes.back().get(), n,
                       per_node](auto end) {
      rpc_client(bed.sim_of(n), end, cfg, st, *mb, per_node);
    });
  }
  const int clients = cfg.client_nodes * cfg.clients_per_node;
  for (int c = 0; c < clients; ++c) {
    const int n = rpc_node_of(c, cfg);
    rpc_feeder(bed.sim_of(n), st.arrivals[static_cast<std::size_t>(c)],
               static_cast<std::uint32_t>(c),
               *mboxes[static_cast<std::size_t>(n - 1)]);
  }
  bed.run();
  return fold_rpc(st, bed.events_executed(), bed.now());
}

}  // namespace

RpcResult rpc_clic(const Scenario& s, const RpcConfig& cfg) {
  validate_rpc(cfg);
  ClicBed bed(with_nodes(s.cluster, cfg.client_nodes + 1), s.clic);
  return rpc(s, cfg, bed, ClicService{&bed, kRpcServerPort, kRpcClientPort});
}

RpcResult rpc_tcp(const Scenario& s, const RpcConfig& cfg) {
  validate_rpc(cfg);
  TcpBed bed(with_nodes(s.cluster, cfg.client_nodes + 1), s.tcp);
  return rpc(s, cfg, bed, TcpService{&bed, kRpcTcpPort});
}

namespace {

void validate_streaming(const StreamingConfig& cfg) {
  if (cfg.streams < 1 || cfg.frames_per_stream < 1 || cfg.frame_bytes < 1) {
    throw std::invalid_argument("streaming workload: empty stream set");
  }
  if (cfg.fragment_bytes <= kWireHeaderBytes) {
    throw std::invalid_argument("streaming workload: fragment below header");
  }
  if (cfg.cadence <= 0 || cfg.deadline <= 0) {
    throw std::invalid_argument("streaming workload: bad cadence/deadline");
  }
}

// One frame's fragments; each also carries its own kWireHeaderBytes header.
std::vector<net::Fragment> frame_fragments(const StreamingConfig& cfg) {
  return net::fragments(cfg.frame_bytes,
                        cfg.fragment_bytes - kWireHeaderBytes);
}

// Frame generation times are a pure function of (config, stream): the
// receiver computes the identical schedule without any metadata exchange.
// Each stream gets a seeded phase offset within one cadence so the senders
// don't fire in lockstep (unless seed collisions make them).
sim::SimTime stream_phase(const StreamingConfig& cfg, int stream) {
  sim::Rng rng(cfg.seed + static_cast<std::uint64_t>(stream) *
                              0x9e3779b97f4a7c15ull,
               "stream-phase");
  return cfg.start + rng.uniform_int(0, cfg.cadence - 1);
}

using JitterBuffers = std::vector<std::unique_ptr<JitterBuffer>>;

// Sends `stream`'s frames at their cadence, once its End is up, one wire
// message per fragment.
template <typename End>
sim::Task frame_sender(sim::Simulator& sim, End end, const StreamingConfig& cfg,
                       int stream, const std::vector<net::Fragment>& frags) {
  const bool up = co_await end.open();
  if (!up) co_return;
  const sim::SimTime t0 = stream_phase(cfg, stream);
  for (int k = 0; k < cfg.frames_per_stream; ++k) {
    const sim::SimTime gen = t0 + static_cast<sim::SimTime>(k) * cfg.cadence;
    if (gen > sim.now()) co_await sim::Delay{sim, gen - sim.now()};
    for (std::size_t f = 0; f < frags.size(); ++f) {
      (void)co_await end.send(
          wire_message(kWireHeaderBytes + frags[f].length,
                       {static_cast<std::uint32_t>(stream),
                        static_cast<std::uint32_t>(k),
                        static_cast<std::uint32_t>(f),
                        static_cast<std::uint32_t>(frags.size())}));
    }
  }
}

// Hands `count` fragments to their streams' jitter buffers.
template <typename End>
sim::Task frame_receiver(End end, JitterBuffers& jbs,
                         const std::vector<net::Fragment>& frags,
                         std::uint64_t count) {
  (void)co_await end.open();
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto m = co_await end.recv(kWireHeaderBytes);
    const net::Buffer& hdr = payload(m);
    if (hdr.size() < kWireHeaderBytes) co_return;  // EOF
    const auto [stream, frame, frag, frags_in_frame] = header_of(hdr);
    const std::int64_t body = frags.at(frag).length;
    if (body > 0) (void)co_await end.rest(body);
    (void)jbs.at(stream)->on_fragment(frame, frag);
  }
}

// Builds node 0's jitter buffers with every frame's deadline pre-scheduled.
JitterBuffers make_jitter_buffers(sim::Simulator& rx_sim,
                                  const StreamingConfig& cfg,
                                  const std::vector<net::Fragment>& frags) {
  JitterBuffers jbs;
  for (int s = 0; s < cfg.streams; ++s) {
    auto jb = std::make_unique<JitterBuffer>(rx_sim);
    const sim::SimTime t0 = stream_phase(cfg, s);
    for (int k = 0; k < cfg.frames_per_stream; ++k) {
      const sim::SimTime gen = t0 + static_cast<sim::SimTime>(k) * cfg.cadence;
      jb->expect_frame(static_cast<std::uint32_t>(k),
                       static_cast<int>(frags.size()), gen, gen + cfg.deadline);
    }
    jbs.push_back(std::move(jb));
  }
  return jbs;
}

StreamingResult fold_streaming(const JitterBuffers& jbs, std::uint64_t events,
                               sim::SimTime finished) {
  StreamingResult r;
  std::uint64_t h = sim::kFnvShortOffset;
  for (const auto& jb : jbs) {  // stream index order
    r.frames += jb->frames_expected();
    r.on_time += jb->frames_on_time();
    r.deadline_misses += jb->deadline_misses();
    r.late_fragments += jb->late_fragments();
    r.duplicate_fragments += jb->duplicate_fragments();
    r.in_flight += jb->pending_frames();
    r.max_depth = std::max(r.max_depth, jb->max_depth());
    r.latency.merge(jb->latency());
    fnv1a_fold(h, jb->frames_on_time());
    fnv1a_fold(h, jb->deadline_misses());
    fnv1a_fold(h, jb->late_fragments());
    fnv1a_fold(h, jb->duplicate_fragments());
    fnv1a_fold(h, static_cast<std::uint64_t>(jb->max_depth()));
    fnv1a_fold(h, jb->latency().count());
    fnv1a_fold(h, static_cast<std::uint64_t>(jb->latency().min()));
    fnv1a_fold(h, static_cast<std::uint64_t>(jb->latency().max()));
    fnv1a_fold(h, static_cast<std::uint64_t>(jb->latency().quantile(0.50)));
    fnv1a_fold(h, static_cast<std::uint64_t>(jb->latency().quantile(0.99)));
    fnv1a_fold(h, static_cast<std::uint64_t>(jb->latency().quantile(0.999)));
  }
  r.finished_at = finished;
  r.events = events;
  // Workload-visible outcomes only, as in fold_rpc.
  fnv1a_fold(h, static_cast<std::uint64_t>(finished));
  r.digest = h;
  return r;
}

// The open-loop streaming driver: nodes 1..streams each send one stream
// to node 0.
template <typename Service>
StreamingResult streaming(const Scenario& s, const StreamingConfig& cfg,
                          BedCore& bed, Service service) {
  bed.cluster.set_mtu_all(s.mtu);
  const std::vector<net::Fragment> frags = frame_fragments(cfg);
  std::optional<sim::FaultPlan> plan;
  arm_fault_campaign(plan, bed, cfg.fault_seed);

  JitterBuffers jbs = make_jitter_buffers(bed.sim_of(0), cfg, frags);
  const auto per_stream =
      static_cast<std::uint64_t>(cfg.frames_per_stream) * frags.size();
  service.serve(cfg.streams, [&jbs, &frags, per_stream](auto end, int n) {
    frame_receiver(end, jbs, frags, per_stream * static_cast<std::uint64_t>(n));
  });
  for (int st = 0; st < cfg.streams; ++st) {
    service.client(st + 1, [&bed, &cfg, &frags, st](auto end) {
      frame_sender(bed.sim_of(st + 1), end, cfg, st, frags);
    });
  }
  bed.run();
  return fold_streaming(jbs, bed.events_executed(), bed.now());
}

}  // namespace

StreamingResult streaming_clic(const Scenario& s, const StreamingConfig& cfg) {
  validate_streaming(cfg);
  ClicBed bed(with_nodes(s.cluster, cfg.streams + 1), s.clic);
  return streaming(s, cfg, bed, ClicService{&bed, kStreamPort, kStreamPort});
}

StreamingResult streaming_tcp(const Scenario& s, const StreamingConfig& cfg) {
  validate_streaming(cfg);
  TcpBed bed(with_nodes(s.cluster, cfg.streams + 1), s.tcp);
  return streaming(s, cfg, bed, TcpService{&bed, kStreamTcpPort});
}

// --- Sweep helpers ---------------------------------------------------------------

std::vector<std::int64_t> sweep_sizes(std::int64_t lo, std::int64_t hi,
                                      int per_decade) {
  if (lo < 1 || hi < lo || per_decade < 1) {
    throw std::invalid_argument("sweep_sizes: bad range");
  }
  std::vector<std::int64_t> sizes;
  const double step = std::pow(10.0, 1.0 / per_decade);
  double x = static_cast<double>(lo);
  std::int64_t last = 0;
  while (x <= static_cast<double>(hi) * 1.0001) {
    const auto v = static_cast<std::int64_t>(std::llround(x));
    if (v != last) sizes.push_back(v);
    last = v;
    x *= step;
  }
  if (sizes.empty() || sizes.back() < hi) sizes.push_back(hi);
  return sizes;
}

}  // namespace clicsim::apps
