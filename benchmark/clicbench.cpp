// clicbench: the end-to-end benchmark of the simulator and of the CLIC
// stack it models (benchmark/README.md has the metric, workload and layer
// tables and the reasons behind them).
//
//   clicbench --workload W [--seed N] [--seconds S] [--trace 0|1]
//             [--trace-out FILE] [--smoke]
//
// One process runs one workload on T = min(cores, 4) threads. After a
// repeated set-up measurement and the once-per-process correctness gates,
// it repeats whole workload passes until S seconds have elapsed. Every pass
// re-simulates the same inputs, so its simulated results must repeat
// exactly; the host time of a pass is the measured quantity.
//
// Without tracing the passes run bare and the end-to-end metrics are
// reported. With `--trace 1`, untraced and traced passes alternate: traced
// passes record spans (workload -> apps.cell -> apps.bed_build / sim.run)
// and the layer counters at the same boundaries, the per-layer metrics are
// reported, and trace_overhead compares the two kinds of pass.
//
// stdout: one `workload metric value unit` line per metric, then, as the
// last line, a JSON object {correct, attempted, failed, metrics}. Exit
// status is 0 only when every correctness gate held.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/sweep.hpp"
#include "apps/testbed.hpp"
#include "apps/workloads.hpp"
#include "bench/bench_util.hpp"
#include "clic/api.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"

using namespace clicsim;

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Interference from other work on the host only ever slows a pass down,
// so pass times are summarized by the fastest measured pass.
double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// ---- Spans -----------------------------------------------------------------
//
// Recorded only in traced passes, from the benchmark's side of each call
// into a layer. A cell's spans live in its own slot, so workers never share
// a record; spans[0] is the enclosing apps.cell span.

struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
};

struct CellTrace {
  int tid = 0;
  std::vector<Span> spans;
  std::uint64_t events = 0;  // counters at the sim.run boundary
  sim::SimTime sim_ns = 0;
};

int worker_tid() {
  static std::atomic<int> next{1};
  thread_local const int tid = next.fetch_add(1);
  return tid;
}

class SpanScope {
 public:
  SpanScope(CellTrace* trace, const char* name) : trace_(trace) {
    if (trace_ == nullptr) return;
    if (trace_->spans.empty()) trace_->tid = worker_tid();
    index_ = trace_->spans.size();
    trace_->spans.push_back({name, Clock::now(), {}});
  }
  ~SpanScope() {
    if (trace_ != nullptr) trace_->spans[index_].end = Clock::now();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  CellTrace* trace_;
  std::size_t index_ = 0;
};

// ---- Layer counters --------------------------------------------------------
//
// Read through public accessors after a bed has run (traced passes only).
// `stack_observed` is false where a workload calls a library entry point
// that builds and destroys its bed internally: those layers are reported
// as -1, "not observed", never as a fabricated 0.

struct Layers {
  bool stack_observed = true;
  std::uint64_t events = 0;
  sim::SimTime sim_ns = 0;
  std::uint64_t shard_windows = 0;
  std::uint64_t shard_barrier_waits = 0;
  std::uint64_t shard_cross_posts = 0;
  double shard_imbalance = 0.0;  // worst bed's max / mean shard events
  std::uint64_t pool_heap_allocs = 0;
  std::uint64_t pool_reuses = 0;
  std::int64_t pool_high_water = 0;
  std::uint64_t switch_forwarded = 0;
  std::uint64_t switch_drops = 0;
  std::uint64_t syscalls = 0;
  std::uint64_t bottom_halves = 0;
  std::uint64_t driver_tx = 0;
  std::uint64_t driver_rx = 0;
  std::uint64_t timers_fired = 0;
  std::uint64_t timers_cancelled = 0;
  std::uint64_t nic_tx = 0;
  std::uint64_t nic_rx = 0;
  std::uint64_t nic_irqs = 0;
  std::uint64_t nic_ring_drops = 0;
  std::uint64_t clic_messages = 0;
  std::uint64_t clic_retransmits = 0;
  std::uint64_t clic_timeouts = 0;
  std::uint64_t clic_duplicates = 0;
  std::uint64_t clic_acks = 0;
  std::uint64_t tcp_segments = 0;
  std::uint64_t tcp_retransmits = 0;
  std::uint64_t ip_fragments = 0;

  void add(const Layers& o) {
    stack_observed = stack_observed && o.stack_observed;
    events += o.events;
    sim_ns += o.sim_ns;
    shard_windows += o.shard_windows;
    shard_barrier_waits += o.shard_barrier_waits;
    shard_cross_posts += o.shard_cross_posts;
    shard_imbalance = std::max(shard_imbalance, o.shard_imbalance);
    pool_heap_allocs += o.pool_heap_allocs;
    pool_reuses += o.pool_reuses;
    pool_high_water = std::max(pool_high_water, o.pool_high_water);
    switch_forwarded += o.switch_forwarded;
    switch_drops += o.switch_drops;
    syscalls += o.syscalls;
    bottom_halves += o.bottom_halves;
    driver_tx += o.driver_tx;
    driver_rx += o.driver_rx;
    timers_fired += o.timers_fired;
    timers_cancelled += o.timers_cancelled;
    nic_tx += o.nic_tx;
    nic_rx += o.nic_rx;
    nic_irqs += o.nic_irqs;
    nic_ring_drops += o.nic_ring_drops;
    clic_messages += o.clic_messages;
    clic_retransmits += o.clic_retransmits;
    clic_timeouts += o.clic_timeouts;
    clic_duplicates += o.clic_duplicates;
    clic_acks += o.clic_acks;
    tcp_segments += o.tcp_segments;
    tcp_retransmits += o.tcp_retransmits;
    ip_fragments += o.ip_fragments;
  }
};

void absorb_pool(const net::BufferPool& pool, Layers& l) {
  const net::BufferPool::Stats s = pool.stats();
  l.pool_heap_allocs += s.data_heap_allocs + s.header_heap_allocs;
  l.pool_reuses += s.data_reuses + s.header_reuses;
  l.pool_high_water = std::max(l.pool_high_water, s.high_water);
}

void absorb_core(apps::BedCore& bed, Layers& l) {
  l.events += bed.events_executed();
  l.sim_ns += bed.now();
  const sim::ShardGroup& g = bed.shards;
  l.shard_windows += g.windows_opened();
  l.shard_barrier_waits += g.barrier_waits();
  l.shard_cross_posts += g.cross_shard_posts();
  std::uint64_t most = 0;
  for (int s = 0; s < g.shards(); ++s) {
    most = std::max(most, g.shard(s).events_executed());
  }
  l.shard_imbalance = std::max(
      l.shard_imbalance,
      ratio(static_cast<double>(most) * g.shards(),
            static_cast<double>(g.events_executed())));
  absorb_pool(bed.pool, l);
  for (const auto& p : bed.shard_pools) absorb_pool(*p, l);
  for (int s = 0; s < bed.cluster.switch_count(); ++s) {
    l.switch_forwarded += bed.cluster.switch_at(s).forwarded();
    l.switch_drops += bed.cluster.switch_at(s).dropped();
  }
  for (int n = 0; n < bed.cluster.size(); ++n) {
    os::Node& node = bed.cluster.node(n);
    l.syscalls += node.kernel().syscalls();
    l.bottom_halves += node.kernel().bottom_halves_run();
    l.timers_fired += node.kernel().timer_wheel().fired();
    l.timers_cancelled += node.kernel().timer_wheel().cancelled();
    for (int i = 0; i < node.nic_count(); ++i) {
      l.driver_tx += node.driver(i).tx_packets();
      l.driver_rx += node.driver(i).rx_packets();
      l.nic_tx += node.nic(i).tx_frames();
      l.nic_rx += node.nic(i).rx_frames();
      l.nic_irqs += node.nic(i).interrupts_fired();
      l.nic_ring_drops += node.nic(i).rx_ring_drops();
    }
  }
}

void absorb_clic(clic::ClicModule& mod, const std::vector<int>& peers,
                 Layers& l) {
  l.clic_messages += mod.messages_sent();
  for (const int peer : peers) {
    const clic::Channel* ch = mod.channel_to(peer);
    if (ch == nullptr) continue;
    l.clic_retransmits += ch->retransmits();
    l.clic_timeouts += ch->timeouts();
    l.clic_duplicates += ch->duplicates();
    l.clic_acks += ch->acks_sent();
  }
}

// ---- Pass results ----------------------------------------------------------

struct Extra {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool operator==(const Extra&) const = default;
};

// Simulated results of one pass. Deterministic for a given seed: every
// pass, traced or not, must reproduce the first one exactly.
struct SimSummary {
  std::int64_t p50_ns = 0;
  std::int64_t p99_ns = 0;
  std::int64_t p999_ns = 0;
  double goodput_mbps = 0.0;
  std::vector<Extra> extras;  // workload-specific simulated numbers
  bool operator==(const SimSummary&) const = default;
};

struct PassResult {
  SimSummary sim;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> gate_failures;
  std::uint64_t samples = 0;
  // Traced passes only.
  Layers layers;
  std::vector<CellTrace> cells;
  std::uint64_t shared_mints = 0;  // process-wide, so taken around the pass
  std::uint64_t unpooled_copies = 0;
};

void gate(PassResult& r, bool holds, const std::string& what) {
  if (!holds) r.gate_failures.push_back(what);
}

void set_latency(SimSummary& s, const sim::HdrHistogram& h) {
  s.p50_ns = h.quantile(0.50);
  s.p99_ns = h.quantile(0.99);
  s.p999_ns = h.quantile(0.999);
}

void gate_quantile_order(PassResult& r, const sim::HdrHistogram& h,
                         const std::string& what) {
  gate(r,
       h.count() > 0 && h.quantile(0.50) <= h.quantile(0.99) &&
           h.quantile(0.99) <= h.quantile(0.999),
       what + ": p50 <= p99 <= p999");
}

// Runs `cells` jobs on a SweepRunner with T workers; each job gets its own
// trace slot when traced.
template <typename Row>
std::vector<Row> run_cells(
    int threads, std::size_t cells, bool traced, PassResult& pass,
    const std::function<Row(std::size_t, CellTrace*)>& job) {
  if (traced) pass.cells.assign(cells, CellTrace{});
  apps::SweepRunner<Row> runner(apps::SweepOptions{.jobs = threads});
  for (std::size_t i = 0; i < cells; ++i) {
    CellTrace* t = traced ? &pass.cells[i] : nullptr;
    runner.add([&job, i, t] {
      const SpanScope cell(t, "apps.cell");
      return job(i, t);
    });
  }
  return runner.run();
}

// ---- Workload parameters ----------------------------------------------------

struct Params {
  std::uint64_t seed = 1;
  int threads = 1;
  // Scaled by --smoke to ~1/100 of the work.
  int pingpong_reps = 200;
  int rpc_requests = 50;  // per client, per cell
  int rpc_seeds = 8;      // Poisson sub-seeds per rung
  int incast_waves = 600;
  int storm_sends = 96;   // confirmed sends per node per stream
};

// ---- pingpong-sweep --------------------------------------------------------
//
// Closed loop, one message outstanding: two nodes at MTU 9000 ping-pong a
// seeded payload that the responder echoes and the initiator verifies.
// Timing matches apps::clic_one_way / tcp_one_way (warm-up exchange, then
// `reps` timed round trips), which the gates check bit for bit.

enum class Stack { kClic, kTcp };

struct PingState {
  sim::SimTime t0 = 0;
  sim::SimTime t1 = 0;
  std::vector<sim::SimTime> round_trips;
  std::uint64_t exchanges = 0;
  std::uint64_t bad = 0;
  tcpip::TcpSocket* initiator_sock = nullptr;
  tcpip::TcpSocket* responder_sock = nullptr;
};

sim::Task clic_initiator(sim::Simulator& sim, clic::Port& port,
                         net::Buffer payload, int reps, PingState& st) {
  for (int r = -1; r < reps; ++r) {  // r == -1 is the warm-up exchange
    const sim::SimTime start = sim.now();
    if (r == 0) st.t0 = start;
    const clic::SendStatus sent = co_await port.send(1, 1, payload);
    const clic::Message echo = co_await port.recv();
    ++st.exchanges;
    if (!sent.ok || !echo.data.content_equals(payload)) ++st.bad;
    if (r >= 0) st.round_trips.push_back(sim.now() - start);
  }
  st.t1 = sim.now();
}

sim::Task clic_echo(clic::Port& port, int reps, PingState& st) {
  for (int r = 0; r < reps + 1; ++r) {
    clic::Message m = co_await port.recv();
    const clic::SendStatus sent = co_await port.send(0, 1, std::move(m.data));
    if (!sent.ok) ++st.bad;
  }
}

// TCP carries size-only payloads and checks only the echoed length: the
// TCP model's byte stream reorders data on the first exchange of messages
// above ~256 KiB (README "Known defects"), while its timing is unaffected.
sim::Task tcp_initiator(sim::Simulator& sim, tcpip::TcpStack& stack,
                        std::int64_t size, int reps, PingState& st) {
  tcpip::TcpSocket& sock = stack.create_socket();
  st.initiator_sock = &sock;
  const bool connected = co_await sock.connect(1, 5000);
  if (!connected) {
    ++st.bad;
    co_return;
  }
  for (int r = -1; r < reps; ++r) {
    const sim::SimTime start = sim.now();
    if (r == 0) st.t0 = start;
    (void)co_await sock.send(net::Buffer::zeros(size));
    const net::Buffer echo = co_await sock.recv_exact(size);
    ++st.exchanges;
    if (echo.size() != size) ++st.bad;
    if (r >= 0) st.round_trips.push_back(sim.now() - start);
  }
  st.t1 = sim.now();
}

sim::Task tcp_echo(tcpip::TcpStack& stack, std::int64_t size, int reps,
                   PingState& st) {
  tcpip::TcpSocket* sock = co_await stack.accept(5000);
  st.responder_sock = sock;
  for (int r = 0; r < reps + 1; ++r) {
    net::Buffer got = co_await sock->recv_exact(size);
    (void)co_await sock->send(std::move(got));
  }
}

struct PingRow {
  Stack stack = Stack::kClic;
  std::int64_t size = 0;
  sim::SimTime one_way = 0;
  std::vector<sim::SimTime> round_trips;
  std::uint64_t exchanges = 0;
  std::uint64_t bad = 0;
  Layers layers;
};

std::unique_ptr<apps::ClicBed> make_clic_pair(const apps::Scenario& s) {
  auto bed = std::make_unique<apps::ClicBed>(s.cluster, s.clic);
  bed->cluster.set_mtu_all(s.mtu);
  return bed;
}

std::unique_ptr<apps::TcpBed> make_tcp_pair(const apps::Scenario& s) {
  auto bed = std::make_unique<apps::TcpBed>(s.cluster, s.tcp);
  bed->cluster.set_mtu_all(s.mtu);
  bed->tcp[1]->listen(5000);
  return bed;
}

std::uint64_t payload_seed(std::uint64_t seed, std::int64_t size) {
  return splitmix(seed ^ static_cast<std::uint64_t>(size));
}

// One (stack, size) cell; sizes start at 16 B, so TCP never sees the empty
// message apps::tcp_one_way pads to one byte.
PingRow pingpong_cell(const apps::Scenario& s, Stack stack, std::int64_t size,
                      int reps, std::uint64_t seed, CellTrace* t) {
  PingRow row;
  row.stack = stack;
  row.size = size;
  PingState st;
  if (stack == Stack::kClic) {
    std::unique_ptr<apps::ClicBed> bed;
    {
      const SpanScope build(t, "apps.bed_build");
      bed = make_clic_pair(s);
    }
    clic::Port a(bed->module(0), 1);
    clic::Port b(bed->module(1), 1);
    clic_initiator(bed->sim_of(0), a,
                   net::Buffer::pattern(size, payload_seed(seed, size)), reps,
                   st);
    clic_echo(b, reps, st);
    {
      const SpanScope run(t, "sim.run");
      bed->run();
    }
    if (t != nullptr) {
      absorb_core(*bed, row.layers);
      absorb_clic(bed->module(0), {1}, row.layers);
      absorb_clic(bed->module(1), {0}, row.layers);
    }
  } else {
    std::unique_ptr<apps::TcpBed> bed;
    {
      const SpanScope build(t, "apps.bed_build");
      bed = make_tcp_pair(s);
    }
    tcp_initiator(bed->sim_of(0), *bed->tcp[0], size, reps, st);
    tcp_echo(*bed->tcp[1], size, reps, st);
    {
      const SpanScope run(t, "sim.run");
      bed->run();
    }
    if (t != nullptr) {
      absorb_core(*bed, row.layers);
      for (int n = 0; n < 2; ++n) {
        row.layers.tcp_segments += bed->tcp[n]->segments_sent();
        row.layers.ip_fragments += bed->ip[n]->fragments_sent();
      }
      for (const tcpip::TcpSocket* sock :
           {st.initiator_sock, st.responder_sock}) {
        if (sock != nullptr) row.layers.tcp_retransmits += sock->retransmits();
      }
    }
  }
  if (t != nullptr) {
    t->events = row.layers.events;
    t->sim_ns = row.layers.sim_ns;
  }
  row.one_way = reps > 0 ? (st.t1 - st.t0) / (2 * reps) : 0;
  row.round_trips = std::move(st.round_trips);
  row.exchanges = st.exchanges;
  row.bad = st.bad + (st.exchanges == static_cast<std::uint64_t>(reps) + 1
                          ? 0
                          : 1);
  return row;
}

const char* stack_name(Stack s) { return s == Stack::kClic ? "clic" : "tcp"; }

class PingPongSweep {
 public:
  explicit PingPongSweep(const Params& p)
      : p_(p), sizes_(apps::sweep_sizes(16, 4 * 1024 * 1024, 4)) {
    for (const Stack stack : {Stack::kClic, Stack::kTcp}) {
      for (const std::int64_t size : sizes_) cells_.push_back({stack, size});
    }
  }

  void setup() const {
    for (const auto& [stack, size] : cells_) {
      if (stack == Stack::kClic) {
        const auto bed = make_clic_pair(s_);
        (void)net::Buffer::pattern(size, payload_seed(p_.seed, size));
      } else {
        (void)make_tcp_pair(s_);
      }
    }
  }

  // The bench's ping-pong must time exactly like the library's one-way
  // drivers, at the latency and the bulk end of the curve.
  void gates(std::vector<std::string>& failures) const {
    for (const std::int64_t size : {std::int64_t{16}, std::int64_t{1} << 20}) {
      const sim::SimTime want_clic = apps::clic_one_way(s_, size);
      const sim::SimTime want_tcp = apps::tcp_one_way(s_, size);
      const PingRow clic = pingpong_cell(s_, Stack::kClic, size,
                                         s_.pingpong_reps, p_.seed, nullptr);
      const PingRow tcp = pingpong_cell(s_, Stack::kTcp, size,
                                        s_.pingpong_reps, p_.seed, nullptr);
      if (clic.one_way != want_clic || clic.bad != 0) {
        failures.push_back("pingpong: clic one-way at " +
                           std::to_string(size) + " B differs from "
                           "apps::clic_one_way");
      }
      if (tcp.one_way != want_tcp || tcp.bad != 0) {
        failures.push_back("pingpong: tcp one-way at " + std::to_string(size) +
                           " B differs from apps::tcp_one_way");
      }
    }
  }

  PassResult pass(bool traced) const {
    PassResult r;
    const std::vector<PingRow> rows = run_cells<PingRow>(
        p_.threads, cells_.size(), traced, r,
        [this](std::size_t i, CellTrace* t) {
          return pingpong_cell(s_, cells_[i].first, cells_[i].second,
                               p_.pingpong_reps, p_.seed, t);
        });
    sim::Series clic("clic");
    sim::Series tcp("tcp");
    for (const PingRow& row : rows) {
      r.attempted += row.exchanges;
      r.failed += row.bad;
      r.samples += row.round_trips.size();
      r.layers.add(row.layers);
      (row.stack == Stack::kClic ? clic : tcp)
          .add(static_cast<double>(row.size),
               apps::to_mbps(row.size, row.one_way));
      gate(r, row.bad == 0,
           std::string("pingpong: ") + stack_name(row.stack) + " " +
               std::to_string(row.size) + " B echoes verified");
      if (row.stack == Stack::kClic && row.size == sizes_.front()) {
        sim::HdrHistogram h(3);
        for (const sim::SimTime rtt : row.round_trips) h.add(rtt / 2);
        set_latency(r.sim, h);
        gate_quantile_order(r, h, "pingpong: clic 16 B one-way");
        r.sim.extras.push_back(
            {"sim_clic_one_way_16B", sim::to_us(row.one_way), "sim-us"});
      }
      if (row.stack == Stack::kTcp && row.size == sizes_.front()) {
        r.sim.extras.push_back(
            {"sim_tcp_one_way_16B", sim::to_us(row.one_way), "sim-us"});
      }
    }
    r.sim.goodput_mbps = clic.max_y();
    r.sim.extras.push_back({"sim_tcp_peak_bw", tcp.max_y(), "sim-Mb/s"});
    r.sim.extras.push_back(
        {"sim_clic_half_bw", bench::half_bandwidth_point(clic), "B"});
    r.sim.extras.push_back(
        {"sim_tcp_half_bw", bench::half_bandwidth_point(tcp), "B"});
    return r;
  }

 private:
  Params p_;
  apps::Scenario s_;
  std::vector<std::int64_t> sizes_;
  std::vector<std::pair<Stack, std::int64_t>> cells_;
};

// ---- rpc-poisson / rpc-incast -----------------------------------------------
//
// Open loop through the shipped apps::rpc_clic: 6 client nodes x `per_node`
// logical clients, 128 B requests, 1 KiB responses, latency from the
// scheduled arrival. The call builds and drops its bed internally, so only
// apps/sim numbers are observable from here.

constexpr int kRpcClientNodes = 6;
constexpr std::int64_t kRpcRequestBytes = 128;
constexpr std::int64_t kRpcResponseBytes = 1024;

apps::RpcConfig rpc_base(int clients_per_node, int requests) {
  apps::RpcConfig cfg;
  cfg.client_nodes = kRpcClientNodes;
  cfg.clients_per_node = clients_per_node;
  cfg.requests_per_client = requests;
  cfg.request_bytes = kRpcRequestBytes;
  cfg.response_bytes = kRpcResponseBytes;
  return cfg;
}

// What rpc_clic does before its first event: build the bed and precompute
// every client's arrival schedule.
void rpc_setup_cell(const apps::Scenario& s, const apps::RpcConfig& cfg) {
  os::ClusterConfig cc = s.cluster;
  cc.nodes = cfg.client_nodes + 1;
  apps::ClicBed bed(cc, s.clic);
  bed.cluster.set_mtu_all(s.mtu);
  const int clients = cfg.client_nodes * cfg.clients_per_node;
  for (int c = 0; c < clients; ++c) {
    (void)apps::arrival_times(cfg.arrivals, cfg.requests_per_client, cfg.seed,
                              c);
  }
}

constexpr double kRpcBitsPerExchange =
    (kRpcRequestBytes + kRpcResponseBytes) * 8.0;

// Shared pass body: runs the cells, folds the per-cell results, and gates
// every cell on completeness and quantile order.
std::vector<apps::RpcResult> run_rpc_cells(
    const Params& p, const apps::Scenario& s,
    const std::vector<apps::RpcConfig>& cfgs,
    const std::vector<std::string>& names, bool traced, PassResult& r) {
  std::vector<apps::RpcResult> rows = run_cells<apps::RpcResult>(
      p.threads, cfgs.size(), traced, r,
      [&s, &cfgs](std::size_t i, CellTrace* t) {
        apps::RpcResult res = apps::rpc_clic(s, cfgs[i]);
        if (t != nullptr) {
          t->events = res.events;
          t->sim_ns = res.finished_at;
        }
        return res;
      });
  r.layers.stack_observed = false;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const apps::RpcResult& res = rows[i];
    r.attempted += res.requests;
    r.failed += res.requests - res.responses;
    r.samples += res.responses;
    r.layers.events += res.events;
    r.layers.sim_ns += res.finished_at;
    gate(r, res.in_flight == 0 && res.responses == res.requests,
         names[i] + ": every request answered");
    gate_quantile_order(r, res.latency, names[i]);
  }
  return rows;
}

class RpcPoisson {
 public:
  static constexpr sim::SimTime kLimitNs = 1'000'000;  // p99 limit: 1 ms
  static constexpr int kClientsPerNode = 48;           // 288 clients

  explicit RpcPoisson(const Params& p) : p_(p) {
    for (int rung = 0; rung < static_cast<int>(rates_.size()); ++rung) {
      for (int k = 0; k < p_.rpc_seeds; ++k) {
        apps::RpcConfig cfg = rpc_base(kClientsPerNode, p_.rpc_requests);
        cfg.arrivals.process = apps::ArrivalSpec::Process::kPoisson;
        cfg.arrivals.rate_per_s =
            rates_[static_cast<std::size_t>(rung)] /
            (kRpcClientNodes * kClientsPerNode);
        cfg.seed = splitmix(p_.seed * 64 + static_cast<std::uint64_t>(k));
        cfgs_.push_back(cfg);
        rung_of_.push_back(rung);
        names_.push_back("rpc-poisson " +
                         std::to_string(static_cast<int>(
                             rates_[static_cast<std::size_t>(rung)])) +
                         " req/s seed " + std::to_string(k));
      }
    }
  }

  void setup() const {
    for (const apps::RpcConfig& cfg : cfgs_) rpc_setup_cell(s_, cfg);
  }

  void gates(std::vector<std::string>&) const {}

  PassResult pass(bool traced) const {
    PassResult r;
    const std::vector<apps::RpcResult> rows =
        run_rpc_cells(p_, s_, cfgs_, names_, traced, r);
    double max_rate = 0.0;
    for (int rung = 0; rung < static_cast<int>(rates_.size()); ++rung) {
      sim::HdrHistogram merged(3);
      bool answered = true;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        if (rung_of_[i] != rung) continue;
        merged.merge(rows[i].latency);
        answered = answered && rows[i].in_flight == 0;
      }
      const double rate = rates_[static_cast<std::size_t>(rung)];
      const std::int64_t p99 = merged.quantile(0.99);
      r.sim.extras.push_back({"sim_p99_at_" +
                                  std::to_string(static_cast<int>(rate)),
                              static_cast<double>(p99) / 1e3, "sim-us"});
      const bool meets = answered && p99 <= kLimitNs;
      if (rung == 0) {
        set_latency(r.sim, merged);
        gate(r, meets, "rpc-poisson: lowest rung meets the p99 limit");
      }
      if (rung + 1 == static_cast<int>(rates_.size())) {
        gate(r, !meets, "rpc-poisson: highest rung misses the p99 limit");
      }
      if (meets) max_rate = rate;
    }
    // Every request is answered (gated), so the payload rate carried at
    // the capacity rung is its offered rate times the exchange size.
    r.sim.goodput_mbps = max_rate * kRpcBitsPerExchange / 1e6;
    r.sim.extras.push_back({"sim_max_rate", max_rate, "sim-req/s"});
    return r;
  }

 private:
  Params p_;
  apps::Scenario s_;
  std::vector<double> rates_ = {10e3, 15e3, 20e3, 25e3, 30e3, 35e3, 40e3};
  std::vector<apps::RpcConfig> cfgs_;
  std::vector<int> rung_of_;
  std::vector<std::string> names_;
};

class RpcIncast {
 public:
  explicit RpcIncast(const Params& p) : p_(p) {
    s_.clic = apps::adaptive_clic_config();
    for (const int fan_in : {96, 192, 288}) {
      apps::RpcConfig cfg =
          rpc_base(fan_in / kRpcClientNodes, p_.incast_waves);
      cfg.arrivals.process = apps::ArrivalSpec::Process::kIncast;
      cfg.arrivals.incast_period = sim::milliseconds(12.0);
      cfg.seed = p_.seed;  // lockstep arrivals draw no randomness
      cfgs_.push_back(cfg);
      names_.push_back("rpc-incast fan-in " + std::to_string(fan_in));
    }
  }

  void setup() const {
    for (const apps::RpcConfig& cfg : cfgs_) rpc_setup_cell(s_, cfg);
  }

  void gates(std::vector<std::string>&) const {}

  PassResult pass(bool traced) const {
    PassResult r;
    const std::vector<apps::RpcResult> rows =
        run_rpc_cells(p_, s_, cfgs_, names_, traced, r);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const sim::HdrHistogram& h = rows[i].latency;
      const int fan_in = cfgs_[i].clients_per_node * kRpcClientNodes;
      r.sim.extras.push_back({"sim_p99_fan_in_" + std::to_string(fan_in),
                              static_cast<double>(h.quantile(0.99)) / 1e3,
                              "sim-us"});
    }
    const apps::RpcResult& widest = rows.back();
    set_latency(r.sim, widest.latency);
    r.sim.goodput_mbps = ratio(
        static_cast<double>(widest.responses) * kRpcBitsPerExchange * 1e3,
        static_cast<double>(widest.finished_at - apps::ArrivalSpec{}.start));
    return r;
  }

 private:
  Params p_;
  apps::Scenario s_;
  std::vector<apps::RpcConfig> cfgs_;
  std::vector<std::string> names_;
};

// ---- fabric-storm -----------------------------------------------------------
//
// One 1024-node two-level fat-tree, sharded T ways. Every node makes M
// confirmed 4 KiB sends to its ring neighbour on its own leaf (port 101)
// and M to its mirror node n+512 across the spine and a shard boundary
// (port 102); receivers verify each seeded payload.

constexpr int kStormNodes = 1024;
constexpr std::int64_t kStormBytes = 4096;
constexpr int kRingPort = 101;  // CLIC wire ports are 8-bit
constexpr int kMirrorPort = 102;

struct StormNode {
  std::uint64_t sent_ok = 0;
  std::uint64_t sent_failed = 0;
  std::uint64_t received = 0;
  std::uint64_t corrupt = 0;
  std::vector<sim::SimTime> latency;  // per confirmed send
};

net::Buffer storm_payload(std::uint64_t stream, int k) {
  return net::Buffer::pattern(
      kStormBytes, splitmix(stream + static_cast<std::uint64_t>(k)));
}

sim::Task storm_tx(sim::Simulator& sim, clic::ClicModule& mod, int port,
                   int dst, int count, std::uint64_t stream, StormNode* c) {
  for (int k = 0; k < count; ++k) {
    const sim::SimTime start = sim.now();
    const clic::SendStatus st = co_await mod.send(
        port, dst, port, storm_payload(stream, k), clic::SendMode::kConfirmed);
    c->latency.push_back(sim.now() - start);
    if (st.ok) {
      ++c->sent_ok;
    } else {
      ++c->sent_failed;
    }
  }
}

sim::Task storm_rx(clic::ClicModule& mod, int port, int count,
                   std::uint64_t stream, StormNode* c) {
  for (int k = 0; k < count; ++k) {
    const clic::Message got = co_await mod.recv(port);
    if (got.data.content_equals(storm_payload(stream, k))) {
      ++c->received;
    } else {
      ++c->corrupt;
    }
  }
}

class FabricStorm {
 public:
  explicit FabricStorm(const Params& p) : p_(p) {}

  std::unique_ptr<apps::ClicBed> build() const {
    os::ClusterConfig cc;
    cc.nodes = kStormNodes;
    cc.shards = p_.threads;
    cc.topology = os::TopologySpec::fat_tree();
    auto bed = std::make_unique<apps::ClicBed>(cc, apps::paper_clic_config());
    for (int n = 0; n < kStormNodes; ++n) {
      bed->module(n).bind_port(kRingPort);
      bed->module(n).bind_port(kMirrorPort);
    }
    return bed;
  }

  void setup() const { (void)build(); }

  void gates(std::vector<std::string>&) const {}

  PassResult pass(bool traced) const {
    PassResult r;
    if (traced) r.cells.assign(1, CellTrace{});
    CellTrace* t = traced ? &r.cells[0] : nullptr;
    const SpanScope cell(t, "apps.cell");
    std::unique_ptr<apps::ClicBed> bed;
    {
      const SpanScope build_span(t, "apps.bed_build");
      bed = build();
    }
    const os::TopologyPlan& plan = bed->cluster.topology();
    const int m = p_.storm_sends;
    std::vector<StormNode> nodes(kStormNodes);
    for (auto& n : nodes) n.latency.reserve(2 * static_cast<std::size_t>(m));
    const std::uint64_t base = splitmix(p_.seed);
    auto stream = [base](int src, int port) {
      return splitmix(base ^ (static_cast<std::uint64_t>(src) << 8 |
                              static_cast<std::uint64_t>(port)));
    };
    for (int n = 0; n < kStormNodes; ++n) {
      const int ring = ring_next(plan, n);
      const int mirror = mirror_of(n);
      StormNode* self = &nodes[static_cast<std::size_t>(n)];
      apps::ClicBed* b = bed.get();
      bed->sim_of(n).at(0, [b, &sim = bed->sim_of(n), n, ring, mirror, m,
                            self, rs = stream(n, kRingPort),
                            ms = stream(n, kMirrorPort)] {
        storm_tx(sim, b->module(n), kRingPort, ring, m, rs, self);
        storm_tx(sim, b->module(n), kMirrorPort, mirror, m, ms, self);
      });
      storm_rx(bed->module(ring), kRingPort, m, stream(n, kRingPort),
               &nodes[static_cast<std::size_t>(ring)]);
      storm_rx(bed->module(mirror), kMirrorPort, m, stream(n, kMirrorPort),
               &nodes[static_cast<std::size_t>(mirror)]);
    }
    {
      const SpanScope run(t, "sim.run");
      bed->run();
    }

    sim::HdrHistogram h(3);
    std::uint64_t delivered = 0;
    std::uint64_t send_failures = 0;
    std::uint64_t corrupt = 0;
    for (const StormNode& n : nodes) {
      for (const sim::SimTime lat : n.latency) h.add(lat);
      delivered += n.received;
      send_failures += n.sent_failed;
      corrupt += n.corrupt;
    }
    const std::uint64_t sent =
        2ull * kStormNodes * static_cast<std::uint64_t>(m);
    r.attempted = sent;
    // A send fails when its confirmation fails or its verified payload
    // never arrives; the two can overlap, so take the larger count.
    r.failed = std::max(sent - std::min(sent, delivered), send_failures);
    r.samples = h.count();
    gate(r, delivered == sent, "fabric-storm: delivered == sent");
    gate(r, corrupt == 0, "fabric-storm: every payload verified");
    gate(r, send_failures == 0, "fabric-storm: every confirmed send acked");
    gate_quantile_order(r, h, "fabric-storm: confirmed-send completion");
    set_latency(r.sim, h);
    r.sim.goodput_mbps =
        ratio(static_cast<double>(delivered) * kStormBytes * 8.0 * 1e3,
              static_cast<double>(bed->now()));
    r.sim.extras.push_back(
        {"sim_makespan", sim::to_us(bed->now()), "sim-us"});
    if (t != nullptr) {
      absorb_core(*bed, r.layers);
      for (int n = 0; n < kStormNodes; ++n) {
        const int back = ring_prev(plan, n);
        absorb_clic(bed->module(n), {ring_next(plan, n), back, mirror_of(n)},
                    r.layers);
      }
      t->events = r.layers.events;
      t->sim_ns = r.layers.sim_ns;
    }
    return r;
  }

 private:
  static int leaf_base(const os::TopologyPlan& plan, int n) {
    return n - plan.local_index(n);
  }
  static int ring_next(const os::TopologyPlan& plan, int n) {
    const int size = plan.nodes_on(plan.leaf_of_node(n));
    return leaf_base(plan, n) + (plan.local_index(n) + 1) % size;
  }
  static int ring_prev(const os::TopologyPlan& plan, int n) {
    const int size = plan.nodes_on(plan.leaf_of_node(n));
    return leaf_base(plan, n) + (plan.local_index(n) + size - 1) % size;
  }
  static int mirror_of(int n) { return (n + kStormNodes / 2) % kStormNodes; }

  Params p_;
};

// ---- Driver -----------------------------------------------------------------

const char* const kWorkloads[] = {"pingpong-sweep", "rpc-poisson",
                                  "rpc-incast", "fabric-storm"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

[[noreturn]] void usage(int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(out,
               "usage: clicbench --workload W [--seed N] [--seconds S]"
               " [--trace 0|1] [--trace-out FILE] [--smoke]\n"
               "  workloads: pingpong-sweep rpc-poisson rpc-incast"
               " fabric-storm\n"
               "  --seconds S   measure whole passes for S seconds"
               " (default 15)\n"
               "  --trace 1     alternate traced passes, report per-layer"
               " metrics\n"
               "  --trace-out   Chrome trace-event JSON of the traced"
               " passes\n"
               "  --smoke       every workload at ~1/100 scale\n");
  std::exit(code);
}

Options parse_args(int argc, char** argv) {
  Options o;
  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(2);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    long n = 0;
    if (arg == "-h" || arg == "--help") {
      usage(0);
    } else if (arg == "--workload") {
      o.workload = value(i);
    } else if (arg == "--seed") {
      if (!bench::parse_long_in(value(i), 0, 1L << 40, n)) usage(2);
      o.seed = static_cast<std::uint64_t>(n);
    } else if (arg == "--seconds") {
      if (!bench::parse_long_in(value(i), 0, 600, n)) usage(2);
      o.seconds = static_cast<double>(n);
    } else if (arg == "--trace") {
      if (!bench::parse_long_in(value(i), 0, 1, n)) usage(2);
      o.trace = n == 1;
    } else if (arg == "--trace-out") {
      o.trace_out = value(i);
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else {
      usage(2);
    }
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), o.workload) ==
      std::end(kWorkloads)) {
    usage(2);
  }
  return o;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct PassTiming {
  bool traced = false;
  double wall_s = 0.0;
  Clock::time_point start;
  Clock::time_point end;
};

// Per-layer metrics of one traced pass. -1 marks a layer the workload
// cannot observe from outside the library call it makes.
std::vector<Metric> layer_metrics(const PassResult& r, const PassTiming& pt,
                                  int threads) {
  std::vector<double> cell_s;
  double busy = 0.0;
  double self = 0.0;
  double build = 0.0;
  double run = 0.0;
  bool run_seen = false;
  for (const CellTrace& c : r.cells) {
    const double total = seconds_between(c.spans[0].start, c.spans[0].end);
    double children = 0.0;
    for (std::size_t i = 1; i < c.spans.size(); ++i) {
      const double d = seconds_between(c.spans[i].start, c.spans[i].end);
      children += d;
      if (std::strcmp(c.spans[i].name, "apps.bed_build") == 0) build += d;
      if (std::strcmp(c.spans[i].name, "sim.run") == 0) {
        run += d;
        run_seen = true;
      }
    }
    cell_s.push_back(total);
    busy += total;
    self += total - children;
  }
  const Layers& l = r.layers;
  const bool obs = l.stack_observed;
  auto stack = [obs](double v) { return obs ? v : -1.0; };
  const auto d = [](auto v) { return static_cast<double>(v); };
  const double ops = d(r.attempted);
  return {
      {"apps.cells", d(r.cells.size()), "count"},
      {"apps.samples", d(r.samples), "count"},
      {"apps.cell_s_p50", median(cell_s), "s"},
      {"apps.cell_s_max",
       cell_s.empty() ? 0.0 : *std::max_element(cell_s.begin(), cell_s.end()),
       "s"},
      {"apps.cell_self_s", self, "s"},
      {"apps.busy_share", ratio(busy, pt.wall_s * threads), "ratio"},
      {"apps.bed_build_s", stack(build), "s"},
      {"sim.events", d(l.events), "count"},
      {"sim.run_s", run_seen ? run : -1.0, "s"},
      {"sim.events_per_s", ratio(d(l.events), busy), "1/s"},
      {"sim.events_per_op", ratio(d(l.events), ops), "ratio"},
      {"sim.sim_s", d(l.sim_ns) / 1e9, "sim-s"},
      {"sim.shard_windows", stack(d(l.shard_windows)), "count"},
      {"sim.shard_barrier_waits", stack(d(l.shard_barrier_waits)), "count"},
      {"sim.shard_cross_posts", stack(d(l.shard_cross_posts)), "count"},
      {"sim.shard_cross_share",
       stack(ratio(d(l.shard_cross_posts), d(l.events))), "ratio"},
      {"sim.shard_events_per_window",
       stack(ratio(d(l.events), d(l.shard_windows))), "ratio"},
      {"sim.shard_imbalance", stack(l.shard_imbalance), "ratio"},
      {"net.pool_heap_allocs", stack(d(l.pool_heap_allocs)), "count"},
      {"net.pool_reuses", stack(d(l.pool_reuses)), "count"},
      {"net.pool_reuse_ratio",
       stack(ratio(d(l.pool_reuses), d(l.pool_reuses + l.pool_heap_allocs))),
       "ratio"},
      {"net.pool_high_water", stack(d(l.pool_high_water)), "count"},
      {"net.shared_mints", d(r.shared_mints), "count"},
      {"net.unpooled_copies", d(r.unpooled_copies), "count"},
      {"net.switch_forwarded", stack(d(l.switch_forwarded)), "count"},
      {"net.switch_drops", stack(d(l.switch_drops)), "count"},
      {"os.syscalls", stack(d(l.syscalls)), "count"},
      {"os.bottom_halves", stack(d(l.bottom_halves)), "count"},
      {"os.driver_tx_packets", stack(d(l.driver_tx)), "count"},
      {"os.driver_rx_packets", stack(d(l.driver_rx)), "count"},
      {"os.timers_fired", stack(d(l.timers_fired)), "count"},
      {"os.timers_cancelled", stack(d(l.timers_cancelled)), "count"},
      {"os.timer_fire_share",
       stack(ratio(d(l.timers_fired), d(l.timers_fired + l.timers_cancelled))),
       "ratio"},
      {"hw.nic_tx_frames", stack(d(l.nic_tx)), "count"},
      {"hw.nic_rx_frames", stack(d(l.nic_rx)), "count"},
      {"hw.nic_irqs", stack(d(l.nic_irqs)), "count"},
      {"hw.frames_per_irq", stack(ratio(d(l.nic_rx), d(l.nic_irqs))),
       "ratio"},
      {"hw.nic_rx_ring_drops", stack(d(l.nic_ring_drops)), "count"},
      {"clic.messages", stack(d(l.clic_messages)), "count"},
      {"clic.retransmits", stack(d(l.clic_retransmits)), "count"},
      {"clic.timeouts", stack(d(l.clic_timeouts)), "count"},
      {"clic.duplicates", stack(d(l.clic_duplicates)), "count"},
      {"clic.acks", stack(d(l.clic_acks)), "count"},
      {"clic.retx_share",
       stack(ratio(d(l.clic_retransmits), d(l.clic_messages))), "ratio"},
      {"tcpip.segments", stack(d(l.tcp_segments)), "count"},
      {"tcpip.retransmits", stack(d(l.tcp_retransmits)), "count"},
      {"tcpip.ip_fragments", stack(d(l.ip_fragments)), "count"},
  };
}

double us_since_start(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - kProcessStart).count();
}

void write_trace(const std::string& path, const std::string& workload,
                 const std::vector<PassTiming>& timings,
                 const std::vector<PassResult>& results) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"traceEvents\":[";
  bool first = true;
  auto event = [&](const char* name, int tid, Clock::time_point s,
                   Clock::time_point e, const std::string& args) {
    out << (first ? "" : ",") << "\n{\"name\":\"" << name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
        << ",\"ts\":" << number(us_since_start(s))
        << ",\"dur\":" << number(us_since_start(e) - us_since_start(s))
        << ",\"args\":{" << args << "}}";
    first = false;
  };
  for (std::size_t p = 0; p < results.size(); ++p) {
    if (!timings[p].traced) continue;
    const std::string pass = "\"pass\":" + std::to_string(p);
    event("workload", 0, timings[p].start, timings[p].end,
          pass + ",\"workload\":\"" + workload + "\"");
    const auto& cells = results[p].cells;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const std::string id = pass + ",\"cell\":" + std::to_string(c);
      for (const Span& s : cells[c].spans) {
        std::string args = id;
        if (std::strcmp(s.name, "apps.cell") == 0) {
          args += ",\"events\":" + std::to_string(cells[c].events) +
                  ",\"sim_ns\":" + std::to_string(cells[c].sim_ns);
        }
        event(s.name, cells[c].tid, s.start, s.end, args);
      }
    }
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

// Set-up, gates, warm-up and measured passes of one workload; prints the
// metric lines and the JSON result. Returns the exit status.
template <typename W>
int measure(const W& w, const Options& o, int threads) {
  // Set-up: build every bed (and input schedule) one pass uses, at least
  // five times and for at least 0.3 s, so sub-millisecond set-ups are
  // still a median of many; the median is setup_s.
  std::vector<double> setups;
  double setup_total = 0.0;
  while (setups.size() < 5 || setup_total < 0.3) {
    const auto t0 = Clock::now();
    w.setup();
    setups.push_back(seconds_between(t0, Clock::now()));
    setup_total += setups.back();
  }

  std::vector<std::string> failures;
  w.gates(failures);

  // Pass 0 warms caches and allocator arenas; it is checked like every
  // pass but not timed. The measured phase then repeats whole passes until
  // the time is up; traced runs alternate traced and untraced passes (at
  // least one of each).
  std::vector<PassResult> results;
  std::vector<PassTiming> timings;
  auto phase_start = Clock::now();
  for (int i = 0;; ++i) {
    const double elapsed = seconds_between(phase_start, Clock::now());
    const int needed = o.trace ? 3 : 2;
    if (i >= needed && elapsed >= o.seconds) break;
    PassTiming pt;
    pt.traced = o.trace && i % 2 == 1;
    const std::uint64_t mints = net::detail::shared_data_mints();
    const std::uint64_t copies = net::detail::unpooled_data_copies();
    pt.start = Clock::now();
    results.push_back(w.pass(pt.traced));
    pt.end = Clock::now();
    pt.wall_s = seconds_between(pt.start, pt.end);
    timings.push_back(pt);
    results.back().shared_mints = net::detail::shared_data_mints() - mints;
    results.back().unpooled_copies =
        net::detail::unpooled_data_copies() - copies;
    if (i == 0) phase_start = Clock::now();
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PassResult& r = results[i];
    attempted += r.attempted;
    failed += r.failed;
    for (const auto& f : r.gate_failures) failures.push_back(f);
    if (!(r.sim == results[0].sim)) {
      failures.push_back(std::string("pass ") + std::to_string(i) + " (" +
                         (timings[i].traced ? "traced" : "untraced") +
                         ") simulated results differ from pass 0");
    }
  }

  std::vector<double> plain_wall;
  std::vector<double> traced_wall;
  for (std::size_t i = 1; i < timings.size(); ++i) {
    (timings[i].traced ? traced_wall : plain_wall).push_back(timings[i].wall_s);
  }
  const SimSummary& s = results[0].sim;
  std::vector<Metric> metrics;
  if (o.trace) {
    // Per-layer values: the median of each over the traced passes
    // (counters repeat exactly, so their median is the value itself).
    std::vector<std::vector<Metric>> per_pass;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (timings[i].traced) {
        per_pass.push_back(layer_metrics(results[i], timings[i], threads));
      }
    }
    for (std::size_t m = 0; m < per_pass[0].size(); ++m) {
      std::vector<double> v;
      for (const auto& pm : per_pass) v.push_back(pm[m].value);
      metrics.push_back({per_pass[0][m].name, median(v), per_pass[0][m].unit});
    }
    metrics.push_back({"trace_overhead",
                       fastest(traced_wall) / fastest(plain_wall) - 1.0,
                       "ratio"});
    if (!o.trace_out.empty()) {
      write_trace(o.trace_out, o.workload, timings, results);
    }
  } else {
    metrics = {
        {"wall_s", fastest(plain_wall), "s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peak_rss_mib(), "MiB"},
        {"sim_p50", static_cast<double>(s.p50_ns) / 1e3, "sim-us"},
        {"sim_p99", static_cast<double>(s.p99_ns) / 1e3, "sim-us"},
        {"sim_p999", static_cast<double>(s.p999_ns) / 1e3, "sim-us"},
        {"sim_goodput", s.goodput_mbps, "sim-Mb/s"},
    };
  }

  for (const Metric& m : metrics) {
    std::printf("%s %s %s %s\n", o.workload.c_str(), m.name.c_str(),
                number(m.value).c_str(), m.unit.c_str());
  }
  for (const Extra& e : s.extras) {
    std::printf("%s %s %s %s\n", o.workload.c_str(), e.name.c_str(),
                number(e.value).c_str(), e.unit.c_str());
  }
  std::printf("%s passes %zu count\n", o.workload.c_str(),
              results.size() - 1);
  for (const auto& f : failures) {
    std::fprintf(stderr, "clicbench: gate failed: %s\n", f.c_str());
  }

  const bool correct = failures.empty() && failed == 0;
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int run(const Options& o) {
  Params p;
  p.seed = o.seed;
  p.threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  if (o.smoke) {
    p.pingpong_reps = 1;
    p.rpc_requests = 5;
    p.rpc_seeds = 1;
    p.incast_waves = 2;
    p.storm_sends = 2;
  }
  if (o.workload == "pingpong-sweep") {
    return measure(PingPongSweep(p), o, p.threads);
  }
  if (o.workload == "rpc-poisson") return measure(RpcPoisson(p), o, p.threads);
  if (o.workload == "rpc-incast") return measure(RpcIncast(p), o, p.threads);
  return measure(FabricStorm(p), o, p.threads);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "clicbench: %s\n", e.what());
    return 1;
  }
}
