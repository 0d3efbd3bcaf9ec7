// Collective scaling benchmark: log-depth MPI collectives at 128-1024
// ranks on a 2-level fat-tree, racing three implementations:
//
//   clic-host  host-level trees over CLIC (dissemination barrier, binomial
//              bcast/reduce; bcast uses CLIC's native Ethernet broadcast,
//              which rides the copy-on-write flood path through the fabric)
//   clic-nic   NIC-resident collective offload (hw/nic_collective): the
//              cards run the same binomial tree in firmware — interior
//              hops skip host DMA, interrupts and kernel wakeups
//   tcp-host   the same host trees over the TCP/IP stack (mesh capped at
//              --tcp-max ranks; a 1024-rank socket mesh is outside the
//              protocol's design point, which is itself the finding)
//
// Latency per collective is simulated time from the common start gate to
// the last rank's completion. stdout is deterministic and MUST be
// byte-identical at any --shards value (the sharded fat-tree is the
// engine's flagship case); wall-clock goes to stderr.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/testbed.hpp"
#include "bench/bench_util.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"

using namespace clicsim;

namespace {

struct Options {
  bench::ShardArgs shard;
  std::vector<int> nodes_list = {128, 512, 1024};
  std::int64_t bytes = 1024;  // bcast/allreduce payload (one wire MTU max)
  int tcp_max = 128;          // largest rank count for the tcp-host rows
};

[[noreturn]] void usage(const char* prog, int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(out,
               "usage: %s [--shards N] [--shard-stats] [--nodes N[,N...]]"
               " [--bytes N] [--tcp-max N]\n"
               "%s"
               "  --nodes L      comma-separated rank counts\n"
               "                 (default 128,512,1024)\n"
               "  --bytes N      bcast/allreduce payload bytes"
               " (default 1024)\n"
               "  --tcp-max N    skip tcp-host rows above N ranks\n"
               "                 (default 128)\n",
               prog, bench::kShardArgsHelp);
  std::exit(code);
}

long parse_long(const char* prog, const char* text, long lo, long hi) {
  long n = 0;
  if (!bench::parse_long_in(text, lo, hi, n)) usage(prog, 2);
  return n;
}

std::vector<int> parse_list(const char* prog, const char* text) {
  std::vector<int> out;
  std::string item;
  for (const char* p = text;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!item.empty()) {
        out.push_back(
            static_cast<int>(parse_long(prog, item.c_str(), 2, 4096)));
        item.clear();
      }
      if (*p == '\0') break;
    } else {
      item.push_back(*p);
    }
  }
  if (out.empty()) usage(prog, 2);
  return out;
}

Options parse_args(int argc, char** argv) {
  Options o;
  const char* prog = argc > 0 ? argv[0] : "collective_scale";
  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(prog, 2);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    switch (bench::consume_shard_arg(o.shard, argc, argv, i)) {
      case bench::ArgOutcome::kConsumed:
        continue;
      case bench::ArgOutcome::kBad:
        usage(prog, 2);
      case bench::ArgOutcome::kNotMine:
        break;
    }
    if (std::strcmp(arg, "-h") == 0 || std::strcmp(arg, "--help") == 0) {
      usage(prog, 0);
    } else if (std::strcmp(arg, "--nodes") == 0) {
      o.nodes_list = parse_list(prog, value(i));
    } else if (std::strcmp(arg, "--bytes") == 0) {
      o.bytes = parse_long(prog, value(i), 1, 1400);
    } else if (std::strcmp(arg, "--tcp-max") == 0) {
      o.tcp_max = static_cast<int>(parse_long(prog, value(i), 0, 4096));
    } else {
      usage(prog, 2);
    }
  }
  return o;
}

// Per-op latencies of one (nodes, stack) cell, in simulated time.
struct Cell {
  sim::SimTime barrier = -1;
  sim::SimTime bcast = -1;
  sim::SimTime allreduce = -1;
  bool complete = false;
};

// Each rank records its own completion slot (one writer per slot: safe in
// sharded runs); the cell latency is the slowest rank.
struct Drive {
  static sim::Task barrier(mpi::Communicator& comm, sim::Simulator& sim,
                           sim::SimTime* slot) {
    (void)co_await comm.barrier();
    *slot = sim.now();
  }
  static sim::Task bcast(mpi::Communicator& comm, sim::Simulator& sim,
                         std::int64_t bytes, sim::SimTime* slot) {
    // The payload is minted inside the coroutine, on the rank's own shard
    // (and from its pool); only the root's buffer carries data.
    net::Buffer data = comm.rank() == 0
                           ? net::Buffer::pattern(bytes, 0xC011u)
                           : net::Buffer::zeros(0);
    (void)co_await comm.bcast(0, std::move(data));
    *slot = sim.now();
  }
  static sim::Task allreduce(mpi::Communicator& comm, sim::Simulator& sim,
                             std::int64_t bytes, sim::SimTime* slot) {
    (void)co_await comm.allreduce_sum(net::Buffer::pattern(bytes, 0xA11Du));
    *slot = sim.now();
  }
};

// Launches `start` on every rank at a common gate, runs to quiescence, and
// returns last-completion - gate (or -1 if a rank never finished).
template <typename Bed, typename Start>
sim::SimTime run_op(Bed& bed, int n, Start start) {
  std::vector<sim::SimTime> done(static_cast<std::size_t>(n), -1);
  const sim::SimTime gate = bed.now() + sim::milliseconds(1.0);
  for (int r = 0; r < n; ++r) {
    sim::SimTime* slot = &done[static_cast<std::size_t>(r)];
    bed.sim_of(r).at(gate, [&bed, r, slot, start] { start(bed, r, slot); });
  }
  bed.run();
  sim::SimTime worst = -1;
  for (const sim::SimTime t : done) {
    if (t < 0) return -1;
    worst = std::max(worst, t - gate);
  }
  return worst;
}

Cell run_clic_cell(int n, int shards, std::int64_t bytes,
                   bool nic_collectives, bench::ShardStats* stats) {
  os::ClusterConfig cc;
  cc.nodes = n;
  cc.shards = shards;
  cc.topology = os::TopologySpec::fat_tree();
  mpi::Config mc;
  // The host contender is the binomial *tree*: CLIC's native Ethernet
  // broadcast is an unreliable datagram whose confirmation protocol has no
  // datagram retry, and at hundreds of ranks a single dropped flood copy
  // would hang the collective.
  mc.use_native_bcast = false;
  apps::MpiClicBed bed(cc, {}, mc, nic_collectives);

  Cell cell;
  cell.barrier = run_op(bed, n, [](apps::MpiClicBed& b, int r,
                                   sim::SimTime* slot) {
    Drive::barrier(b.comm(r), b.sim_of(r), slot);
  });
  cell.bcast =
      run_op(bed, n, [bytes](apps::MpiClicBed& b, int r, sim::SimTime* slot) {
        Drive::bcast(b.comm(r), b.sim_of(r), bytes, slot);
      });
  cell.allreduce =
      run_op(bed, n, [bytes](apps::MpiClicBed& b, int r, sim::SimTime* slot) {
        Drive::allreduce(b.comm(r), b.sim_of(r), bytes, slot);
      });
  cell.complete =
      cell.barrier >= 0 && cell.bcast >= 0 && cell.allreduce >= 0;
  if (stats != nullptr) stats->absorb(bed.bed.shards);
  return cell;
}

// TCP beds pin shards = 1 (TcpTransport writes peer queues directly), so
// sim_of(r) is the one home simulator for every rank.
struct TcpBedView {
  apps::MpiTcpBed& bed;
  [[nodiscard]] sim::SimTime now() const { return bed.bed.now(); }
  [[nodiscard]] sim::Simulator& sim_of(int) { return bed.sim(); }
  [[nodiscard]] mpi::Communicator& comm(int r) { return bed.comm(r); }
  void run() { bed.bed.run(); }
};

sim::Task tcp_connect(apps::MpiTcpBed& bed, bool* ok) {
  *ok = co_await bed.connect();
}

Cell run_tcp_cell(int n, std::int64_t bytes) {
  os::ClusterConfig cc;
  cc.nodes = n;
  cc.topology = os::TopologySpec::fat_tree();
  apps::MpiTcpBed bed(cc);

  bool connected = false;
  tcp_connect(bed, &connected);
  bed.bed.run();
  Cell cell;
  if (!connected) return cell;

  TcpBedView view{bed};
  cell.barrier =
      run_op(view, n, [](TcpBedView& b, int r, sim::SimTime* slot) {
        Drive::barrier(b.comm(r), b.sim_of(r), slot);
      });
  cell.bcast =
      run_op(view, n, [bytes](TcpBedView& b, int r, sim::SimTime* slot) {
        Drive::bcast(b.comm(r), b.sim_of(r), bytes, slot);
      });
  cell.allreduce =
      run_op(view, n, [bytes](TcpBedView& b, int r, sim::SimTime* slot) {
        Drive::allreduce(b.comm(r), b.sim_of(r), bytes, slot);
      });
  cell.complete =
      cell.barrier >= 0 && cell.bcast >= 0 && cell.allreduce >= 0;
  return cell;
}

void print_row(std::uint64_t& digest, int nodes, const char* stack,
               const Cell& cell) {
  std::printf(
      "  nodes=%-5d stack=%-9s barrier_us=%-10.3f bcast_us=%-10.3f"
      " allreduce_us=%.3f\n",
      nodes, stack, sim::to_us(cell.barrier), sim::to_us(cell.bcast),
      sim::to_us(cell.allreduce));
  sim::fnv1a_fold(digest, static_cast<std::uint64_t>(nodes));
  sim::fnv1a_fold(digest, static_cast<std::uint64_t>(cell.barrier));
  sim::fnv1a_fold(digest, static_cast<std::uint64_t>(cell.bcast));
  sim::fnv1a_fold(digest, static_cast<std::uint64_t>(cell.allreduce));
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  const auto wall_start = std::chrono::steady_clock::now();

  std::printf("collective_scale topology=fat-tree bytes=%lld\n",
              static_cast<long long>(o.bytes));
  std::uint64_t digest = sim::kFnvShortOffset;
  bool all_complete = true;
  bench::ShardStats stats;
  bench::ShardStats* stats_ptr = o.shard.stats ? &stats : nullptr;
  for (const int n : o.nodes_list) {
    const Cell host =
        run_clic_cell(n, o.shard.shards, o.bytes, false, stats_ptr);
    print_row(digest, n, "clic-host", host);
    all_complete = all_complete && host.complete;

    const Cell nic =
        run_clic_cell(n, o.shard.shards, o.bytes, true, stats_ptr);
    print_row(digest, n, "clic-nic", nic);
    all_complete = all_complete && nic.complete;

    if (n <= o.tcp_max) {
      const Cell tcp = run_tcp_cell(n, o.bytes);
      print_row(digest, n, "tcp-host", tcp);
      all_complete = all_complete && tcp.complete;
    } else {
      std::printf("  nodes=%-5d stack=tcp-host  skipped (above --tcp-max"
                  " %d)\n",
                  n, o.tcp_max);
    }
  }
  std::printf("  digest %016llx\n", static_cast<unsigned long long>(digest));

  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();
  std::fprintf(stderr, "collective_scale: shards=%d wall_ms=%.1f\n",
               o.shard.shards, wall_ms);
  if (o.shard.stats) stats.print("collective_scale", o.shard.shards);
  return all_complete ? 0 : 1;
}
