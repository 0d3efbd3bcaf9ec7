// PDES scaling benchmark: one large CLIC scenario sharded across cores.
//
// A 64-node (configurable) cluster runs a ring-neighbor storm of confirmed
// sends: node n ships `--messages` back-to-back confirmed messages to node
// (n+1) mod N while receiving the same stream from (n-1) mod N. This is
// the shape the intra-scenario shard engine is built for — many nodes,
// all active, one switch — unlike the figure sweeps whose 2-node
// scenarios parallelize across sweep points (-j) instead.
//
// stdout is a deterministic digest of the run (per-node delivery
// counters, total events, final sim clock) and MUST be byte-identical at
// any --shards value; wall-clock timing goes to stderr so the comparison
// `pdes_scale --shards 1` vs `pdes_scale --shards $(nproc)` can diff
// stdout directly while the speedup is read off stderr.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "apps/testbed.hpp"
#include "bench/bench_util.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"

using namespace clicsim;

namespace {

struct Options {
  bench::ShardArgs shard;
  int nodes = 64;
  int messages = 48;          // confirmed sends per node
  std::int64_t bytes = 4096;  // payload per message
  const char* topology = "single-star";
  os::TopologySpec spec;
};

[[noreturn]] void usage(const char* prog, int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(out,
               "usage: %s [--shards N] [--shard-stats] [--nodes N]"
               " [--messages N] [--bytes N]\n"
               "%s"
               "  --nodes N      cluster size (default 64)\n"
               "  --messages N   confirmed sends per node (default 48)\n"
               "  --bytes N      payload bytes per message (default 4096)\n"
               "  --topology T   fabric shape: single-star (default),\n"
               "                 leaf-spine, ring, or fat-tree (multi-tier\n"
               "                 shapes spread leaves, with their nodes,\n"
               "                 and spines over all shards)\n",
               prog, bench::kShardArgsHelp);
  std::exit(code);
}

long parse_long(const char* prog, const char* text, long lo, long hi) {
  long n = 0;
  if (!bench::parse_long_in(text, lo, hi, n)) usage(prog, 2);
  return n;
}

os::TopologySpec parse_topology(const char* prog, const char* text) {
  if (std::strcmp(text, "single-star") == 0) {
    return os::TopologySpec::single_star();
  }
  if (std::strcmp(text, "leaf-spine") == 0) {
    return os::TopologySpec::leaf_spine(0);  // derived leaves, one spine
  }
  if (std::strcmp(text, "ring") == 0) {
    return os::TopologySpec::switch_ring(0);  // derived member count
  }
  if (std::strcmp(text, "fat-tree") == 0) {
    return os::TopologySpec::fat_tree();
  }
  usage(prog, 2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  const char* prog = argc > 0 ? argv[0] : "pdes_scale";
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
      o.nodes = static_cast<int>(parse_long(prog, value(i), 2, 4096));
    } else if (std::strcmp(arg, "--messages") == 0) {
      o.messages = static_cast<int>(parse_long(prog, value(i), 1, 1 << 20));
    } else if (std::strcmp(arg, "--bytes") == 0) {
      o.bytes = parse_long(prog, value(i), 1, 16 << 20);
    } else if (std::strcmp(arg, "--topology") == 0) {
      o.topology = value(i);
      o.spec = parse_topology(prog, o.topology);
    } else {
      usage(prog, 2);
    }
  }
  return o;
}

struct NodeCounters {
  int sent_ok = 0;
  int sent_failed = 0;
  int received = 0;
  int corrupt = 0;
};

struct Drive {
  static sim::Task tx(clic::ClicModule& mod, int dst, int port, int count,
                      std::int64_t bytes, std::uint64_t seed,
                      NodeCounters* c) {
    for (int k = 0; k < count; ++k) {
      net::Buffer data = net::Buffer::pattern(
          bytes, seed ^ (static_cast<std::uint64_t>(k) * 0x9e3779b9u));
      auto status = co_await mod.send(port, dst, port, std::move(data),
                                      clic::SendMode::kConfirmed);
      if (status.ok) {
        ++c->sent_ok;
      } else {
        ++c->sent_failed;
      }
    }
  }
  static sim::Task rx(clic::ClicModule& mod, int port, int count,
                      std::int64_t bytes, std::uint64_t seed,
                      NodeCounters* c) {
    for (int k = 0; k < count; ++k) {
      clic::Message got = co_await mod.recv(port);
      net::Buffer expect = net::Buffer::pattern(
          bytes, seed ^ (static_cast<std::uint64_t>(k) * 0x9e3779b9u));
      if (got.data.size() == expect.size() &&
          got.data.content_equals(expect)) {
        ++c->received;
      } else {
        ++c->corrupt;
      }
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);

  os::ClusterConfig cc;
  cc.nodes = o.nodes;
  cc.shards = o.shard.shards;
  cc.topology = o.spec;
  apps::ClicBed bed(cc);

  const int port = 101;  // CLIC wire ports are 8-bit
  std::vector<NodeCounters> counters(static_cast<std::size_t>(o.nodes));
  for (int n = 0; n < o.nodes; ++n) {
    bed.module(n).bind_port(port);
  }
  for (int n = 0; n < o.nodes; ++n) {
    const int dst = (n + 1) % o.nodes;
    // The stream n -> dst is seeded by the sender index so tx and rx agree
    // on the expected payloads without sharing a Buffer across shards.
    const std::uint64_t seed = 0x5eedu + static_cast<std::uint64_t>(n);
    NodeCounters* c = &counters[static_cast<std::size_t>(n)];
    NodeCounters* cd = &counters[static_cast<std::size_t>(dst)];
    bed.sim_of(n).at(0, [&bed, n, dst, c, &o, seed] {
      Drive::tx(bed.module(n), dst, port, o.messages, o.bytes, seed, c);
    });
    Drive::rx(bed.module(dst), port, o.messages, o.bytes, seed, cd);
  }

  const auto wall_start = std::chrono::steady_clock::now();
  bed.run();
  const auto wall_end = std::chrono::steady_clock::now();

  std::uint64_t digest = sim::kFnvShortOffset;
  int delivered = 0;
  int failures = 0;
  for (int n = 0; n < o.nodes; ++n) {
    const NodeCounters& c = counters[static_cast<std::size_t>(n)];
    sim::fnv1a_fold(digest, static_cast<std::uint64_t>(n));
    sim::fnv1a_fold(digest, static_cast<std::uint64_t>(c.sent_ok));
    sim::fnv1a_fold(digest, static_cast<std::uint64_t>(c.sent_failed));
    sim::fnv1a_fold(digest, static_cast<std::uint64_t>(c.received));
    sim::fnv1a_fold(digest, static_cast<std::uint64_t>(c.corrupt));
    delivered += c.received;
    failures += c.sent_failed + c.corrupt;
  }
  sim::fnv1a_fold(digest, bed.events_executed());
  sim::fnv1a_fold(digest, static_cast<std::uint64_t>(bed.now()));

  std::printf("pdes_scale nodes=%d messages=%d bytes=%lld topology=%s\n",
              o.nodes, o.messages, static_cast<long long>(o.bytes),
              o.topology);
  std::printf("  delivered %d/%d  failures %d\n", delivered,
              o.nodes * o.messages, failures);
  std::printf("  events %llu  finished_at_us %.3f\n",
              static_cast<unsigned long long>(bed.events_executed()),
              sim::to_us(bed.now()));
  std::printf("  digest %016llx\n",
              static_cast<unsigned long long>(digest));

  const double wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start)
          .count();
  std::fprintf(stderr, "pdes_scale: shards=%d wall_ms=%.1f\n",
               o.shard.shards, wall_ms);
  if (o.shard.stats) {
    bench::ShardStats stats;
    stats.absorb(bed.shards);
    stats.print("pdes_scale", o.shard.shards);
  }
  return delivered == o.nodes * o.messages && failures == 0 ? 0 : 1;
}
