// Multi-tier fabric tests: TopologyPlan validation, forwarding across
// trunk hops (learning, flood containment, per-port tail drops), the
// copy-on-write flood payload invariant, zero-copy reassembly within a
// shard and never across one, shard placement (leaf-local
// traffic never crosses a shard boundary), sharded-vs-single determinism
// on every topology, NIC-offloaded collectives, and fault orchestration
// against a spine uplink.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/chaos.hpp"
#include "apps/testbed.hpp"
#include "hw/nic_collective.hpp"
#include "net/buffer_pool.hpp"
#include "net/frame.hpp"
#include "net/link.hpp"
#include "net/switch.hpp"
#include "os/cluster.hpp"
#include "os/topology.hpp"
#include "sim/fault_plan.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"

namespace clicsim {
namespace {

// --- TopologyPlan: derivation and validation ---------------------------------

TEST(TopologyPlan, FatTreeDerivesFullBisection) {
  const auto plan = os::TopologyPlan::resolve(os::TopologySpec::fat_tree(),
                                              /*nodes=*/16,
                                              /*nics_per_node=*/1);
  EXPECT_EQ(plan.leaves(), 2);
  EXPECT_EQ(plan.spines(), 8);  // one uplink per downlink
  EXPECT_EQ(plan.switches(), 10);
  EXPECT_EQ(plan.trunks().size(), 16u);  // every leaf to every spine
  EXPECT_EQ(plan.switch_name(0), "leaf0");
  EXPECT_EQ(plan.switch_name(2), "spine0");
  // Nodes map to leaves contiguously.
  EXPECT_EQ(plan.leaf_of_node(0), 0);
  EXPECT_EQ(plan.leaf_of_node(7), 0);
  EXPECT_EQ(plan.leaf_of_node(8), 1);
  EXPECT_EQ(plan.nodes_on(0), 8);
  EXPECT_EQ(plan.nodes_on(1), 8);
}

TEST(TopologyPlan, PortBudgetViolationNamesTheSwitch) {
  // 8 nodes on 2 leaves: each leaf needs 4 downlinks + 1 trunk = 5 ports.
  os::TopologySpec spec = os::TopologySpec::leaf_spine(2, 1);
  spec.max_switch_ports = 4;
  try {
    (void)os::TopologyPlan::resolve(spec, 8, 1);
    FAIL() << "port budget violation not detected";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("max_switch_ports"), std::string::npos) << what;
    EXPECT_NE(what.find("leaf0"), std::string::npos) << what;
  }
  spec.max_switch_ports = 5;
  EXPECT_NO_THROW((void)os::TopologyPlan::resolve(spec, 8, 1));
}

TEST(TopologyPlan, ShapeConstraintsRejected) {
  // A one-switch ring cannot close a cycle.
  EXPECT_THROW(
      (void)os::TopologyPlan::resolve(os::TopologySpec::switch_ring(1), 4, 1),
      std::invalid_argument);
  // The fat-tree derives its spine count; an explicit mismatch is an error.
  os::TopologySpec bad_fat{os::TopologyKind::kFatTree2, 2, 3, 0};
  EXPECT_THROW((void)os::TopologyPlan::resolve(bad_fat, 8, 1),
               std::invalid_argument);
  // The single star takes no shape counts.
  os::TopologySpec bad_star;
  bad_star.leaves = 2;
  EXPECT_THROW((void)os::TopologyPlan::resolve(bad_star, 4, 1),
               std::invalid_argument);
  // Every node-bearing switch must own at least one node.
  EXPECT_THROW(
      (void)os::TopologyPlan::resolve(os::TopologySpec::leaf_spine(5, 1), 4, 1),
      std::invalid_argument);
}

TEST(TopologyPlan, FloodTreePrunesExactlyTheNonTreeTrunks) {
  // Ring of 4: the wrap edge closes a cycle, so exactly one trunk is off
  // the flood tree.
  const auto ring =
      os::TopologyPlan::resolve(os::TopologySpec::switch_ring(4), 8, 1);
  int ring_off = 0;
  for (const os::TrunkEdge& e : ring.trunks()) ring_off += e.on_flood_tree ? 0 : 1;
  EXPECT_EQ(ring.trunks().size(), 4u);
  EXPECT_EQ(ring_off, 1);

  // Leaf-spine with 2 spines: floods ride the spine-0 star; every trunk to
  // another spine is pruned.
  const auto ls =
      os::TopologyPlan::resolve(os::TopologySpec::leaf_spine(2, 2), 8, 1);
  for (const os::TrunkEdge& e : ls.trunks()) {
    EXPECT_EQ(e.on_flood_tree, e.b == ls.leaves()) << "trunk to switch " << e.b;
  }
}

// --- Forwarding across trunk hops --------------------------------------------

struct Catcher : net::FrameSink {
  std::vector<net::Frame> frames;
  void frame_arrived(net::Frame f) override { frames.push_back(std::move(f)); }
};

net::Frame make_frame(net::MacAddr dst, net::MacAddr src, net::Buffer payload) {
  net::Frame f;
  f.dst = dst;
  f.src = src;
  f.payload = std::move(payload);
  return f;
}

// The port of `sw` that carries the trunk to `other`, or -1.
int trunk_port(const os::TopologyPlan& plan, int sw, int other) {
  for (const os::TrunkEdge& e : plan.trunks()) {
    if (e.a == sw && e.b == other) return e.a_port;
    if (e.b == sw && e.a == other) return e.b_port;
  }
  return -1;
}

TEST(Fabric, UnicastCrossesTrunksWithoutFloodingAndLearnsAcrossHops) {
  os::ClusterConfig cc;
  cc.nodes = 4;
  cc.topology = os::TopologySpec::leaf_spine(2, 1);
  sim::Simulator sim;
  os::Cluster cluster(sim, cc);
  const int spine = cluster.topology().leaves();  // switch id 2

  std::vector<Catcher> hosts(static_cast<std::size_t>(cc.nodes));
  for (int n = 0; n < cc.nodes; ++n) {
    cluster.link(n).attach(0, &hosts[static_cast<std::size_t>(n)]);
  }

  // A MAC no switch was pre-loaded with transits leaf0 -> spine -> leaf1;
  // each hop must learn it on its ingress port, and the pre-learned static
  // route for the destination keeps the fabric flood-free end to end.
  const net::MacAddr foreign = net::MacAddr::node(0xBEEF00);
  cluster.link(0).send(
      0, make_frame(os::Cluster::mac_of(3), foreign, net::Buffer::pattern(600, 1)));
  sim.run();

  EXPECT_EQ(hosts[3].frames.size(), 1u);
  EXPECT_EQ(hosts[1].frames.size(), 0u);
  EXPECT_EQ(hosts[2].frames.size(), 0u);
  for (int s = 0; s < cluster.switch_count(); ++s) {
    EXPECT_EQ(cluster.switch_at(s).flooded(), 0u) << "switch " << s;
    EXPECT_EQ(cluster.switch_at(s).forwarded(), 1u) << "switch " << s;
  }
  EXPECT_EQ(cluster.switch_at(spine).learned_port(foreign),
            trunk_port(cluster.topology(), spine, 0));
  EXPECT_EQ(cluster.switch_at(1).learned_port(foreign),
            trunk_port(cluster.topology(), 1, spine));

  // The learned reverse path carries the reply back without a flood.
  cluster.link(3).send(
      0, make_frame(foreign, os::Cluster::mac_of(3), net::Buffer::pattern(600, 2)));
  sim.run();
  EXPECT_EQ(hosts[0].frames.size(), 1u);
  for (int s = 0; s < cluster.switch_count(); ++s) {
    EXPECT_EQ(cluster.switch_at(s).flooded(), 0u) << "switch " << s;
  }
}

// A broadcast must reach every other node exactly once on shapes whose raw
// wiring has cycles (fat-tree, ring) — the pruned flood tree both contains
// the flood and keeps it loop-free.
TEST(Fabric, BroadcastReachesEveryNodeExactlyOnce) {
  for (const auto& spec : {os::TopologySpec::fat_tree(),
                           os::TopologySpec::switch_ring(3)}) {
    os::ClusterConfig cc;
    cc.nodes = 8;
    cc.topology = spec;
    sim::Simulator sim;
    os::Cluster cluster(sim, cc);

    std::vector<Catcher> hosts(static_cast<std::size_t>(cc.nodes));
    for (int n = 0; n < cc.nodes; ++n) {
      cluster.link(n).attach(0, &hosts[static_cast<std::size_t>(n)]);
    }
    const net::Buffer payload = net::Buffer::pattern(800, 7);
    cluster.link(0).send(
        0, make_frame(net::MacAddr::broadcast(), os::Cluster::mac_of(0),
                      payload));
    // A flood loop would never quiesce; bound the run and count copies.
    sim.run_until(sim::seconds(1.0));
    EXPECT_EQ(hosts[0].frames.size(), 0u);  // never back out the ingress
    for (int n = 1; n < cc.nodes; ++n) {
      ASSERT_EQ(hosts[n].frames.size(), 1u)
          << "node " << n << " copies, topology kind "
          << static_cast<int>(spec.kind);
      EXPECT_TRUE(hosts[n].frames[0].payload.content_equals(payload));
    }
  }
}

TEST(Fabric, UplinkCongestionTailDropsChargeTheUplinkPort) {
  os::ClusterConfig cc;
  cc.nodes = 8;
  cc.topology = os::TopologySpec::leaf_spine(2, 1);
  cc.sw.output_queue_frames = 1;
  sim::Simulator sim;
  os::Cluster cluster(sim, cc);
  const int spine = cluster.topology().leaves();
  const int uplink = trunk_port(cluster.topology(), 0, spine);
  ASSERT_GE(uplink, 0);

  std::vector<Catcher> hosts(static_cast<std::size_t>(cc.nodes));
  for (int n = 0; n < cc.nodes; ++n) {
    cluster.link(n).attach(0, &hosts[static_cast<std::size_t>(n)]);
  }
  // All four leaf0 nodes blast node 4 at once: four ingress streams merge
  // into one uplink with a one-frame queue.
  const int per_node = 6;
  for (int n = 0; n < 4; ++n) {
    for (int k = 0; k < per_node; ++k) {
      cluster.link(n).send(0, make_frame(os::Cluster::mac_of(4),
                                         os::Cluster::mac_of(n),
                                         net::Buffer::zeros(1400)));
    }
  }
  sim.run();

  net::Switch& leaf0 = cluster.switch_at(0);
  EXPECT_GT(leaf0.dropped_on(uplink), 0u);
  // Every tail drop happened at the congested uplink, not the downlinks.
  EXPECT_EQ(leaf0.dropped(), leaf0.dropped_on(uplink));
  for (int p = 0; p < uplink; ++p) {
    EXPECT_EQ(leaf0.dropped_on(p), 0u) << "downlink port " << p;
  }
  EXPECT_EQ(hosts[4].frames.size(),
            static_cast<std::size_t>(4 * per_node) - leaf0.dropped());
}

// --- Copy-on-write flood payloads -------------------------------------------

// A flood whose fan-out crosses shard boundaries converts the payload to
// shared-immutable storage exactly once; every copy (local and cross-shard)
// aliases it, so the deep-copy count is O(1) per frame, not O(ports).
TEST(Fabric, FloodAcrossShardsMintsOneSharedPayload) {
  os::ClusterConfig cc;
  cc.nodes = 8;
  cc.topology = os::TopologySpec::fat_tree();

  sim::Simulator home;
  sim::ShardGroup group(home, 4);
  os::Cluster cluster(group, cc);

  std::vector<Catcher> hosts(static_cast<std::size_t>(cc.nodes));
  for (int n = 0; n < cc.nodes; ++n) {
    cluster.link(n).attach(0, &hosts[static_cast<std::size_t>(n)]);
  }
  const net::Buffer payload = net::Buffer::pattern(2000, 11);
  cluster.sim_of_node(0).at(0, [&cluster, payload] {
    cluster.link(0).send(
        0, make_frame(net::MacAddr::broadcast(), os::Cluster::mac_of(0),
                      payload));
  });

  const std::uint64_t mints0 = net::detail::shared_data_mints();
  const std::uint64_t copies0 = net::detail::unpooled_data_copies();
  group.run_until(sim::seconds(1.0));
  EXPECT_EQ(net::detail::shared_data_mints() - mints0, 1u);
  EXPECT_EQ(net::detail::unpooled_data_copies() - copies0, 0u);

  for (int n = 1; n < cc.nodes; ++n) {
    ASSERT_EQ(hosts[n].frames.size(), 1u) << "node " << n;
    EXPECT_TRUE(hosts[n].frames[0].payload.content_equals(payload));
  }

  // Control: the same flood on one shard has no boundary to cross and
  // needs no shared conversion at all.
  sim::Simulator serial;
  os::Cluster flat(serial, cc);
  std::vector<Catcher> flat_hosts(static_cast<std::size_t>(cc.nodes));
  for (int n = 0; n < cc.nodes; ++n) {
    flat.link(n).attach(0, &flat_hosts[static_cast<std::size_t>(n)]);
  }
  const std::uint64_t mints1 = net::detail::shared_data_mints();
  flat.link(0).send(
      0, make_frame(net::MacAddr::broadcast(), os::Cluster::mac_of(0),
                    payload));
  serial.run_until(sim::seconds(1.0));
  EXPECT_EQ(net::detail::shared_data_mints() - mints1, 0u);
  for (int n = 1; n < cc.nodes; ++n) {
    ASSERT_EQ(flat_hosts[n].frames.size(), 1u) << "node " << n;
  }
}

// Cross-shard *unicast* rides the same shared-immutable machinery: the
// data payload is minted once at the first shard boundary and aliased
// through every further hop — the frame path performs zero unpooled
// payload deep-copies.
TEST(Fabric, CrossShardUnicastPerformsZeroPayloadDeepCopies) {
  os::ClusterConfig cc;
  cc.nodes = 2;
  cc.shards = 3;  // switch on shard 0; node 0 -> shard 1, node 1 -> shard 2
  apps::ClicBed bed(cc);
  bed.module(0).bind_port(7);
  bed.module(1).bind_port(7);

  struct Run {
    static sim::Task tx(clic::ClicModule& m, int* ok) {
      auto st = co_await m.send(7, 1, 7, net::Buffer::pattern(600, 5),
                                clic::SendMode::kConfirmed);
      if (st.ok) ++*ok;
    }
    static sim::Task rx(clic::ClicModule& m, int* got) {
      clic::Message msg = co_await m.recv(7);
      if (msg.data.size() == 600) ++*got;
    }
  };
  int ok = 0;
  int got = 0;
  const std::uint64_t mints0 = net::detail::shared_data_mints();
  const std::uint64_t copies0 = net::detail::unpooled_data_copies();
  bed.sim_of(0).at(0, [&bed, &ok] { Run::tx(bed.module(0), &ok); });
  Run::rx(bed.module(1), &got);
  bed.run();
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(got, 1);
  // The one data frame crossed two boundaries (node 0 -> switch shard,
  // switch shard -> node 1): one shared mint at the first, pass-through at
  // the second. The returning ack carries no data block, so it mints
  // nothing — and nothing anywhere deep-copies.
  EXPECT_EQ(net::detail::shared_data_mints() - mints0, 1u);
  EXPECT_EQ(net::detail::unpooled_data_copies() - copies0, 0u);
}

// A multi-frame message put back together on its sender's shard is the
// sender's buffer, with no copy. One that crossed a shard boundary arrives
// as per-frame shared blocks and is copied into the receiver's own pool:
// an alias of a pooled block never leaves the thread that owns its
// refcount. Payloads are minted on the sending shard's thread.
TEST(Fabric, ShardedReassemblyAliasesOnlyWithinItsShard) {
  constexpr int kMessages = 3;
  constexpr std::int64_t kBytes = 40000;  // five frames at MTU 9000
  using Sent = std::array<net::Buffer, kMessages>;
  os::ClusterConfig cc;
  cc.nodes = 8;
  cc.shards = 3;
  cc.topology = os::TopologySpec::fat_tree(2);  // nodes 0-3 and 4-7
  apps::ClicBed bed(cc);
  bed.cluster.set_mtu_all(9000);
  for (int n = 0; n < cc.nodes; ++n) bed.module(n).bind_port(7);

  struct Run {
    static sim::Task tx(clic::ClicModule& m, int src, int dst, Sent* sent,
                        int* ok) {
      for (int k = 0; k < kMessages; ++k) {
        (*sent)[k] = net::Buffer::pattern(kBytes, src * 10 + k);
        const auto st = co_await m.send(7, dst, 7, (*sent)[k],
                                        clic::SendMode::kConfirmed);
        if (st.ok) ++*ok;
      }
    }
    static sim::Task rx(clic::ClicModule& m, int src, const Sent* sent,
                        int* intact, int* aliased) {
      for (int k = 0; k < kMessages; ++k) {
        const clic::Message msg = co_await m.recv(7);
        if (msg.src_node == src &&
            msg.data.content_equals(
                net::Buffer::pattern(kBytes, src * 10 + k))) {
          ++*intact;
        }
        if (msg.data.storage_identity() == (*sent)[k].storage_identity()) {
          ++*aliased;
        }
      }
    }
  };

  // Two pairs behind one leaf (shards 0 and 1), two across the spine.
  const std::pair<int, int> local[] = {{0, 1}, {4, 5}};
  const std::pair<int, int> remote[] = {{2, 6}, {7, 3}};
  std::vector<Sent> sent(static_cast<std::size_t>(cc.nodes));
  std::vector<int> ok(sent.size(), 0);
  std::vector<int> intact(sent.size(), 0);
  std::vector<int> aliased(sent.size(), 0);
  auto start = [&](int src, int dst) {
    const auto s = static_cast<std::size_t>(src);
    const auto d = static_cast<std::size_t>(dst);
    bed.sim_of(src).at(0, [&bed, &sent, &ok, src, dst, s] {
      Run::tx(bed.module(src), src, dst, &sent[s], &ok[s]);
    });
    Run::rx(bed.module(dst), src, &sent[s], &intact[d], &aliased[d]);
  };
  for (const auto& [src, dst] : local) {
    ASSERT_EQ(bed.cluster.shard_of_node(src), bed.cluster.shard_of_node(dst));
    start(src, dst);
  }
  for (const auto& [src, dst] : remote) {
    ASSERT_NE(bed.cluster.shard_of_node(src), bed.cluster.shard_of_node(dst));
    start(src, dst);
  }
  ASSERT_NE(bed.cluster.shard_of_node(0), bed.cluster.shard_of_node(4));

  const std::uint64_t copies0 = net::detail::unpooled_data_copies();
  bed.run();
  EXPECT_EQ(net::detail::unpooled_data_copies() - copies0, 0u);
  auto check = [&](const auto& pairs, int expect_aliased) {
    for (const auto& [src, dst] : pairs) {
      const auto d = static_cast<std::size_t>(dst);
      EXPECT_EQ(ok[static_cast<std::size_t>(src)], kMessages) << src;
      EXPECT_EQ(intact[d], kMessages) << src << " -> " << dst;
      EXPECT_EQ(aliased[d], expect_aliased) << src << " -> " << dst;
    }
  };
  check(local, kMessages);
  check(remote, 0);
}

// --- Shard placement ----------------------------------------------------------

// Both tiers of a multi-tier fabric spread over all K shards: every shard
// hosts nodes, per-shard node counts differ by at most one leaf's group and
// per-shard leaf and spine counts by at most one, and every node sits on
// its leaf's shard. Nine leaves divide none of 2, 4 and 8.
TEST(Fabric, ShardPlacementSpreadsLeavesAndSpinesOverEveryShard) {
  constexpr int kLeaves = 9;
  constexpr int kNodesPerLeaf = 4;
  for (const auto& spec : {os::TopologySpec::fat_tree(kLeaves),
                           os::TopologySpec::leaf_spine(kLeaves, 3),
                           os::TopologySpec::switch_ring(kLeaves)}) {
    for (const int k : {2, 3, 4, 8}) {
      SCOPED_TRACE(testing::Message() << "topology kind "
                                      << static_cast<int>(spec.kind)
                                      << " shards " << k);
      os::ClusterConfig cc;
      cc.nodes = kLeaves * kNodesPerLeaf;
      cc.topology = spec;
      sim::Simulator home;
      sim::ShardGroup group(home, k);
      os::Cluster cluster(group, cc);
      const os::TopologyPlan& plan = cluster.topology();

      std::vector<int> nodes(static_cast<std::size_t>(k), 0);
      std::vector<int> leaves(static_cast<std::size_t>(k), 0);
      std::vector<int> spines(static_cast<std::size_t>(k), 0);
      for (int i = 0; i < cc.nodes; ++i) {
        const int shard = cluster.shard_of_node(i);
        EXPECT_EQ(shard, cluster.shard_of_switch(plan.leaf_of_node(i)))
            << "node " << i;
        ++nodes[static_cast<std::size_t>(shard)];
      }
      for (int s = 0; s < plan.switches(); ++s) {
        auto& tier = s < plan.leaves() ? leaves : spines;
        ++tier[static_cast<std::size_t>(cluster.shard_of_switch(s))];
      }
      auto spread = [](const std::vector<int>& per_shard) {
        const auto [lo, hi] =
            std::minmax_element(per_shard.begin(), per_shard.end());
        return *hi - *lo;
      };
      EXPECT_GE(*std::min_element(nodes.begin(), nodes.end()), 1);
      EXPECT_LE(spread(nodes), kNodesPerLeaf);
      EXPECT_LE(spread(leaves), 1);
      EXPECT_LE(spread(spines), 1);
    }
  }
}

// The single star keeps its switch on shard 0 and its nodes on 1..K-1.
TEST(Fabric, SingleStarPlacesSwitchOnShardZeroAndNodesOnTheRest) {
  for (const int k : {2, 3, 4, 8}) {
    os::ClusterConfig cc;
    cc.nodes = 16;
    sim::Simulator home;
    sim::ShardGroup group(home, k);
    os::Cluster cluster(group, cc);
    EXPECT_EQ(cluster.shard_of_switch(0), 0) << "shards " << k;
    std::vector<int> nodes(static_cast<std::size_t>(k), 0);
    for (int i = 0; i < cc.nodes; ++i) {
      ++nodes[static_cast<std::size_t>(cluster.shard_of_node(i))];
    }
    EXPECT_EQ(nodes[0], 0) << "shards " << k;
    for (int s = 1; s < k; ++s) {
      EXPECT_GE(nodes[static_cast<std::size_t>(s)], 1)
          << "shards " << k << " shard " << s;
    }
  }
}

// Leaf switches co-reside with their node groups, so traffic that stays
// behind one leaf never posts a cross-shard mailbox event.
TEST(Fabric, LeafLocalTrafficCrossesNoShardBoundary) {
  os::ClusterConfig cc;
  cc.nodes = 8;
  cc.shards = 3;
  cc.topology = os::TopologySpec::leaf_spine(2, 1);
  apps::ClicBed bed(cc);
  for (int n = 0; n < cc.nodes; ++n) bed.module(n).bind_port(7);

  struct Run {
    static sim::Task tx(clic::ClicModule& m, int dst, int* ok) {
      auto st = co_await m.send(7, dst, 7, net::Buffer::pattern(9000, 3),
                                clic::SendMode::kConfirmed);
      if (st.ok) ++*ok;
    }
    static sim::Task rx(clic::ClicModule& m, int* got) {
      (void)co_await m.recv(7);
      ++*got;
    }
  };

  // Node pairs behind leaf0 (nodes 0-3) and leaf1 (nodes 4-7).
  std::vector<int> ok(static_cast<std::size_t>(cc.nodes), 0);
  std::vector<int> got(static_cast<std::size_t>(cc.nodes), 0);
  for (const auto& [src, dst] : {std::pair{0, 1}, std::pair{4, 5}}) {
    bed.sim_of(src).at(0, [&bed, src, dst, &ok] {
      Run::tx(bed.module(src), dst, &ok[static_cast<std::size_t>(src)]);
    });
    Run::rx(bed.module(dst), &got[static_cast<std::size_t>(dst)]);
  }
  bed.run();
  EXPECT_EQ(ok[0] + ok[4], 2);
  EXPECT_EQ(got[1] + got[5], 2);
  EXPECT_EQ(bed.shards.cross_shard_posts(), 0u);

  // Sanity of the meter itself: one cross-leaf message must cross shards
  // (leaf0 and the spine on shard 0, leaf1 on shard 1).
  bed.sim_of(0).at(bed.now() + sim::microseconds(1.0), [&bed, &ok] {
    Run::tx(bed.module(0), 4, &ok[0]);
  });
  Run::rx(bed.module(4), &got[4]);
  bed.run();
  EXPECT_GT(bed.shards.cross_shard_posts(), 0u);
}

// --- Sharded determinism on every topology -----------------------------------

TEST(Fabric, ShardedRunMatchesSingleShardOnEveryTopology) {
  struct Result {
    std::uint64_t events = 0;
    sim::SimTime clock = 0;
    int ok = 0;
    int got = 0;
    bool operator==(const Result&) const = default;
  };
  auto trial = [](const os::TopologySpec& spec, int shards) {
    os::ClusterConfig cc;
    cc.nodes = 12;
    cc.shards = shards;
    cc.topology = spec;
    apps::ClicBed bed(cc);
    for (int n = 0; n < cc.nodes; ++n) bed.module(n).bind_port(9);

    struct Run {
      static sim::Task tx(clic::ClicModule& m, int dst, int* ok) {
        auto st = co_await m.send(9, dst, 9, net::Buffer::zeros(20000),
                                  clic::SendMode::kConfirmed);
        if (st.ok) ++*ok;
      }
      static sim::Task rx(clic::ClicModule& m, int* got) {
        (void)co_await m.recv(9);
        ++*got;
      }
    };
    std::vector<int> ok(static_cast<std::size_t>(cc.nodes), 0);
    std::vector<int> got(static_cast<std::size_t>(cc.nodes), 0);
    for (int n = 0; n < cc.nodes; ++n) {
      const int dst = (n + 1) % cc.nodes;
      bed.sim_of(n).at(0, [&bed, n, dst, &ok] {
        Run::tx(bed.module(n), dst, &ok[static_cast<std::size_t>(n)]);
      });
      Run::rx(bed.module(dst), &got[static_cast<std::size_t>(dst)]);
    }
    bed.run();
    Result r{bed.events_executed(), bed.now(), 0, 0};
    for (int n = 0; n < cc.nodes; ++n) {
      r.ok += ok[static_cast<std::size_t>(n)];
      r.got += got[static_cast<std::size_t>(n)];
    }
    return r;
  };

  for (const auto& spec : {os::TopologySpec::leaf_spine(3, 2),
                           os::TopologySpec::switch_ring(3),
                           os::TopologySpec::fat_tree(3)}) {
    const Result base = trial(spec, 1);
    EXPECT_EQ(base.ok, 12);
    EXPECT_EQ(base.got, 12);
    for (const int shards : {2, 3, 4, 5}) {
      EXPECT_EQ(base, trial(spec, shards))
          << "topology kind " << static_cast<int>(spec.kind) << " shards "
          << shards;
    }
  }
}

// --- NIC-offloaded collectives -----------------------------------------------

TEST(Fabric, NicCollectivesCompleteAndCarryPayloadAcrossShardCounts) {
  struct Result {
    std::uint64_t events = 0;
    sim::SimTime clock = 0;
    bool operator==(const Result&) const = default;
  };
  const net::Buffer root_data = net::Buffer::pattern(512, 99);

  auto trial = [&root_data](int shards) {
    os::ClusterConfig cc;
    cc.nodes = 8;
    cc.shards = shards;
    cc.topology = os::TopologySpec::fat_tree();
    apps::MpiClicBed bed(cc, {}, {}, /*nic_collectives=*/true);

    struct Run {
      static sim::Task go(mpi::Communicator& c, int rank,
                          const net::Buffer* root_data, int* complete) {
        (void)co_await c.barrier();
        net::Buffer in = rank == 2 ? *root_data : net::Buffer();
        net::Buffer b = co_await c.bcast(2, std::move(in));
        net::Buffer sum =
            co_await c.allreduce_sum(net::Buffer::pattern(256, rank));
        if (b.content_equals(*root_data) && sum.size() == 256) ++*complete;
      }
    };
    std::vector<int> complete(8, 0);
    for (int r = 0; r < 8; ++r) {
      bed.sim_of(r).at(0, [&bed, r, &root_data, &complete] {
        Run::go(bed.comm(r), r, &root_data,
                &complete[static_cast<std::size_t>(r)]);
      });
    }
    bed.run();
    int done = 0;
    for (const int c : complete) done += c;
    EXPECT_EQ(done, 8) << "shards " << shards;
    for (int r = 0; r < 8; ++r) {
      EXPECT_EQ(bed.engines[static_cast<std::size_t>(r)]->ops_completed(), 3u)
          << "rank " << r << " shards " << shards;
    }
    // Interior hops ran on the cards: the engines sent tree frames.
    EXPECT_GT(bed.engines[0]->frames_sent(), 0u);
    return Result{bed.bed.events_executed(), bed.now()};
  };

  const Result base = trial(1);
  EXPECT_EQ(base, trial(3));
}

// --- Fault orchestration across tiers ----------------------------------------

TEST(FabricChaos, ClusterTargetsCoverTrunksAndEverySwitchPort) {
  os::ClusterConfig cc;
  cc.nodes = 4;
  cc.topology = os::TopologySpec::leaf_spine(2, 1);
  apps::ClicBed bed(cc);
  sim::FaultPlan plan(bed.sim, 1);
  apps::register_cluster_targets(plan, bed.cluster);
  // 4 node carriers + 4 NIC stalls + 2 trunk carriers
  // + switch ports (leaf0: 3, leaf1: 3, spine0: 2).
  EXPECT_EQ(plan.target_count(), 18);
  std::vector<std::string> names;
  for (int t = 0; t < plan.target_count(); ++t) {
    names.push_back(plan.target_name(t));
  }
  auto has = [&names](const std::string& name) {
    for (const std::string& n : names) {
      if (n == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("carrier trunk.leaf0.spine0"));
  EXPECT_TRUE(has("carrier trunk.leaf1.spine0"));
  EXPECT_TRUE(has("swport leaf0.2"));
  EXPECT_TRUE(has("swport spine0.1"));
}

// Killing one spine uplink mid-transfer: sends routed over the dead trunk
// must retransmit through the outage and complete once it heals; sends on
// the surviving spine are unaffected; nothing hangs.
TEST(FabricChaos, SpineUplinkOutageRetransmitsToCompletion) {
  os::ClusterConfig cc;
  cc.nodes = 8;
  cc.topology = os::TopologySpec::leaf_spine(2, 2);
  apps::ClicBed bed(cc);
  for (int n = 0; n < cc.nodes; ++n) bed.module(n).bind_port(5);

  sim::FaultPlan plan(bed.sim, 1);
  apps::register_cluster_targets(plan, bed.cluster);
  int uplink_target = -1;
  for (int t = 0; t < plan.target_count(); ++t) {
    if (plan.target_name(t) == "carrier trunk.leaf0.spine0") uplink_target = t;
  }
  ASSERT_GE(uplink_target, 0);
  // Static routes send node 4 (even) via spine0, node 5 (odd) via spine1.
  plan.fail_between(uplink_target, 0, sim::milliseconds(5.0));

  struct Run {
    static sim::Task tx(clic::ClicModule& m, int dst, int* resolved, int* ok) {
      auto st = co_await m.send(5, dst, 5, net::Buffer::pattern(12000, 4),
                                clic::SendMode::kConfirmed);
      ++*resolved;
      if (st.ok) ++*ok;
    }
    static sim::Task rx(clic::ClicModule& m, int* got) {
      (void)co_await m.recv(5);
      ++*got;
    }
  };
  int resolved = 0;
  int ok = 0;
  int got = 0;
  Run::tx(bed.module(0), 4, &resolved, &ok);  // through the dead uplink
  Run::tx(bed.module(1), 5, &resolved, &ok);  // through the live spine
  Run::rx(bed.module(4), &got);
  Run::rx(bed.module(5), &got);
  bed.run_until(sim::seconds(10.0));

  EXPECT_EQ(resolved, 2);  // bounded failure: nothing hangs
  EXPECT_EQ(ok, 2);        // 5 ms outage is inside the retry budget
  EXPECT_EQ(got, 2);
  int trunk = -1;
  for (int t = 0; t < bed.cluster.trunk_count(); ++t) {
    if (bed.cluster.trunk_link(t).name() == "trunk.leaf0.spine0") trunk = t;
  }
  ASSERT_GE(trunk, 0);
  EXPECT_GT(bed.cluster.trunk_link(trunk).carrier_drops(), 0u);
  EXPECT_TRUE(bed.cluster.trunk_link(trunk).carrier_up());  // healed
  EXPECT_FALSE(bed.pending());  // quiesced, no runaway retransmission
}

// A randomized multi-tier campaign (trunk carriers and spine ports in the
// target set) satisfies the liveness contract and replays byte-identically
// at any shard count.
TEST(FabricChaos, MultiTierCampaignIsShardInvariant) {
  apps::ChaosOptions o;
  o.seed = 5;
  o.nodes = 8;
  o.topology = os::TopologySpec::fat_tree();
  o.messages = 16;
  const apps::ChaosReport serial = apps::run_chaos_campaign(o);
  EXPECT_TRUE(serial.liveness_ok()) << serial.summary();
  EXPECT_EQ(serial.resolved, serial.messages);
  EXPECT_GT(serial.fault_events, 0u);

  o.shards = 2;
  const apps::ChaosReport sharded = apps::run_chaos_campaign(o);
  EXPECT_EQ(serial.summary(), sharded.summary());
}

}  // namespace
}  // namespace clicsim
