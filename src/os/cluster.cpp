#include "os/cluster.hpp"

#include <string>
#include <utility>

namespace clicsim::os {

Cluster::Cluster(sim::Simulator& sim, ClusterConfig config)
    : sim_(&sim), config_(std::move(config)) {
  build(sim);
}

Cluster::Cluster(sim::ShardGroup& group, ClusterConfig config)
    : sim_(&group.shard(0)), group_(&group), config_(std::move(config)) {
  build(group.shard(0));
}

void Cluster::build(sim::Simulator& home) {
  plan_ = TopologyPlan::resolve(config_.topology, config_.nodes,
                                config_.nics_per_node);
  const TopologyPlan& plan = *plan_;
  const int k = group_ != nullptr ? group_->shards() : 1;

  // Shard placement. The single star puts its switch on shard 0 and its
  // nodes contiguously over shards 1..K-1. Multi-tier fabrics spread each
  // tier evenly over all K shards: leaf g on shard floor(g*K/L) with its
  // node group beside it, so leaf-local frames never touch a mailbox, and
  // spine j on shard floor(j*K/S). The busiest shard sets the pace of every
  // window, so an even spread keeps the others from idling at the barrier.
  // Placement decides only which thread runs an entity; routing, lookahead
  // and the merge order, hence every simulated result, do not depend on it.
  auto spread = [](int i, int count, int parts) {
    return static_cast<int>((static_cast<std::int64_t>(i) * parts) / count);
  };
  switch_shards_.assign(static_cast<std::size_t>(plan.switches()), 0);
  node_shards_.assign(static_cast<std::size_t>(config_.nodes), 0);
  if (k >= 2) {
    if (plan.single_star()) {
      for (int i = 0; i < config_.nodes; ++i) {
        node_shards_[static_cast<std::size_t>(i)] =
            1 + spread(i, config_.nodes, k - 1);
      }
    } else {
      for (int g = 0; g < plan.leaves(); ++g) {
        switch_shards_[static_cast<std::size_t>(g)] =
            spread(g, plan.leaves(), k);
      }
      for (int j = 0; j < plan.spines(); ++j) {
        switch_shards_[static_cast<std::size_t>(plan.leaves() + j)] =
            spread(j, plan.spines(), k);
      }
      for (int i = 0; i < config_.nodes; ++i) {
        node_shards_[static_cast<std::size_t>(i)] =
            switch_shards_[static_cast<std::size_t>(plan.leaf_of_node(i))];
      }
    }
  }

  auto sim_for_shard = [&](int shard) -> sim::Simulator& {
    return group_ != nullptr ? group_->shard(shard) : home;
  };

  switches_.reserve(static_cast<std::size_t>(plan.switches()));
  for (int s = 0; s < plan.switches(); ++s) {
    switches_.push_back(std::make_unique<net::Switch>(
        sim_for_shard(shard_of_switch(s)), plan.ports_of(s), config_.sw,
        plan.switch_name(s)));
  }

  for (int i = 0; i < config_.nodes; ++i) {
    const int shard = node_shards_[static_cast<std::size_t>(i)];
    sim::Simulator& node_sim = sim_for_shard(shard);
    auto node = std::make_unique<Node>(node_sim, i, config_.host, config_.pci,
                                       "node" + std::to_string(i));
    const int leaf = plan.leaf_of_node(i);
    net::Switch& leaf_switch = *switches_[static_cast<std::size_t>(leaf)];
    for (int j = 0; j < config_.nics_per_node; ++j) {
      node->add_nic(config_.nic, mac_of(i, j));

      const int port = plan.local_index(i) * config_.nics_per_node + j;
      const std::string link_name =
          "link.n" + std::to_string(i) + ".e" + std::to_string(j);
      // Link end 0 is the node's NIC, end 1 the switch port. The
      // shard-aware constructor declares the PDES channels and validates
      // positive lookahead; node and leaf sharing a shard declare nothing.
      auto link = group_ != nullptr
                      ? std::make_unique<net::Link>(*group_, shard,
                                                    shard_of_switch(leaf),
                                                    config_.link, link_name)
                      : std::make_unique<net::Link>(home, config_.link,
                                                    link_name);
      node->nic(j).attach_link(*link, 0);
      leaf_switch.connect(port, *link, 1);
      // Boot-time gratuitous learning: every NIC announces itself to its
      // own switch.
      leaf_switch.learn(mac_of(i, j), port);
      links_.push_back(std::move(link));
    }
    nodes_.push_back(std::move(node));
  }

  // Inter-switch trunks. Every cross-shard trunk is itself a PDES channel
  // (same lookahead law as node links — the constructor throws if the
  // switch-to-switch hop would not have strictly positive lookahead).
  // Non-spanning-tree edges get flooding disabled on both end ports:
  // unicast still uses them via the static routes below, floods never do.
  for (const TrunkEdge& e : plan.trunks()) {
    const std::string trunk_name =
        "trunk." + plan.switch_name(e.a) + "." + plan.switch_name(e.b);
    auto link = group_ != nullptr
                    ? std::make_unique<net::Link>(
                          *group_, shard_of_switch(e.a), shard_of_switch(e.b),
                          config_.link, trunk_name)
                    : std::make_unique<net::Link>(home, config_.link,
                                                  trunk_name);
    switches_[static_cast<std::size_t>(e.a)]->connect(e.a_port, *link, 0);
    switches_[static_cast<std::size_t>(e.b)]->connect(e.b_port, *link, 1);
    if (!e.on_flood_tree) {
      switches_[static_cast<std::size_t>(e.a)]->set_flood_enabled(e.a_port,
                                                                  false);
      switches_[static_cast<std::size_t>(e.b)]->set_flood_enabled(e.b_port,
                                                                  false);
    }
    trunk_links_.push_back(std::move(link));
  }

  // Static multi-hop routes: every switch knows the egress port for every
  // remote NIC before the first frame flows, so a cold 1024-node fabric
  // pays zero unknown-unicast flooding (local NICs were learned above).
  for (int s = 0; s < plan.switches(); ++s) {
    for (int n = 0; n < config_.nodes; ++n) {
      const int out = plan.route(s, n);
      if (out < 0) continue;
      for (int j = 0; j < config_.nics_per_node; ++j) {
        switches_[static_cast<std::size_t>(s)]->learn(mac_of(n, j), out);
      }
    }
  }
}

void Cluster::set_mtu_all(std::int64_t mtu) {
  for (auto& n : nodes_) {
    for (int j = 0; j < n->nic_count(); ++j) n->nic(j).set_mtu(mtu);
  }
}

void Cluster::set_coalescing_all(sim::SimTime usecs, int frames) {
  for (auto& n : nodes_) {
    for (int j = 0; j < n->nic_count(); ++j) {
      n->nic(j).set_coalescing(usecs, frames);
    }
  }
}

}  // namespace clicsim::os
