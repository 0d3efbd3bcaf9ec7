#include "os/topology.hpp"

#include <numeric>
#include <sstream>
#include <stdexcept>

namespace clicsim::os {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("TopologySpec: " + what);
}

// ~32 nodes per node-bearing switch, at least 2 switches, never more
// switches than nodes.
int derived_group_count(int nodes) {
  const int by_size = (nodes + 31) / 32;
  const int want = by_size < 2 ? 2 : by_size;
  return want > nodes ? nodes : want;
}

}  // namespace

int TopologySpec::switch_count(int nodes) const {
  switch (kind) {
    case TopologyKind::kSingleStar:
      return 1;
    case TopologyKind::kSwitchRing:
      return leaves > 0 ? leaves : derived_group_count(nodes);
    case TopologyKind::kLeafSpine: {
      const int l = leaves > 0 ? leaves : derived_group_count(nodes);
      return l + (spines > 0 ? spines : 1);
    }
    case TopologyKind::kFatTree2: {
      const int l = leaves > 0 ? leaves : derived_group_count(nodes);
      // Full bisection: one uplink per leaf downlink → spines = the
      // largest per-leaf node count.
      const int per_leaf = (nodes + l - 1) / l;
      return l + (spines > 0 ? spines : per_leaf);
    }
  }
  return 1;
}

TopologyPlan TopologyPlan::resolve(const TopologySpec& spec, int nodes,
                                   int nics_per_node) {
  if (nodes < 1) fail("cluster needs >= 1 node");
  if (nics_per_node < 1) fail("cluster needs >= 1 NIC per node");

  TopologyPlan plan;
  plan.kind_ = spec.kind;
  plan.nodes_ = nodes;
  plan.nics_per_node_ = nics_per_node;

  if (spec.kind == TopologyKind::kSingleStar) {
    plan.leaves_ = 1;
    plan.spines_ = 0;
    if (spec.leaves > 1 || spec.spines > 0) {
      fail("single-star takes no leaf/spine counts");
    }
  } else {
    plan.leaves_ = spec.leaves > 0 ? spec.leaves : derived_group_count(nodes);
    if (plan.leaves_ > nodes) {
      std::ostringstream msg;
      msg << "more node-bearing switches (" << plan.leaves_
          << ") than nodes (" << nodes << ") — every switch needs a node";
      fail(msg.str());
    }
    switch (spec.kind) {
      case TopologyKind::kSwitchRing:
        if (spec.spines > 0) fail("a switch ring has no spines");
        if (plan.leaves_ < 2) fail("switch ring needs >= 2 switches");
        plan.spines_ = 0;
        break;
      case TopologyKind::kLeafSpine:
        plan.spines_ = spec.spines > 0 ? spec.spines : 1;
        break;
      case TopologyKind::kFatTree2: {
        const int per_leaf = (nodes + plan.leaves_ - 1) / plan.leaves_;
        if (spec.spines > 0 && spec.spines != per_leaf) {
          std::ostringstream msg;
          msg << "2-level fat-tree with " << plan.leaves_
              << " leaves over " << nodes << " nodes needs exactly "
              << per_leaf << " spines for full bisection, got "
              << spec.spines;
          fail(msg.str());
        }
        plan.spines_ = per_leaf;
        break;
      }
      case TopologyKind::kSingleStar:
        break;  // unreachable
    }
  }

  plan.place_nodes();
  switch (plan.kind_) {
    case TopologyKind::kSingleStar:
      plan.ports_ = {nodes * nics_per_node};
      break;
    case TopologyKind::kLeafSpine:
    case TopologyKind::kFatTree2:
      plan.wire_leaf_spine();
      break;
    case TopologyKind::kSwitchRing:
      plan.wire_ring();
      break;
  }
  plan.compute_routes();

  plan.check_ports(spec.max_switch_ports);
  plan.check_flood_tree();
  plan.check_reachability();
  return plan;
}

void TopologyPlan::place_nodes() {
  node_leaf_.resize(static_cast<std::size_t>(nodes_));
  local_index_.resize(static_cast<std::size_t>(nodes_));
  leaf_nodes_.assign(static_cast<std::size_t>(leaves_), 0);
  for (int i = 0; i < nodes_; ++i) {
    // Contiguous blocks, monotone in node id — the same mapping rule the
    // shard placement uses, so a leaf's node group is one shard's nodes.
    const int leaf = static_cast<int>(
        (static_cast<std::int64_t>(i) * leaves_) / nodes_);
    node_leaf_[static_cast<std::size_t>(i)] = leaf;
    local_index_[static_cast<std::size_t>(i)] =
        leaf_nodes_[static_cast<std::size_t>(leaf)]++;
  }
}

void TopologyPlan::wire_leaf_spine() {
  ports_.assign(static_cast<std::size_t>(switches()), 0);
  for (int l = 0; l < leaves_; ++l) {
    ports_[static_cast<std::size_t>(l)] =
        nodes_on(l) * nics_per_node_ + spines_;
  }
  for (int s = 0; s < spines_; ++s) {
    ports_[static_cast<std::size_t>(leaves_ + s)] = leaves_;
  }
  // Every leaf uplinks to every spine; only the spine-0 star is on the
  // flood tree (it alone spans all leaves without a cycle).
  for (int l = 0; l < leaves_; ++l) {
    const int uplink_base = nodes_on(l) * nics_per_node_;
    for (int s = 0; s < spines_; ++s) {
      trunks_.push_back(TrunkEdge{l, uplink_base + s, leaves_ + s, l,
                                  /*on_flood_tree=*/s == 0});
    }
  }
}

void TopologyPlan::wire_ring() {
  ports_.assign(static_cast<std::size_t>(leaves_), 0);
  for (int r = 0; r < leaves_; ++r) {
    // Two trunk ports per ring member: base+0 toward next, base+1 from prev.
    ports_[static_cast<std::size_t>(r)] = nodes_on(r) * nics_per_node_ + 2;
  }
  for (int r = 0; r < leaves_; ++r) {
    const int next = (r + 1) % leaves_;
    const int a_port = nodes_on(r) * nics_per_node_ + 0;
    const int b_port = nodes_on(next) * nics_per_node_ + 1;
    // Breaking the wrap-around edge out of the flood tree turns the ring
    // into a line for floods (exactly-once delivery, no circulating storm).
    trunks_.push_back(
        TrunkEdge{r, a_port, next, b_port, /*on_flood_tree=*/r != leaves_ - 1});
  }
}

void TopologyPlan::compute_routes() {
  routes_.assign(
      static_cast<std::size_t>(switches()) * static_cast<std::size_t>(nodes_),
      -1);
  if (single_star()) return;
  auto route_ref = [this](int s, int node) -> int& {
    return routes_[static_cast<std::size_t>(s) *
                       static_cast<std::size_t>(nodes_) +
                   static_cast<std::size_t>(node)];
  };
  for (int n = 0; n < nodes_; ++n) {
    const int home = leaf_of_node(n);
    if (kind_ == TopologyKind::kSwitchRing) {
      for (int r = 0; r < leaves_; ++r) {
        if (r == home) continue;
        // Shortest direction; every member routes monotonically toward the
        // owner, so per-destination paths cannot loop even though the ring
        // itself has a cycle.
        const int d = (home - r + leaves_) % leaves_;
        const int trunk_base = nodes_on(r) * nics_per_node_;
        route_ref(r, n) = d <= leaves_ / 2 ? trunk_base : trunk_base + 1;
      }
    } else {
      // Per-destination spine spread: every leaf sends node n's traffic via
      // spine n % spines, so the two-hop leaf→spine→leaf path is unique per
      // destination (loop-free) and destinations stripe across spines.
      const int via = n % spines_;
      for (int l = 0; l < leaves_; ++l) {
        if (l == home) continue;
        route_ref(l, n) = nodes_on(l) * nics_per_node_ + via;
      }
      for (int s = 0; s < spines_; ++s) {
        route_ref(leaves_ + s, n) = home;
      }
    }
  }
}

void TopologyPlan::check_ports(int limit) const {
  if (limit <= 0) return;
  for (int s = 0; s < switches(); ++s) {
    if (ports_of(s) > limit) {
      std::ostringstream msg;
      msg << switch_name(s) << " needs " << ports_of(s) << " ports ("
          << (s < leaves_ ? nodes_on(s) * nics_per_node_ : 0)
          << " node-facing + "
          << ports_of(s) -
                 (s < leaves_ ? nodes_on(s) * nics_per_node_ : 0)
          << " trunk) but max_switch_ports = " << limit
          << "; add switches or raise the budget";
      fail(msg.str());
    }
  }
}

// The flood-enabled trunk edges must form a forest (no cycle — a flooded
// frame would otherwise circulate forever) that connects every node-bearing
// switch (otherwise some broadcast receivers are unreachable).
void TopologyPlan::check_flood_tree() const {
  std::vector<int> parent(static_cast<std::size_t>(switches()));
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&parent](int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      x = parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(
              parent[static_cast<std::size_t>(x)])];
    }
    return x;
  };
  for (const TrunkEdge& e : trunks_) {
    if (!e.on_flood_tree) continue;
    const int ra = find(e.a);
    const int rb = find(e.b);
    if (ra == rb) {
      std::ostringstream msg;
      msg << "flood-tree cycle through trunk " << switch_name(e.a) << " port "
          << e.a_port << " <-> " << switch_name(e.b) << " port " << e.b_port
          << "; a broadcast would circulate forever";
      fail(msg.str());
    }
    parent[static_cast<std::size_t>(ra)] = rb;
  }
  const int root = find(0);
  for (int l = 1; l < leaves_; ++l) {
    if (find(l) != root) {
      std::ostringstream msg;
      msg << "flood tree does not connect " << switch_name(l)
          << " to " << switch_name(0)
          << "; broadcasts would never reach its nodes";
      fail(msg.str());
    }
  }
}

// Self-check: walk every (switch, node) static route to the owning leaf.
// Guards the route/wiring tables against drift — a broken entry here means
// a 1024-node run would silently fall back to unknown-unicast flooding.
void TopologyPlan::check_reachability() const {
  // Trunk peer of each (switch, port), -1 where no trunk is cabled. Edges
  // are entered in order, so on duplicate cabling the later edge wins.
  std::vector<std::vector<int>> peer(static_cast<std::size_t>(switches()));
  auto cable = [&peer](int s, int port, int other) {
    auto& ports = peer[static_cast<std::size_t>(s)];
    const auto p = static_cast<std::size_t>(port);
    if (p >= ports.size()) ports.resize(p + 1, -1);
    ports[p] = other;
  };
  for (const TrunkEdge& e : trunks_) {
    cable(e.a, e.a_port, e.b);
    cable(e.b, e.b_port, e.a);
  }
  for (int s = 0; s < switches(); ++s) {
    for (int n = 0; n < nodes_; ++n) {
      int cur = s;
      int hops = 0;
      while (route(cur, n) != -1) {
        const int out = route(cur, n);
        const auto& ports = peer[static_cast<std::size_t>(cur)];
        const int next = out >= 0 && static_cast<std::size_t>(out) < ports.size()
                             ? ports[static_cast<std::size_t>(out)]
                             : -1;
        if (next < 0) {
          std::ostringstream msg;
          msg << "route from " << switch_name(cur) << " to node " << n
              << " exits port " << out << " which carries no trunk";
          fail(msg.str());
        }
        cur = next;
        if (++hops > switches()) {
          std::ostringstream msg;
          msg << "route from " << switch_name(s) << " to node " << n
              << " loops";
          fail(msg.str());
        }
      }
      if (cur >= leaves_ || leaf_of_node(n) != cur) {
        std::ostringstream msg;
        msg << "route from " << switch_name(s) << " to node " << n
            << " terminates at " << switch_name(cur)
            << " which does not own the node";
        fail(msg.str());
      }
    }
  }
}

std::string TopologyPlan::switch_name(int s) const {
  if (single_star()) return "switch0";
  if (kind_ == TopologyKind::kSwitchRing) return "ring" + std::to_string(s);
  if (s < leaves_) return "leaf" + std::to_string(s);
  return "spine" + std::to_string(s - leaves_);
}

}  // namespace clicsim::os
