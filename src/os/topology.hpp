// Declarative cluster fabric topologies.
//
// A TopologySpec names the wiring shape (one star switch, a leaf-spine
// fabric, a ring of switches, a 2-level fat-tree); TopologyPlan::resolve()
// validates it against the node count — port budgets, loop-free flood
// wiring, every node reachable — and computes the concrete wiring the
// Cluster builder executes: which leaf owns which nodes, which ports are
// trunks, the static unicast route from every switch to every node, and
// the spanning-tree edge set floods are confined to.
//
// Shard placement follows the topology: a node-bearing (leaf/ring) switch
// co-resides on the shard of its node group, so leaf-local traffic never
// crosses a shard boundary; only trunk frames pay the mailbox hop. Leaves
// and spines each spread evenly over all shards (see os/cluster.hpp).
#pragma once

#include <string>
#include <vector>

namespace clicsim::os {

enum class TopologyKind {
  kSingleStar,  // every NIC on one switch (the legacy shape)
  kLeafSpine,   // L leaves, each uplinked to every one of S spines
  kSwitchRing,  // R node-bearing switches in a cycle
  kFatTree2,    // 2-level fat-tree: full-bisection leaf-spine
};

struct TopologySpec {
  TopologyKind kind = TopologyKind::kSingleStar;
  // Node-bearing switches (leaves for leaf-spine/fat-tree, ring members
  // for the ring). 0 = derive (~32 nodes per leaf, minimum 2 switches).
  int leaves = 0;
  // Spine switches. Leaf-spine: 0 derives 1 (oversubscribed by design);
  // the fat-tree derives nodes-per-leaf spines (full bisection: one uplink
  // per downlink) and rejects an explicit mismatch.
  int spines = 0;
  // Port budget per switch, enforced at resolve time; 0 = unconstrained.
  int max_switch_ports = 0;

  static TopologySpec single_star() { return {}; }
  static TopologySpec leaf_spine(int leaves, int spines = 1) {
    return {TopologyKind::kLeafSpine, leaves, spines, 0};
  }
  static TopologySpec switch_ring(int switches) {
    return {TopologyKind::kSwitchRing, switches, 0, 0};
  }
  static TopologySpec fat_tree(int leaves = 0) {
    return {TopologyKind::kFatTree2, leaves, 0, 0};
  }

  // Total switches this spec builds for `nodes` nodes (after deriving
  // defaulted counts); does not validate beyond what derivation needs.
  [[nodiscard]] int switch_count(int nodes) const;
};

// One inter-switch cable: `a`'s port `a_port` to `b`'s port `b_port`.
// `on_flood_tree` marks spanning-tree membership — the builder disables
// flooding on both end ports of every edge where it is false.
struct TrunkEdge {
  int a = 0;
  int a_port = 0;
  int b = 0;
  int b_port = 0;
  bool on_flood_tree = true;
};

// The resolved wiring for one (spec, nodes, nics_per_node) triple. Switch
// ids: node-bearing switches first (0..leaves-1), then spines
// (leaves..leaves+spines-1). Node ids map to leaves contiguously; a node's
// NIC j sits on its leaf at port local_index * nics_per_node + j.
class TopologyPlan {
 public:
  // Validates and resolves; throws std::invalid_argument with a message
  // naming the violated budget/shape constraint.
  static TopologyPlan resolve(const TopologySpec& spec, int nodes,
                              int nics_per_node);

  [[nodiscard]] int nodes() const { return nodes_; }
  [[nodiscard]] int leaves() const { return leaves_; }
  [[nodiscard]] int spines() const { return spines_; }
  [[nodiscard]] int switches() const { return leaves_ + spines_; }
  [[nodiscard]] bool single_star() const {
    return kind_ == TopologyKind::kSingleStar;
  }

  [[nodiscard]] int leaf_of_node(int node) const {
    return node_leaf_.at(static_cast<std::size_t>(node));
  }
  // Position of `node` among its leaf's nodes (port bases derive from it).
  [[nodiscard]] int local_index(int node) const {
    return local_index_.at(static_cast<std::size_t>(node));
  }
  [[nodiscard]] int nodes_on(int leaf) const {
    return leaf_nodes_.at(static_cast<std::size_t>(leaf));
  }
  // Ports on switch `s`: node-facing downlinks first, then trunk ports.
  [[nodiscard]] int ports_of(int s) const {
    return ports_.at(static_cast<std::size_t>(s));
  }

  [[nodiscard]] const std::vector<TrunkEdge>& trunks() const {
    return trunks_;
  }

  // Static unicast egress: the port of switch `s` a frame for `node`
  // leaves through, or -1 when `s` owns the node (frames for local nodes
  // use the node-facing port directly). Pre-learned into every switch so
  // a cold fabric never unknown-unicast floods.
  [[nodiscard]] int route(int s, int node) const {
    return routes_.at(static_cast<std::size_t>(s) *
                          static_cast<std::size_t>(nodes_) +
                      static_cast<std::size_t>(node));
  }

  // Human-readable switch name ("switch0" for the star, "leaf3"/"spine1"/
  // "ring2" otherwise) — stable, fault-target names build on it.
  [[nodiscard]] std::string switch_name(int s) const;

 private:
  TopologyPlan() = default;

  void place_nodes();
  void wire_leaf_spine();
  void wire_ring();
  void compute_routes();
  void check_ports(int limit) const;
  void check_flood_tree() const;
  void check_reachability() const;

  TopologyKind kind_ = TopologyKind::kSingleStar;
  int nodes_ = 0;
  int nics_per_node_ = 1;
  int leaves_ = 1;
  int spines_ = 0;
  std::vector<int> node_leaf_;
  std::vector<int> local_index_;
  std::vector<int> leaf_nodes_;
  std::vector<int> ports_;
  std::vector<TrunkEdge> trunks_;
  std::vector<int> routes_;  // switches x nodes, -1 == local
};

}  // namespace clicsim::os
