// Protocol decoding for captured frames — the "tcpdump" text renderer.
// Lives in apps because it is the only layer allowed to know every stack's
// header type (net stays protocol-agnostic).
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "net/tap.hpp"
#include "os/cluster.hpp"

namespace clicsim::apps {

// One-line description of a frame: MACs, ethertype, decoded protocol
// header (CLIC, IP/TCP, GAMMA, VIA, NIC-fragment) and sizes.
[[nodiscard]] std::string describe(const net::Frame& frame);

// Captures traffic arriving at selected points of a cluster and renders a
// time-ordered decoded trace.
class PacketTrace {
 public:
  // Taps frames arriving at node `node`'s NIC `nic` (i.e. its ingress).
  void tap_node_rx(os::Cluster& cluster, int node, int nic = 0);

  // Taps frames leaving node `node` (arriving at the switch side).
  void tap_node_tx(os::Cluster& cluster, int node, int nic = 0);

  // Convenience: tap every node's rx and tx.
  void tap_all(os::Cluster& cluster);

  // Time-merged decoded dump.
  void dump(std::ostream& os) const;

  [[nodiscard]] std::uint64_t frames_captured() const;
  void clear();

 private:
  struct Point {
    std::string label;
    std::unique_ptr<net::Tap> tap;
  };
  std::vector<Point> points_;
};

}  // namespace clicsim::apps
